"""One-Class SVM with an RBF kernel.

TEASER filters each prefix classifier's probabilistic predictions through a
One-Class SVM trained only on the correctly classified training instances;
samples the OC-SVM rejects are considered not-yet-reliable. This module
implements the standard nu-OC-SVM dual

    minimise   (1/2) a' K a
    subject to 0 <= a_i <= 1 / (nu * n),  sum(a) = 1

by projected gradient descent, with the simplex-with-box projection solved
by bisection. For the small per-prefix training sets TEASER produces this is
fast and dependable.

Each bisection step asks one question: does ``clip(alpha - shift, 0,
upper).sum()`` exceed one? The projection sorts ``alpha`` once and answers
from its prefix sums in O(log n) Python float operations, falling back to
the numpy expression only when the answer is within a proven rounding bound
of one. The shifts, and so the projections, are bitwise those of evaluating
the numpy expression at every step (see :func:`_project_box_simplex`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from ..exceptions import DataError, NotFittedError
from .distance import pairwise_squared_euclidean

__all__ = ["OneClassSVM", "rbf_kernel"]


def rbf_kernel(rows: np.ndarray, others: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix ``exp(-gamma * ||a - b||^2)``."""
    if gamma <= 0:
        raise DataError(f"gamma must be positive, got {gamma}")
    return np.exp(-gamma * pairwise_squared_euclidean(rows, others))


def _project_box_simplex(alpha: np.ndarray, upper: float) -> np.ndarray:
    """Project onto ``{0 <= a_i <= upper, sum(a) = 1}`` by bisection.

    The projection is ``clip(alpha - shift, 0, upper)`` for the unique shift
    making the coordinates sum to one; ``sum`` is monotone in the shift so
    bisection converges quickly.

    Each step decides ``total > 1`` for ``total = clip(alpha - shift, 0,
    upper).sum()`` without that O(n) numpy call. With ``s`` the sorted
    ``alpha`` and ``P`` its prefix sums (``P[k] = s[0] + ... + s[k-1]``),
    the coordinates ``<= shift`` contribute 0, those ``>= shift + upper``
    contribute ``upper`` and the ``m`` in between ``s[j] - shift``, so

        total = P[hi] - P[lo] - m * shift + (n - hi) * upper

    with ``lo``/``hi`` found by bisecting ``s`` (a coordinate equal to
    ``shift`` or to ``shift + upper`` contributes the same, up to the
    rounding counted below, on either side of it). Let ``T`` be the exact
    value, ``u = 2**-53`` and ``A = max|alpha_i|``; the shift stays in
    ``[min - upper, max]``, so ``|shift| <= A + upper``. To first order in
    ``n * u``:

    * numpy rounds each ``alpha_i - shift`` (clipping is exact, and rounding
      cannot carry a value across the float bounds 0 or ``upper``), then
      sums in some order: off by at most ``n * u * T <= n**2 * u * upper``;
    * each prefix sum is off by at most ``n * u * (n * A)``;
    * ``m * shift``, ``(n - hi) * upper`` and the three additions round
      values of size at most ``2 * n * A + n * |shift| + n * upper``: at
      most ``6 * n * u * (A + |shift| + upper)`` in all;
    * ``shift + upper`` is rounded, so a coordinate within ``u * (|shift|
      + upper)`` of it may count as ``upper`` instead of ``s[j] - shift``,
      or the reverse: at most ``n * u * (|shift| + upper)``.

    That sums to at most ``2 * n * (n + 7) * u * (A + upper)``, and
    ``bound = 8 * n * (n + 4) * u * (A + upper)`` is at least twice it,
    covering the higher-order terms. Whenever the fast ``total`` is farther
    than ``bound`` from one it is on the same side of one as numpy's sum;
    otherwise the step evaluates the numpy expression. So the
    ``low``/``high`` sequence, and the returned array, are bitwise those of
    evaluating the numpy expression at every step. ``alpha`` must be
    finite.
    """
    ordered = np.sort(alpha)
    prefix = [0.0, *np.cumsum(ordered).tolist()]
    ordered = ordered.tolist()
    n = len(ordered)
    low = ordered[0] - upper
    high = ordered[-1]
    scale = max(-ordered[0], ordered[-1]) + upper
    bound = 8.0 * n * (n + 4) * 2.0**-53 * scale
    for _ in range(100):
        shift = 0.5 * (low + high)
        lo = bisect_right(ordered, shift)
        hi = bisect_left(ordered, shift + upper)
        total = prefix[hi] - prefix[lo] - (hi - lo) * shift + (n - hi) * upper
        if abs(total - 1.0) <= bound:
            total = np.clip(alpha - shift, 0.0, upper).sum()
        if total > 1.0:
            low = shift
        else:
            high = shift
        if high - low < 1e-12:
            break
    return np.clip(alpha - 0.5 * (low + high), 0.0, upper)


class OneClassSVM:
    """nu-parameterised One-Class SVM (RBF kernel).

    Parameters
    ----------
    nu:
        Upper bound on the fraction of training outliers and lower bound on
        the fraction of support vectors, in ``(0, 1]``.
    gamma:
        RBF width; ``None`` selects the "scale" heuristic
        ``1 / (d * var(X))``.
    max_iter:
        Projected-gradient iterations.
    """

    def __init__(
        self,
        nu: float = 0.1,
        gamma: float | None = None,
        max_iter: int = 300,
    ) -> None:
        if not 0.0 < nu <= 1.0:
            raise DataError(f"nu must be in (0, 1], got {nu}")
        self.nu = nu
        self.gamma = gamma
        self.max_iter = max_iter
        self._rows: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._rho: float = 0.0
        self._gamma: float = 1.0

    def fit(self, rows: np.ndarray) -> "OneClassSVM":
        """Learn the support of the (single-class) training rows.

        Raises :class:`DataError` if any row holds NaN or inf.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise DataError(f"expected a 2-D matrix, got shape {rows.shape}")
        n = rows.shape[0]
        if n == 0:
            raise DataError("cannot fit OneClassSVM on zero samples")
        n_bad = int((~np.isfinite(rows)).any(axis=1).sum())
        if n_bad:
            raise DataError(
                f"cannot fit OneClassSVM: {n_bad} of {n} row(s) contain "
                "NaN or inf"
            )
        if self.gamma is None:
            variance = rows.var()
            self._gamma = 1.0 / (rows.shape[1] * variance) if variance > 0 else 1.0
        else:
            self._gamma = self.gamma
        self._rows = rows

        upper = 1.0 / max(self.nu * n, 1.0)
        if upper * n < 1.0:
            # Box too tight to sum to one (tiny n); relax to feasibility.
            upper = 1.0 / n + 1e-12
        kernel = rbf_kernel(rows, rows, self._gamma)
        alpha = np.full(n, 1.0 / n)
        alpha = _project_box_simplex(alpha, upper)
        # Lipschitz constant of the gradient is the top kernel eigenvalue;
        # the trace upper-bounds it cheaply (diagonal of RBF is all ones).
        step = 1.0 / max(float(np.trace(kernel)) / n * n, 1.0)
        for _ in range(self.max_iter):
            gradient = kernel @ alpha
            updated = _project_box_simplex(alpha - step * gradient, upper)
            if np.abs(updated - alpha).max() < 1e-10:
                alpha = updated
                break
            alpha = updated
        self._alpha = alpha

        # At the exact optimum rho equals the score of any margin support
        # vector; with an approximate solver that estimate is biased, so we
        # calibrate rho to the nu-quantile of the training scores instead —
        # this preserves exactly the nu semantics (fraction of training
        # points rejected) that the consumers of this class rely on.
        scores = kernel @ alpha
        self._rho = float(np.quantile(scores, self.nu))
        return self

    def decision_function(self, rows: np.ndarray) -> np.ndarray:
        """Signed distance to the learned boundary (positive = inlier)."""
        if self._rows is None or self._alpha is None:
            raise NotFittedError("OneClassSVM used before fit")
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        kernel = rbf_kernel(rows, self._rows, self._gamma)
        return kernel @ self._alpha - self._rho

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """+1 for inliers, -1 for outliers."""
        return np.where(self.decision_function(rows) >= 0.0, 1, -1)
