"""Kernel backend contract and the cross-backend tolerance policy.

A :class:`KernelBackend` bundles one implementation of every *hot op* the
distance-based algorithms funnel through — sliding-window/shapelet
matching, incremental prefix-distance updates, pairwise squared
distances, and the Lloyd k-means step. Call sites reach the ops through
:func:`repro.stats.backends.get_backend`, which returns the ``numpy``
backend.

Every backend also *declares its numerical contract*: for each op, an
:class:`OpTolerance` describing how far its results may drift from the
pure-python ``naive`` reference. The conformance suite
(``tests/stats/test_backend_conformance.py``) and the performance bench
(``benchmarks/bench_perf.py``) both assert through this single policy,
so the definition of "equivalent" cannot drift between tests and
benchmarks. The policy distinguishes two classes of op:

* **Exact ops** (``OpTolerance.exact``): the vectorised code performs the
  same IEEE-754 operations in the same per-element order as the
  reference loop (the prefix cache's sequential accumulation), so
  results must be *bit-identical*.
* **Reordered-reduction ops**: the fast path sums in an
  implementation-defined order (SIMD-unrolled ``einsum``, BLAS GEMM for
  the k-means indicator product, the expanded ``|a|^2 - 2ab + |b|^2``
  pairwise form), so only tolerance-bounded agreement is possible. The
  bounds are tight and *scale-aware*: absolute error of the expanded
  pairwise form grows with the squared input magnitude, so its ``atol``
  is scaled by ``max|x|**2`` (``scale_power=2``) rather than silently
  loosened for everything.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OPS",
    "EXACT",
    "OpTolerance",
    "KernelBackend",
    "assert_conformant",
    "input_scale",
]

#: The hot ops every backend must implement (and declare a tolerance for).
OPS = (
    "sliding_window",
    "shapelet_match",
    "prefix_step",
    "kmeans_update",
    "pairwise_sqeuclidean",
)


@dataclass(frozen=True)
class OpTolerance:
    """Declared agreement bound of one op against the naive reference.

    ``rtol == atol == 0`` means *bit-identical* (NaNs included). Otherwise
    the effective absolute tolerance is
    ``atol * max(1, max|finite input|) ** scale_power`` — ``scale_power=1``
    for quantities linear in the inputs (distances, centroids),
    ``scale_power=2`` for squared quantities whose cancellation error
    grows with the squared magnitude (expanded-form pairwise distances).
    """

    rtol: float = 0.0
    atol: float = 0.0
    scale_power: int = 0
    note: str = ""

    @property
    def exact(self) -> bool:
        """Whether this op must agree bit-for-bit with the reference."""
        return self.rtol == 0.0 and self.atol == 0.0


#: Shared "bit-identical" tolerance (same per-element operation order).
EXACT = OpTolerance(note="same IEEE-754 operations in the same order")


def input_scale(inputs) -> float:
    """Largest finite input magnitude (>= 1), for scale-aware tolerances."""
    scale = 1.0
    for array in inputs:
        array = np.asarray(array, dtype=float)
        if array.size == 0:
            continue
        finite = array[np.isfinite(array)]
        if finite.size:
            scale = max(scale, float(np.abs(finite).max()))
    return scale


def assert_conformant(
    actual,
    reference,
    tolerance: OpTolerance,
    inputs=(),
    label: str = "",
) -> None:
    """Assert ``actual`` agrees with ``reference`` under ``tolerance``.

    Exact tolerances require bit-identical values (NaN positions
    included); bounded tolerances use ``allclose`` with the scale-aware
    absolute bound derived from ``inputs``. Both tests and benchmarks
    route equivalence checks through this single function so the policy
    cannot drift between them.
    """
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if tolerance.exact:
        np.testing.assert_array_equal(actual, reference, err_msg=label)
        return
    atol = tolerance.atol * input_scale(inputs) ** tolerance.scale_power
    np.testing.assert_allclose(
        actual,
        reference,
        rtol=tolerance.rtol,
        atol=atol,
        equal_nan=True,
        err_msg=label,
    )


class KernelBackend(ABC):
    """One implementation of the hot numerical kernels.

    Subclasses set ``name`` and ``tolerances`` (op name ->
    :class:`OpTolerance` vs the naive float64 reference, one entry per op
    in :data:`OPS`). All ops receive float64 inputs already validated by
    their callers in :mod:`repro.stats.distance` and
    :mod:`repro.stats.kmeans`.
    """

    name: str = ""
    tolerances: dict = {}

    # -- window matching ------------------------------------------------
    @abstractmethod
    def sliding_window(
        self, pattern: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        """Euclidean distance of ``pattern`` to every aligned window of
        every row: ``(N, L - w + 1)``."""

    def shapelet_match(
        self, pattern: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        """EDSC best-matching distance per row (min over windows)."""
        return self.sliding_window(pattern, matrix).min(axis=1)

    # -- prefix distances -----------------------------------------------
    @abstractmethod
    def prefix_step(
        self, sq_distances: np.ndarray, values: np.ndarray, column: np.ndarray
    ) -> None:
        """Advance running squared prefix distances by one time-point,
        in place.

        ``sq_distances`` is ``(Q, N)``; ``values`` is ``(Q,)`` univariate
        or ``(Q, V)`` multivariate; ``column`` is the references' values
        at the current time-point, ``(N,)`` or ``(N, V)``. Accumulation
        is per ``(query, reference)`` pair, variables in index order —
        the order the conformance policy pins as exact.
        """

    # -- clustering -----------------------------------------------------
    @abstractmethod
    def kmeans_update(
        self, rows: np.ndarray, centroids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One Lloyd step: ``(new_centroids, assignment)`` with empty
        clusters re-seeded at the point farthest from its centroid."""

    @abstractmethod
    def pairwise_sqeuclidean(
        self, rows: np.ndarray, others: np.ndarray
    ) -> np.ndarray:
        """All-pairs squared Euclidean distances between row vectors."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name!r}>"
