"""Distance functions shared by the distance-based algorithms.

ECTS matches prefixes by Euclidean distance; EDSC aligns shapelets against
every subseries of a candidate series and takes the minimum distance. Both
primitives live here as validating wrappers around the heavy kernels —
pairwise distances, window matching, incremental prefix accumulation —
which are ops of the ``numpy`` kernel backend (see
:mod:`repro.stats.backends`), so the algorithm modules stay readable and
every kernel stays conformance-tested against the ``naive`` reference.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DataError
from .backends import get_backend

__all__ = [
    "euclidean",
    "squared_euclidean",
    "pairwise_squared_euclidean",
    "min_subseries_distance",
    "best_match_distances",
    "sliding_window_view",
    "sliding_window_distances",
    "PrefixDistanceCache",
]


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DataError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def squared_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance (cheaper when only ordering matters)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DataError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum((a - b) ** 2))


def pairwise_squared_euclidean(
    rows: np.ndarray, others: np.ndarray | None = None
) -> np.ndarray:
    """All-pairs squared Euclidean distances between row vectors.

    Returns an ``(n, m)`` matrix for ``rows`` of shape ``(n, d)`` and
    ``others`` of shape ``(m, d)`` (``others`` defaults to ``rows``).
    The kernel uses the expanded ``|a|^2 - 2ab + |b|^2`` form and clips
    tiny negative values caused by floating-point cancellation.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DataError(f"rows must be 2-D, got shape {rows.shape}")
    others = rows if others is None else np.asarray(others, dtype=float)
    if others.ndim != 2 or others.shape[1] != rows.shape[1]:
        raise DataError(
            f"others must be 2-D with {rows.shape[1]} columns, "
            f"got shape {others.shape}"
        )
    return get_backend().pairwise_sqeuclidean(rows, others)


def sliding_window_view(series: np.ndarray, window: int) -> np.ndarray:
    """Return the ``(L - window + 1, window)`` matrix of all subseries."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise DataError(f"series must be 1-D, got shape {series.shape}")
    if not 1 <= window <= series.size:
        raise DataError(
            f"window must be in [1, {series.size}], got {window}"
        )
    return np.lib.stride_tricks.sliding_window_view(series, window)


def _validate_pattern_matrix(
    pattern: np.ndarray, matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    pattern = np.asarray(pattern, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    if pattern.ndim != 1:
        raise DataError(f"pattern must be 1-D, got shape {pattern.shape}")
    if matrix.ndim != 2:
        raise DataError(f"matrix must be 2-D, got shape {matrix.shape}")
    if not 1 <= pattern.size <= matrix.shape[1]:
        raise DataError(
            f"pattern width must be in [1, {matrix.shape[1]}], "
            f"got {pattern.size}"
        )
    return pattern, matrix


def sliding_window_distances(
    pattern: np.ndarray, matrix: np.ndarray
) -> np.ndarray:
    """Euclidean distance from ``pattern`` to every aligned window of
    every row.

    For ``matrix`` of shape ``(N, L)`` and a pattern of width ``w``,
    returns the ``(N, L - w + 1)`` matrix of alignment distances — the
    whole EDSC matching table at once instead of a per-row Python loop.
    """
    pattern, matrix = _validate_pattern_matrix(pattern, matrix)
    return get_backend().sliding_window(pattern, matrix)


def best_match_distances(
    pattern: np.ndarray, matrix: np.ndarray
) -> np.ndarray:
    """EDSC best-matching distance from ``pattern`` to every row.

    The minimum over the row's :func:`sliding_window_distances` — one
    value per row, ``(N,)`` — the ``shapelet_match`` kernel op.
    """
    pattern, matrix = _validate_pattern_matrix(pattern, matrix)
    return get_backend().shapelet_match(pattern, matrix)


def min_subseries_distance(series: np.ndarray, pattern: np.ndarray) -> float:
    """Minimum Euclidean distance from ``pattern`` to any aligned subseries.

    This is EDSC's "best matching distance": the pattern slides across the
    series and the smallest alignment distance is returned. The series must
    be at least as long as the pattern.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise DataError(f"series must be 1-D, got shape {series.shape}")
    return float(best_match_distances(pattern, series[None, :])[0])


class PrefixDistanceCache:
    """Incrementally maintained squared prefix distances to reference series.

    The distance-based algorithms (ECTS, the prefix-1-NN serving fallback,
    ECONOMY-K's per-checkpoint memberships) all need, at every truncation
    length ``t``, the squared Euclidean distance between a growing query
    prefix and the same-length prefixes of ``N`` reference series.
    Recomputing from scratch costs ``O(N * t)`` per consultation —
    ``O(N * L^2)`` over a stream. This cache advances the running sums one
    time-point at a time for ``O(N)`` per step, and its arithmetic
    (sequential accumulation of ``(q_t - r_t)^2``) matches the incremental
    loops the algorithms historically used, so results are bit-identical.

    Parameters
    ----------
    references:
        ``(N, L)`` univariate or ``(N, V, L)`` multivariate reference
        series.
    n_queries:
        Number of query streams advanced in lockstep (ECTS training
        advances all ``N`` training series against each other at once).
    backend:
        Name of the kernel backend for the accumulation step (``None``:
        the default ``numpy``). Tests pass ``"naive"`` to run the cache
        on the reference kernels.

    ``advance`` consumes the queries' values at the next time-point and
    returns the updated ``(n_queries, N)`` squared-distance matrix —
    ``(N,)`` for the default single query. NaNs propagate: once a NaN
    enters a running sum it stays NaN, matching ``squared_euclidean`` on a
    NaN-padded prefix.
    """

    def __init__(
        self,
        references: np.ndarray,
        n_queries: int = 1,
        backend: str | None = None,
    ) -> None:
        references = np.asarray(references, dtype=float)
        if references.ndim not in (2, 3):
            raise DataError(
                f"references must be (N, L) or (N, V, L), "
                f"got shape {references.shape}"
            )
        if n_queries < 1:
            raise DataError(f"n_queries must be >= 1, got {n_queries}")
        self._backend = get_backend(backend)
        self._references = references
        self._multivariate = references.ndim == 3
        self._n_queries = n_queries
        self._sq_distances = np.zeros((n_queries, references.shape[0]))
        self._t = 0

    @property
    def length(self) -> int:
        """Number of time-points consumed so far."""
        return self._t

    @property
    def n_references(self) -> int:
        return self._references.shape[0]

    @property
    def max_length(self) -> int:
        """Reference series length — the furthest the cache can advance."""
        return self._references.shape[-1]

    @property
    def squared_distances(self) -> np.ndarray:
        """Current ``(n_queries, N)`` squared prefix distances (a view)."""
        return self._sq_distances

    def reset(self) -> None:
        """Rewind to length 0 (e.g. when a new stream starts)."""
        self._sq_distances = np.zeros_like(self._sq_distances)
        self._t = 0

    def advance(self, values: np.ndarray | float) -> np.ndarray:
        """Consume the queries' values at time ``self.length``.

        ``values`` is a scalar (single univariate query), ``(n_queries,)``
        (univariate queries), ``(V,)`` (single multivariate query), or
        ``(n_queries, V)``. Returns the updated squared distances,
        ``(N,)`` when ``n_queries == 1`` else ``(n_queries, N)``.
        """
        if self._t >= self.max_length:
            raise DataError(
                f"cache already consumed all {self.max_length} time-points"
            )
        values = np.asarray(values, dtype=float)
        if self._multivariate:
            column = self._references[:, :, self._t]  # (N, V)
            values = values.reshape(self._n_queries, -1)
            if values.shape[1] != self._references.shape[1]:
                raise DataError(
                    f"expected {self._references.shape[1]} variables, "
                    f"got {values.shape[1]}"
                )
        else:
            column = self._references[:, self._t]  # (N,)
            values = values.reshape(self._n_queries)
        self._backend.prefix_step(self._sq_distances, values, column)
        self._t += 1
        if self._n_queries == 1:
            return self._sq_distances[0]
        return self._sq_distances

    def advance_chunk(self, chunk: np.ndarray) -> np.ndarray:
        """Consume several time-points at once.

        For the default single-query cache ``chunk`` is ``(k,)``
        univariate or ``(V, k)`` multivariate — the newly observed
        points of the stream, in time order. Multi-query caches (the
        all-pairs mode the serving fleet batches simultaneous consults
        through) take ``(n_queries, k)`` univariate or
        ``(n_queries, V, k)`` multivariate chunks: every query stream
        advances through the same ``k`` time-steps in lockstep. A
        single-query cache also accepts the explicit multi-query form
        with a leading 1 axis, so batched callers can pass
        ``(n_queries, ...)`` uniformly down to ``n_queries == 1``.

        Points are accumulated sequentially, one time-step at a time, so
        the result is bit-identical to ``k`` ``advance`` calls — and a
        multi-query batch is bit-identical to advancing each query
        through its own single-query cache (the accumulation order per
        ``(query, reference)`` pair is the same either way).
        """
        chunk = np.asarray(chunk, dtype=float)
        if self._n_queries == 1:
            if self._multivariate:
                chunk = np.atleast_2d(chunk)
                if chunk.ndim == 3:
                    # Explicit multi-query form (1, V, k) for one query —
                    # what batched callers pass uniformly for any k.
                    if chunk.shape[0] != 1:
                        raise DataError(
                            f"single-query chunk must have shape (V, k) or "
                            f"(1, V, k), got {chunk.shape}"
                        )
                    chunk = chunk[0]
                steps = chunk.shape[1]
                for step in range(steps):
                    result = self.advance(chunk[:, step])
            else:
                chunk = np.atleast_1d(chunk)
                if chunk.ndim == 2:
                    if chunk.shape[0] != 1:
                        raise DataError(
                            f"single-query chunk must have shape (k,) or "
                            f"(1, k), got {chunk.shape}"
                        )
                    chunk = chunk[0]
                steps = chunk.shape[0]
                for step in range(steps):
                    result = self.advance(chunk[step])
        else:
            expected_ndim = 3 if self._multivariate else 2
            if chunk.ndim != expected_ndim or chunk.shape[0] != self._n_queries:
                raise DataError(
                    f"multi-query chunk must have shape "
                    f"({self._n_queries}, {'V, ' if self._multivariate else ''}"
                    f"k), got {chunk.shape}"
                )
            steps = chunk.shape[-1]
            for step in range(steps):
                result = self.advance(chunk[..., step])
        if steps == 0:
            result = (
                self._sq_distances[0]
                if self._n_queries == 1
                else self._sq_distances
            )
        return result
