"""The pure-python reference backend.

Extracted from the in-file baselines of ``benchmarks/bench_perf.py``:
scalar loops with no vectorised reductions, so every accumulation order
is explicit and auditable. This backend *is* the conformance reference —
the ``numpy`` backend's :class:`~.base.OpTolerance` is declared against
it — which is why correctness here is prioritised over speed (orders of
magnitude slower than ``numpy``; only tests call it).

NaN semantics deliberately mirror numpy's so exact-op comparisons hold on
the NaN corpus: ``min``/``minimum`` propagate NaN, and ``argmin``/
``argmax`` stick to the first NaN encountered (numpy treats NaN as the
extreme value in arg-reductions).
"""

from __future__ import annotations

import math

import numpy as np

from .base import EXACT, OPS, KernelBackend

__all__ = ["NaiveBackend"]


def _fmin(a: float, b: float) -> float:
    """``np.minimum`` semantics: NaN in, NaN out."""
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return a if a < b else b


def _argmin_numpy(values) -> int:
    """First strict minimum, with numpy's first-NaN-wins arg-reduction."""
    best, index = values[0], 0
    for j in range(1, len(values)):
        value = values[j]
        if not math.isnan(best) and (math.isnan(value) or value < best):
            best, index = value, j
    return index


def _argmax_numpy(values) -> int:
    """First strict maximum, with numpy's first-NaN-wins arg-reduction."""
    best, index = values[0], 0
    for j in range(1, len(values)):
        value = values[j]
        if not math.isnan(best) and (math.isnan(value) or value > best):
            best, index = value, j
    return index


class NaiveBackend(KernelBackend):
    """Scalar pure-python kernels — the conformance reference."""

    name = "naive"
    tolerances = {op: EXACT for op in OPS}

    # -- window matching ------------------------------------------------
    def sliding_window(self, pattern, matrix):
        pattern = [float(x) for x in np.asarray(pattern, dtype=float)]
        matrix = np.asarray(matrix, dtype=float)
        width = len(pattern)
        n_offsets = matrix.shape[1] - width + 1
        out = np.empty((matrix.shape[0], n_offsets))
        for i in range(matrix.shape[0]):
            row = [float(x) for x in matrix[i]]
            for s in range(n_offsets):
                total = 0.0
                for k in range(width):
                    difference = row[s + k] - pattern[k]
                    total += difference * difference
                out[i, s] = math.sqrt(total)
        return out

    def shapelet_match(self, pattern, matrix):
        table = self.sliding_window(pattern, matrix)
        out = np.empty(table.shape[0])
        for i in range(table.shape[0]):
            best = float(table[i, 0])
            for s in range(1, table.shape[1]):
                best = _fmin(best, float(table[i, s]))
            out[i] = best
        return out

    # -- prefix distances -----------------------------------------------
    def prefix_step(self, sq_distances, values, column):
        n_queries, n_references = sq_distances.shape
        if values.ndim == 2:
            n_variables = values.shape[1]
            for q in range(n_queries):
                for n in range(n_references):
                    accumulator = float(sq_distances[q, n])
                    for v in range(n_variables):
                        difference = float(values[q, v]) - float(column[n, v])
                        accumulator += difference * difference
                    sq_distances[q, n] = accumulator
        else:
            for q in range(n_queries):
                value = float(values[q])
                for n in range(n_references):
                    difference = value - float(column[n])
                    sq_distances[q, n] = (
                        float(sq_distances[q, n]) + difference * difference
                    )

    # -- clustering -----------------------------------------------------
    def pairwise_sqeuclidean(self, rows, others):
        rows = np.asarray(rows, dtype=float)
        others = np.asarray(others, dtype=float)
        out = np.empty((rows.shape[0], others.shape[0]))
        row_lists = rows.tolist()
        other_lists = others.tolist()
        for i, row in enumerate(row_lists):
            for j, other in enumerate(other_lists):
                total = 0.0
                for a, b in zip(row, other):
                    difference = a - b
                    total += difference * difference
                out[i, j] = total
        return out

    def kmeans_update(self, rows, centroids):
        rows = np.asarray(rows, dtype=float)
        centroids = np.asarray(centroids, dtype=float)
        n_rows, n_features = rows.shape
        k = centroids.shape[0]
        distances = self.pairwise_sqeuclidean(rows, centroids)
        distance_lists = distances.tolist()
        assignment = np.empty(n_rows, dtype=np.intp)
        nearest = [0.0] * n_rows
        for i in range(n_rows):
            index = _argmin_numpy(distance_lists[i])
            assignment[i] = index
            nearest[i] = min(
                distance_lists[i]
            ) if not any(map(math.isnan, distance_lists[i])) else math.nan
        sums = [[0.0] * n_features for _ in range(k)]
        counts = [0] * k
        row_lists = rows.tolist()
        for i in range(n_rows):  # members accumulate in row order
            cluster = int(assignment[i])
            counts[cluster] += 1
            target = sums[cluster]
            row = row_lists[i]
            for f in range(n_features):
                target[f] += row[f]
        new_centroids = np.empty((k, n_features))
        farthest = _argmax_numpy(nearest)
        for cluster in range(k):
            if counts[cluster]:
                for f in range(n_features):
                    new_centroids[cluster, f] = (
                        sums[cluster][f] / counts[cluster]
                    )
            else:
                # Re-seed empty clusters at the farthest point.
                new_centroids[cluster] = rows[farthest]
        return new_centroids, assignment
