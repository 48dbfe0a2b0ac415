"""The vectorised numpy kernel backend (the one every call site uses).

Stride-tricks window matching, incremental prefix accumulation, the
expanded-form pairwise distances and the indicator-GEMM Lloyd step, all
at float64, behind the :class:`~.base.KernelBackend` contract.

Tolerance policy vs the pure-python ``naive`` reference:

* ``prefix_step`` is **exact**: every prefix accumulation performs the
  same scalar operations in the same order as the reference loop, so
  results are bit-identical (NaN propagation included).
* ``sliding_window`` / ``shapelet_match`` reduce via ``einsum``, whose
  SIMD accumulation order is implementation-defined; sums of squares are
  perfectly conditioned, so agreement is bounded at ``rtol=1e-12``.
* ``pairwise_sqeuclidean`` uses the expanded ``|a|^2 - 2ab + |b|^2`` form
  (BLAS GEMM): cancellation error is *absolute* in the squared input
  magnitude, hence the quadratically scaled ``atol``.
* ``kmeans_update`` sums members through a GEMM; centroid agreement is
  bounded at ``rtol=1e-9`` with a linearly scaled ``atol``.
"""

from __future__ import annotations

import numpy as np

from .base import EXACT, KernelBackend, OpTolerance

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Vectorised float64 kernels — the production backend."""

    name = "numpy"
    tolerances = {
        "prefix_step": EXACT,
        "sliding_window": OpTolerance(
            rtol=1e-12, atol=1e-12, scale_power=1,
            note="einsum reduction order vs sequential sum of squares",
        ),
        "shapelet_match": OpTolerance(
            rtol=1e-12, atol=1e-12, scale_power=1,
            note="min over sliding_window values",
        ),
        "pairwise_sqeuclidean": OpTolerance(
            rtol=1e-9, atol=1e-12, scale_power=2,
            note="expanded |a|^2-2ab+|b|^2 form; cancellation error is "
            "absolute in the squared magnitude",
        ),
        "kmeans_update": OpTolerance(
            rtol=1e-9, atol=1e-12, scale_power=1,
            note="indicator-GEMM member sums vs per-cluster means",
        ),
    }

    # -- window matching ------------------------------------------------
    def sliding_window(self, pattern, matrix):
        windows = np.lib.stride_tricks.sliding_window_view(
            matrix, pattern.size, axis=1
        )  # (N, L - w + 1, w), a view — no copy
        differences = windows - pattern[None, None, :]
        return np.sqrt(np.einsum("nij,nij->ni", differences, differences))

    # -- prefix distances -----------------------------------------------
    def prefix_step(self, sq_distances, values, column):
        if values.ndim == 2:
            # Variables accumulate in index order, one vectorised add per
            # variable, so the per-(query, reference) accumulation matches
            # the reference loop exactly.
            for v in range(values.shape[1]):
                sq_distances += (
                    values[:, v, None] - column[None, :, v]
                ) ** 2
        else:
            sq_distances += (values[:, None] - column[None, :]) ** 2

    # -- clustering -----------------------------------------------------
    def pairwise_sqeuclidean(self, rows, others):
        row_norms = np.einsum("ij,ij->i", rows, rows)
        other_norms = np.einsum("ij,ij->i", others, others)
        distances = (
            row_norms[:, None] - 2.0 * rows @ others.T + other_norms[None, :]
        )
        return np.maximum(distances, 0.0)

    def kmeans_update(self, rows, centroids):
        distances = self.pairwise_sqeuclidean(rows, centroids)
        assignment = distances.argmin(axis=1)
        # Vectorised centroid update: a (k, n) membership indicator turns
        # the per-cluster sums into one matrix product instead of a
        # per-centroid Python loop.
        indicator = (
            assignment[None, :] == np.arange(len(centroids))[:, None]
        )
        counts = indicator.sum(axis=1)
        sums = indicator.astype(float) @ rows
        new_centroids = sums / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        if empty.any():
            # Re-seed empty clusters at the farthest point.
            new_centroids[empty] = rows[distances.min(axis=1).argmax()]
        return new_centroids, assignment
