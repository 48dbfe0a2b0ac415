"""Lloyd's k-means with k-means++ initialisation.

ECONOMY-K clusters the full-length training series into ``k`` groups and
then reasons about per-cluster classifier reliability; this module provides
that clustering substrate, plus soft membership probabilities derived from
distances (the paper's "cluster membership probability").

The hot inner step — assignment distances plus the centroid update —
is the ``numpy`` kernel backend's ``kmeans_update`` op (see
:mod:`repro.stats.backends`); convergence and restart logic stay here.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConvergenceError, DataError, NotFittedError
from .backends import get_backend
from .distance import pairwise_squared_euclidean

__all__ = ["KMeans"]


class KMeans:
    """k-means clustering of row vectors.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    n_init:
        Independent k-means++ restarts; the run with the lowest inertia wins.
    max_iter:
        Lloyd iterations per restart.
    tol:
        Relative centroid-movement threshold for early convergence.
    seed:
        Seed for the internal random generator.
    """

    def __init__(
        self,
        n_clusters: int,
        n_init: int = 4,
        max_iter: int = 100,
        tol: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise DataError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.centroids_: np.ndarray | None = None
        self.inertia_: float | None = None

    # ------------------------------------------------------------------
    def _init_centroids(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding: spread initial centroids by squared distance."""
        n = rows.shape[0]
        centroids = np.empty((self.n_clusters, rows.shape[1]))
        centroids[0] = rows[rng.integers(n)]
        closest = pairwise_squared_euclidean(rows, centroids[:1]).ravel()
        for i in range(1, self.n_clusters):
            total = closest.sum()
            if total <= 0:
                # All points coincide with chosen centroids; pick uniformly.
                centroids[i] = rows[rng.integers(n)]
            else:
                probabilities = closest / total
                centroids[i] = rows[rng.choice(n, p=probabilities)]
            distances = pairwise_squared_euclidean(
                rows, centroids[i : i + 1]
            ).ravel()
            closest = np.minimum(closest, distances)
        return centroids

    def _lloyd(
        self, rows: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        centroids = self._init_centroids(rows, rng)
        backend = get_backend()
        for _ in range(self.max_iter):
            new_centroids, _ = backend.kmeans_update(rows, centroids)
            movement = np.sqrt(((new_centroids - centroids) ** 2).sum())
            centroids = new_centroids
            if movement <= self.tol * max(1.0, np.abs(centroids).max()):
                break
        distances = pairwise_squared_euclidean(rows, centroids)
        inertia = float(distances.min(axis=1).sum())
        return centroids, inertia

    # ------------------------------------------------------------------
    def fit(self, rows: np.ndarray) -> "KMeans":
        """Cluster the rows, keeping the best of ``n_init`` restarts."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise DataError(f"expected a 2-D matrix, got shape {rows.shape}")
        if rows.shape[0] < self.n_clusters:
            raise ConvergenceError(
                f"cannot form {self.n_clusters} clusters from "
                f"{rows.shape[0]} points"
            )
        rng = np.random.default_rng(self.seed)
        best: tuple[np.ndarray, float] | None = None
        for _ in range(self.n_init):
            centroids, inertia = self._lloyd(rows, rng)
            if best is None or inertia < best[1]:
                best = (centroids, inertia)
        assert best is not None
        self.centroids_, self.inertia_ = best
        return self

    def _require_fitted(self) -> np.ndarray:
        if self.centroids_ is None:
            raise NotFittedError("KMeans used before fit")
        return self.centroids_

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Hard cluster assignment for each row."""
        centroids = self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return pairwise_squared_euclidean(rows, centroids).argmin(axis=1)

    def membership_probabilities(self, rows: np.ndarray) -> np.ndarray:
        """Soft membership per cluster from inverse-distance weighting.

        Row ``i`` gets probability proportional to ``1 / (d_ik + eps)`` over
        clusters ``k`` — the membership notion ECONOMY-K uses to weight
        per-cluster expected costs.
        """
        centroids = self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        distances = np.sqrt(pairwise_squared_euclidean(rows, centroids))
        weights = 1.0 / (distances + 1e-9)
        return weights / weights.sum(axis=1, keepdims=True)

    def fit_predict(self, rows: np.ndarray) -> np.ndarray:
        """Fit on ``rows`` and return their hard assignments."""
        return self.fit(rows).predict(rows)
