"""Agglomerative hierarchical clustering.

ECTS merges time-series bottom-up (single/complete/average linkage over
Euclidean distance on full-length series) and propagates Minimum Prediction
Lengths through the merge tree. This module provides the generic clustering:
it records the full merge history so callers can replay merges one at a time,
which is exactly what ECTS needs.

The distance matrix comes from
:func:`~repro.stats.distance.pairwise_squared_euclidean`, the
``pairwise_sqeuclidean`` kernel op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError
from .distance import pairwise_squared_euclidean

__all__ = ["Merge", "AgglomerativeClustering", "linkage_merge_order"]

_LINKAGES = ("single", "complete", "average")


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters ``left`` and ``right`` fuse into a
    new cluster ``merged`` at the given linkage ``distance``.

    Cluster ids follow scipy's convention: leaves are ``0..n-1`` and the
    ``i``-th merge creates id ``n + i``.
    """

    left: int
    right: int
    merged: int
    distance: float


def linkage_merge_order(
    rows: np.ndarray, linkage: str = "complete"
) -> list[Merge]:
    """Compute the agglomerative merge sequence for row vectors.

    Implements the Lance-Williams update for the three classic linkages on a
    dense distance matrix. A per-row nearest-neighbour cache
    (``nearest_dist[i]`` / ``nearest_slot[i]``) replaces the historical
    full-matrix argmin scan at every merge: only rows whose cached
    neighbour was touched by a merge are rescanned, taking the typical
    merge step from O(n^2) to O(n) (O(n^3) worst case remains, as the
    paper notes for ECTS itself). Tie-breaking reproduces the flat
    row-major argmin of the full-matrix scan exactly, so dendrograms are
    unchanged.
    """
    if linkage not in _LINKAGES:
        raise DataError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {rows.shape}")
    n = rows.shape[0]
    if n < 2:
        return []
    distances = np.sqrt(pairwise_squared_euclidean(rows))
    np.fill_diagonal(distances, np.inf)

    # Row-minimum cache. argmin picks the first (lowest-column) minimum
    # per row, and the global argmin over nearest_dist picks the first
    # (lowest) row — together identical to np.argmin over the flat matrix.
    nearest_dist = distances.min(axis=1)
    nearest_slot = distances.argmin(axis=1)

    active = {i: i for i in range(n)}  # slot -> current cluster id
    sizes = {i: 1 for i in range(n)}  # slot -> cluster size
    merges: list[Merge] = []
    next_id = n
    for _ in range(n - 1):
        slot_a = int(nearest_dist.argmin())
        slot_b = int(nearest_slot[slot_a])
        if slot_a > slot_b:
            slot_a, slot_b = slot_b, slot_a
        best = float(distances[slot_a, slot_b])
        merges.append(
            Merge(active[slot_a], active[slot_b], next_id, best)
        )
        # Lance-Williams: fold slot_b into slot_a, deactivate slot_b.
        size_a, size_b = sizes[slot_a], sizes[slot_b]
        row_a, row_b = distances[slot_a].copy(), distances[slot_b].copy()
        if linkage == "single":
            updated = np.minimum(row_a, row_b)
        elif linkage == "complete":
            updated = np.maximum(row_a, row_b)
        else:  # average
            updated = (size_a * row_a + size_b * row_b) / (size_a + size_b)
        distances[slot_a, :] = updated
        distances[:, slot_a] = updated
        distances[slot_a, slot_a] = np.inf
        distances[slot_b, :] = np.inf
        distances[:, slot_b] = np.inf
        active[slot_a] = next_id
        sizes[slot_a] = size_a + size_b
        del active[slot_b], sizes[slot_b]
        next_id += 1

        # Maintain the row-minimum cache.
        nearest_dist[slot_b] = np.inf  # deactivated row never wins again
        nearest_dist[slot_a] = distances[slot_a].min()
        nearest_slot[slot_a] = distances[slot_a].argmin()
        for slot in active:
            if slot == slot_a:
                continue
            cached = nearest_slot[slot]
            if cached == slot_a or cached == slot_b:
                # The cached neighbour's distance changed (or vanished):
                # rescan the row. Inactive columns hold inf, so the scan
                # matches what the full-matrix argmin would have seen.
                nearest_dist[slot] = distances[slot].min()
                nearest_slot[slot] = distances[slot].argmin()
            elif updated[slot] < nearest_dist[slot] or (
                updated[slot] == nearest_dist[slot] and slot_a < cached
            ):
                # Column slot_a improved on (or first-occurrence-ties)
                # the cached minimum.
                nearest_dist[slot] = updated[slot]
                nearest_slot[slot] = slot_a
    return merges


class AgglomerativeClustering:
    """Cut the agglomerative merge tree at a fixed number of clusters."""

    def __init__(self, n_clusters: int, linkage: str = "complete") -> None:
        if n_clusters < 1:
            raise DataError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.linkage = linkage
        self.labels_: np.ndarray | None = None
        self.merges_: list[Merge] | None = None

    def fit(self, rows: np.ndarray) -> "AgglomerativeClustering":
        """Cluster ``rows`` and store flat labels in ``labels_``."""
        rows = np.asarray(rows, dtype=float)
        n = rows.shape[0]
        if self.n_clusters > n:
            raise DataError(
                f"cannot form {self.n_clusters} clusters from {n} points"
            )
        self.merges_ = linkage_merge_order(rows, self.linkage)
        # Replay merges with union-find until n_clusters components remain.
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        leaf_of_cluster = {i: i for i in range(n)}
        components = n
        for merge in self.merges_:
            if components <= self.n_clusters:
                break
            root_left = find(leaf_of_cluster[merge.left])
            root_right = find(leaf_of_cluster[merge.right])
            parent[root_right] = root_left
            leaf_of_cluster[merge.merged] = root_left
            components -= 1
        roots = {find(i) for i in range(n)}
        relabel = {root: index for index, root in enumerate(sorted(roots))}
        self.labels_ = np.asarray([relabel[find(i)] for i in range(n)])
        return self

    def fit_predict(self, rows: np.ndarray) -> np.ndarray:
        """Fit on ``rows`` and return their flat cluster labels."""
        self.fit(rows)
        assert self.labels_ is not None
        return self.labels_
