"""ECTS — Early Classification on Time Series (Xing, Pei & Yu, 2012).

ECTS is 1-NN-based. For every training series and every prefix length it
tracks the series' Reverse Nearest Neighbours (RNN — who considers *me*
their nearest neighbour). The Minimum Prediction Length (MPL) of a series is
the earliest prefix from which its RNN set stays identical all the way to
the full length (and is non-empty): from that point on, the series is a
stable predictor for whatever matches it.

To make predictions earlier, ECTS additionally clusters the training series
agglomeratively (1-NN / single-linkage merge order). Every *label-pure*
cluster gets its own MPL from two conditions holding for all longer
prefixes: (a) RNN consistency — the set of series whose nearest neighbour
falls inside the cluster equals the full-length set and is non-empty; and
(b) 1-NN consistency — each member's nearest neighbour lies inside the
cluster. Members inherit the smallest MPL among their own and those of the
pure clusters containing them.

At test time, prefixes stream in; the incoming prefix is matched to its
nearest training series, and a prediction fires as soon as the observed
length reaches that neighbour's MPL (forced at full length). Each stream
keeps its own prefix distances (:meth:`ECTS.open_stream`), so a consult
only pays for the points observed since the last one; batch prediction
feeds every test series through a fresh stream, so the rule lives in one
place.

Pairwise prefix distances are maintained incrementally — the squared
distance at prefix ``l`` is the prefix-``l-1`` distance plus the
point-``l`` difference — so training costs ``O(N^2 L)`` plus the
``O(N^3)`` clustering, matching the complexity reported in Table 5.
"""

from __future__ import annotations

import numpy as np

from ..core.base import ClassifierStream, EarlyClassifier
from ..core.prediction import EarlyPrediction
from ..data.dataset import TimeSeriesDataset
from ..exceptions import ConfigurationError
from ..stats.distance import PrefixDistanceCache
from ..stats.hierarchical import linkage_merge_order
from .common import validate_univariate

__all__ = ["ECTS"]


class ECTS(EarlyClassifier):
    """Early Classification on Time Series via RNN-stable 1-NN prefixes.

    Parameters
    ----------
    support:
        Minimum RNN-set size for a series (or cluster) to qualify as a
        predictor; the paper's experiments use 0 (Table 4).
    linkage:
        Linkage of the agglomerative clustering phase; the original
        algorithm merges by 1-NN distance, i.e. ``"single"``.
    use_clustering:
        Disable to run "plain" ECTS on per-series MPLs only (useful for
        ablation; the clustering phase exists to lower MPLs).
    """

    supports_multivariate = False

    def __init__(
        self,
        support: int = 0,
        linkage: str = "single",
        use_clustering: bool = True,
    ) -> None:
        super().__init__()
        if support < 0:
            raise ConfigurationError(f"support must be >= 0, got {support}")
        self.support = support
        self.linkage = linkage
        self.use_clustering = use_clustering
        self._train_values: np.ndarray | None = None  # (N, L)
        self._train_labels: np.ndarray | None = None
        self._mpl: np.ndarray | None = None  # per training series

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @staticmethod
    def _prefix_nearest_neighbors(matrix: np.ndarray) -> np.ndarray:
        """Nearest-neighbour index per series per prefix, shape ``(L, N)``.

        A :class:`PrefixDistanceCache` with every training series as both
        query and reference advances the all-pairs squared prefix
        distances one time-point per step, so the full table costs one
        pass over the time axis.
        """
        n_series, length = matrix.shape
        cache = PrefixDistanceCache(matrix, n_queries=n_series)
        nearest = np.empty((length, n_series), dtype=int)
        for t in range(length):
            distances = cache.advance(matrix[:, t])
            masked = distances.copy()
            np.fill_diagonal(masked, np.inf)
            nearest[t] = masked.argmin(axis=1)
        return nearest

    @staticmethod
    def _rnn_sets(nearest_row: np.ndarray) -> list[frozenset[int]]:
        """RNN set per series from one prefix's NN assignments."""
        n_series = len(nearest_row)
        sets: list[set[int]] = [set() for _ in range(n_series)]
        for series, neighbor in enumerate(nearest_row):
            sets[neighbor].add(series)
        return [frozenset(s) for s in sets]

    def _series_mpls(self, nearest: np.ndarray) -> np.ndarray:
        """Per-series MPL from RNN stability (1-based prefix lengths)."""
        length, n_series = nearest.shape
        rnn_per_prefix = [self._rnn_sets(nearest[t]) for t in range(length)]
        final = rnn_per_prefix[-1]
        mpls = np.full(n_series, length, dtype=int)
        for series in range(n_series):
            if len(final[series]) <= self.support:
                continue  # never a qualified predictor before full length
            stable_from = length - 1
            for t in range(length - 2, -1, -1):
                if rnn_per_prefix[t][series] == final[series]:
                    stable_from = t
                else:
                    break
            mpls[series] = stable_from + 1  # prefix index -> prefix length
        return mpls

    def _cluster_mpls(
        self,
        matrix: np.ndarray,
        labels: np.ndarray,
        nearest: np.ndarray,
        mpls: np.ndarray,
    ) -> np.ndarray:
        """Lower per-series MPLs using label-pure agglomerative clusters."""
        length, n_series = nearest.shape
        merges = linkage_merge_order(matrix, self.linkage)
        members: dict[int, frozenset[int]] = {
            i: frozenset([i]) for i in range(n_series)
        }
        improved = mpls.copy()
        for merge in merges:
            cluster = members[merge.left] | members[merge.right]
            members[merge.merged] = cluster
            if len({int(labels[i]) for i in cluster}) != 1:
                continue  # only label-pure clusters act as predictors
            cluster_mpl = self._one_cluster_mpl(cluster, nearest, length)
            if cluster_mpl is None:
                continue
            for series in cluster:
                improved[series] = min(improved[series], cluster_mpl)
        return improved

    def _one_cluster_mpl(
        self, cluster: frozenset[int], nearest: np.ndarray, length: int
    ) -> int | None:
        """MPL of one cluster, or ``None`` if it never stabilises.

        Checks, from the full length backwards, RNN consistency (the set of
        series whose NN lies in the cluster equals the full-length set, and
        exceeds the support) and 1-NN consistency (members' NNs stay inside
        the cluster).
        """
        member_array = np.asarray(sorted(cluster))
        in_cluster = np.zeros(nearest.shape[1], dtype=bool)
        in_cluster[member_array] = True

        final_rnn = frozenset(np.flatnonzero(in_cluster[nearest[-1]]))
        if len(final_rnn) <= self.support:
            return None
        if not in_cluster[nearest[-1][member_array]].all():
            return None  # not even 1-NN consistent at full length
        stable_from = length - 1
        for t in range(length - 2, -1, -1):
            rnn = frozenset(np.flatnonzero(in_cluster[nearest[t]]))
            nn_consistent = in_cluster[nearest[t][member_array]].all()
            if rnn == final_rnn and nn_consistent:
                stable_from = t
            else:
                break
        return stable_from + 1

    def _train(self, dataset: TimeSeriesDataset) -> None:
        matrix = validate_univariate(dataset)
        self._train_values = matrix
        self._train_labels = dataset.labels.copy()
        nearest = self._prefix_nearest_neighbors(matrix)
        mpls = self._series_mpls(nearest)
        if self.use_clustering and dataset.n_instances >= 2:
            mpls = self._cluster_mpls(matrix, dataset.labels, nearest, mpls)
        self._mpl = mpls

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _predict(self, dataset: TimeSeriesDataset) -> list[EarlyPrediction]:
        return [
            self.open_stream().consult(series) for series in dataset.values
        ]

    def open_stream(self) -> "_ECTSStream":
        return _ECTSStream(self)


class _ECTSStream(ClassifierStream):
    """Incremental prefix distances of one stream to the training series.

    Each consult advances the stream's :class:`PrefixDistanceCache` over
    the newly observed points only (``O(N)`` each) and fires the MPL rule
    at the first qualifying prefix; until it fires, the answer is the
    nearest neighbour's label forced at the observed length.
    """

    def __init__(self, classifier: ECTS) -> None:
        super().__init__(classifier)
        self._cache = PrefixDistanceCache(classifier._train_values)
        self._fired: tuple[int, int] | None = None

    def consult(self, prefix: np.ndarray) -> EarlyPrediction:
        row = self._univariate(prefix)[0]
        t = row.size
        if self._fired is None:
            self._fired = self._scan(row[self._cache.length : t])
        if self._fired is not None:
            label, prefix_length = self._fired
        else:
            neighbor = int(self._cache.squared_distances[0].argmin())
            label = int(self.classifier._train_labels[neighbor])
            prefix_length = t
        return EarlyPrediction(
            label=label, prefix_length=prefix_length, series_length=t
        )

    def _scan(self, new_points: np.ndarray) -> tuple[int, int] | None:
        """Advance over ``new_points``, firing the MPL rule on each.

        Returns ``(label, prefix_length)`` at the first qualifying prefix,
        or ``None`` if the rule never fires over ``new_points``.
        """
        model, cache = self.classifier, self._cache
        for value in new_points:
            neighbor = int(cache.advance(value).argmin())
            if cache.length >= model._mpl[neighbor]:
                return int(model._train_labels[neighbor]), cache.length
        return None
