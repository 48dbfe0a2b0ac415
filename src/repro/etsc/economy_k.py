"""ECONOMY-K — non-myopic cost-based early classification (Dachraoui et
al., 2015; Achenchabe et al., 2021).

ECONOMY-K frames earliness as explicit economics. Training:

1. cluster the full-length training series into ``k`` groups (k-means);
2. at each checkpoint prefix length ``t``, train a base classifier ``h_t``
   (gradient-boosted trees here, standing in for XGBoost) on the prefixes;
3. for every cluster and checkpoint, estimate the probability that ``h_t``
   errs on members of that cluster (out-of-sample via an internal holdout).

At test time, after observing a prefix of length ``t``, the decision
function estimates for every future checkpoint ``t + tau`` the expected
cost

    f_tau = misclassification_cost * sum_k P(k | x_{1:t}) * P(err | k, t+tau)
            + delay_cost * (t + tau)

where cluster memberships ``P(k | x)`` come from inverse distances to the
centroid prefixes. If the minimum over ``tau`` is at ``tau = 0`` the
classifier commits now; otherwise it waits for more data (forced commit at
the final checkpoint). The ``misclassification_cost``/``delay_cost`` pair
corresponds to the paper's Table 4 parameters ``lambda = 100`` and
``cost = 0.001``.
"""

from __future__ import annotations

import numpy as np

from ..core.base import EarlyClassifier
from ..core.prediction import EarlyPrediction
from ..data.dataset import TimeSeriesDataset
from ..data.splits import train_test_split
from ..exceptions import ConfigurationError, DataError
from ..stats.boosting import GradientBoostingClassifier
from ..stats.distance import PrefixDistanceCache
from ..stats.kmeans import KMeans
from ..transform.windows import prefix_lengths
from .common import validate_univariate

__all__ = ["EconomyK"]


class EconomyK(EarlyClassifier):
    """Cost-based non-myopic early classifier over k-means clusters.

    Parameters
    ----------
    n_clusters:
        Number of k-means groups ``k``; ``None`` grid-searches
        ``cluster_grid`` (the paper explores ``{1, 2, 3}``) by expected
        training cost.
    misclassification_cost:
        Cost of a wrong final label (paper's ``lambda = 100``).
    delay_cost:
        Cost per observed time-point (paper's ``cost = 0.001``).
    n_checkpoints:
        Number of decision checkpoints along the series (the original
        decides at every time-point; checkpoints bound the number of base
        classifiers trained).
    holdout_fraction:
        Internal split used to estimate per-cluster error rates
        out-of-sample.
    seed:
        Clustering / boosting / split seed.
    """

    supports_multivariate = False

    def __init__(
        self,
        n_clusters: int | None = None,
        cluster_grid: tuple[int, ...] = (1, 2, 3),
        misclassification_cost: float = 100.0,
        delay_cost: float = 0.001,
        n_checkpoints: int = 10,
        holdout_fraction: float = 0.3,
        n_estimators: int = 20,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if misclassification_cost <= 0:
            raise ConfigurationError("misclassification_cost must be positive")
        if delay_cost < 0:
            raise ConfigurationError("delay_cost must be >= 0")
        if n_checkpoints < 1:
            raise ConfigurationError("n_checkpoints must be >= 1")
        self.n_clusters = n_clusters
        self.cluster_grid = cluster_grid
        self.misclassification_cost = misclassification_cost
        self.delay_cost = delay_cost
        self.n_checkpoints = n_checkpoints
        self.holdout_fraction = holdout_fraction
        self.n_estimators = n_estimators
        self.seed = seed
        self._kmeans: KMeans | None = None
        self._checkpoints: list[int] | None = None
        self._classifiers: dict[int, GradientBoostingClassifier] | None = None
        self._error_rates: np.ndarray | None = None  # (n_checkpoints, k)
        # Answer for a prefix shorter than every trained checkpoint.
        self._majority_label: int | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _fit_for_k(
        self, dataset: TimeSeriesDataset, n_clusters: int
    ) -> tuple[KMeans, dict[int, GradientBoostingClassifier], np.ndarray, float]:
        """Fit clustering, per-checkpoint classifiers, and error table.

        Returns the fitted pieces plus the mean expected training cost used
        by the ``k`` grid search.
        """
        matrix = dataset.values[:, 0, :]
        n_clusters = min(n_clusters, dataset.n_instances)
        kmeans = KMeans(n_clusters=n_clusters, seed=self.seed)
        kmeans.fit(matrix)

        try:
            fit_part, holdout = train_test_split(
                dataset, self.holdout_fraction, seed=self.seed
            )
            if holdout.n_classes < dataset.n_classes:
                raise DataError("holdout lost a class")
        except DataError:
            fit_part, holdout = dataset, dataset

        checkpoints = self._checkpoints or prefix_lengths(
            dataset.length, self.n_checkpoints
        )
        classifiers: dict[int, GradientBoostingClassifier] = {}
        error_rates = np.zeros((len(checkpoints), n_clusters))
        holdout_matrix = holdout.values[:, 0, :]
        holdout_clusters = kmeans.predict(holdout_matrix)
        for index, checkpoint in enumerate(checkpoints):
            classifier = GradientBoostingClassifier(
                n_estimators=self.n_estimators, seed=self.seed
            )
            classifier.fit(
                fit_part.values[:, 0, :checkpoint], fit_part.labels
            )
            classifiers[checkpoint] = classifier
            predictions = classifier.predict(holdout_matrix[:, :checkpoint])
            wrong = predictions != holdout.labels
            for cluster in range(n_clusters):
                members = holdout_clusters == cluster
                if members.any():
                    error_rates[index, cluster] = wrong[members].mean()
                else:
                    error_rates[index, cluster] = 0.5  # uninformed prior
        # Expected cost if the decision rule is applied to the holdout.
        memberships = kmeans.membership_probabilities(holdout_matrix)
        expected_error = memberships @ error_rates.T  # (n_holdout, n_ckpt)
        costs = (
            self.misclassification_cost * expected_error
            + self.delay_cost * np.asarray(checkpoints)[None, :]
        )
        mean_cost = float(costs.min(axis=1).mean())
        return kmeans, classifiers, error_rates, mean_cost

    def _train(self, dataset: TimeSeriesDataset) -> None:
        validate_univariate(dataset)
        self._checkpoints = prefix_lengths(dataset.length, self.n_checkpoints)
        if self.n_clusters is not None:
            candidates = [self.n_clusters]
        else:
            candidates = [
                k for k in self.cluster_grid if k <= dataset.n_instances
            ] or [1]
        best: tuple | None = None
        for k in candidates:
            fitted = self._fit_for_k(dataset, k)
            if best is None or fitted[3] < best[3]:
                best = fitted
        assert best is not None
        self._kmeans, self._classifiers, self._error_rates, _ = best
        values, counts = np.unique(dataset.labels, return_counts=True)
        self._majority_label = int(values[counts.argmax()])

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _expected_costs(
        self,
        prefix: np.ndarray,
        checkpoint_index: int,
        squared_distances: np.ndarray | None = None,
    ) -> np.ndarray:
        """Expected cost of committing at each future checkpoint.

        Memberships are computed against the centroid prefixes of the same
        observed length; error estimates are looked up per future
        checkpoint. Index 0 of the result is "commit now".
        ``squared_distances`` short-circuits the centroid-prefix distance
        computation with values maintained incrementally by a
        :class:`PrefixDistanceCache` (the streaming walk in ``_predict``),
        avoiding the from-scratch ``O(k * t)`` recomputation per
        checkpoint.
        """
        assert self._kmeans is not None and self._kmeans.centroids_ is not None
        assert self._error_rates is not None and self._checkpoints is not None
        if squared_distances is None:
            t = len(prefix)
            centroid_prefixes = self._kmeans.centroids_[:, :t]
            squared_distances = (
                (centroid_prefixes - prefix[None, :]) ** 2
            ).sum(axis=1)
        distances = np.sqrt(squared_distances)
        weights = 1.0 / (distances + 1e-9)
        memberships = weights / weights.sum()
        future = np.arange(checkpoint_index, len(self._checkpoints))
        expected_error = self._error_rates[future] @ memberships
        future_lengths = np.asarray(self._checkpoints)[future]
        return (
            self.misclassification_cost * expected_error
            + self.delay_cost * future_lengths
        )

    def _predict(self, dataset: TimeSeriesDataset) -> list[EarlyPrediction]:
        assert self._classifiers is not None and self._checkpoints is not None
        test_matrix = dataset.values[:, 0, :]
        predictions: list[EarlyPrediction] = []
        reachable = [c for c in self._checkpoints if c <= dataset.length]
        if not reachable:
            reachable = [dataset.length]
        assert self._kmeans is not None and self._kmeans.centroids_ is not None
        centroids = self._kmeans.centroids_
        for row in test_matrix:
            decided: EarlyPrediction | None = None
            # One prefix-distance cache per row, advanced chunk-wise from
            # checkpoint to checkpoint instead of recomputing each
            # centroid-prefix distance from scratch.
            cache = PrefixDistanceCache(centroids)
            for index, checkpoint in enumerate(reachable):
                is_last = index == len(reachable) - 1
                squared = cache.advance_chunk(row[cache.length : checkpoint])
                costs = self._expected_costs(
                    row[:checkpoint], index, squared_distances=squared
                )
                if is_last or costs.argmin() == 0:
                    classifier = self._classifiers.get(checkpoint)
                    if classifier is None:
                        # Shorter than the first checkpoint (every other
                        # reachable length is one): a forced answer that
                        # reads nothing of the prefix.
                        assert self._majority_label is not None
                        label = self._majority_label
                    else:
                        label = int(
                            classifier.predict(row[None, :checkpoint])[0]
                        )
                    decided = EarlyPrediction(
                        label=label,
                        prefix_length=checkpoint,
                        series_length=len(row),
                    )
                    break
            assert decided is not None
            predictions.append(decided)
        return predictions
