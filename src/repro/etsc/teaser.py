"""TEASER — Two-tier Early and Accurate Series classifiER (Schafer & Leser,
2020).

TEASER truncates training series into ``S`` overlapping prefixes and trains
a WEASEL + logistic-regression pipeline per prefix (tier one). Tier two is
a One-Class SVM per prefix, trained only on the *correctly classified*
training instances' decision features — the class-probability vector
augmented with the margin between the two best classes. At test time a
prefix prediction counts only if its OC-SVM accepts the feature vector;
the final answer fires once the same label has been accepted for ``v``
consecutive prefixes. ``v`` is chosen during training by replaying the rule
on the training data over the grid ``{1, ..., 5}`` and keeping the value
with the best harmonic mean of accuracy and earliness.

If no acceptable prediction appears before the last prefix, the final
classifier's label is emitted without any filtering — the paper's forced
decision at full length.

Prediction walks the ladder one stream at a time
(:meth:`TEASER.open_stream`): each rung is evaluated once, when the
v-consistency streak first reaches it, and a serving stream keeps its
rungs between consults. Batch prediction feeds every test series through
a fresh stream, so the serving and batch paths share one rule.

Following Section 6.1, z-normalisation is disabled by default
(``normalize=False``) because full-series statistics are not available
online; pass ``True`` for the original behaviour (the ablation bench
compares the two).
"""

from __future__ import annotations

import bisect

import numpy as np

from ..core.base import ClassifierStream, EarlyClassifier
from ..core.prediction import EarlyPrediction
from ..data.dataset import TimeSeriesDataset
from ..exceptions import ConfigurationError
from ..stats.metrics import accuracy as accuracy_score
from ..stats.metrics import harmonic_mean
from ..stats.svm import OneClassSVM
from ..tsc.weasel import WEASEL
from ..transform.windows import prefix_lengths
from .common import validate_univariate

__all__ = ["TEASER"]


class TEASER(EarlyClassifier):
    """Two-tier WEASEL ladder with One-Class-SVM acceptance.

    Parameters
    ----------
    n_prefixes:
        Ladder size ``S`` (the paper uses 20 for UCR data, 10 for the
        Biological/Maritime datasets).
    consistency_grid:
        Candidate values for the consecutive-agreement parameter ``v``.
    nu:
        OC-SVM rejection budget per prefix.
    normalize:
        Apply per-series z-normalisation inside WEASEL (off by default).
    weasel_factory:
        Zero-argument callable building each tier-one pipeline.
    """

    supports_multivariate = False

    def __init__(
        self,
        n_prefixes: int = 20,
        consistency_grid: tuple[int, ...] = (1, 2, 3, 4, 5),
        nu: float = 0.1,
        normalize: bool = False,
        weasel_factory=None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_prefixes < 1:
            raise ConfigurationError("n_prefixes must be >= 1")
        if not consistency_grid or min(consistency_grid) < 1:
            raise ConfigurationError("consistency_grid must hold values >= 1")
        self.n_prefixes = n_prefixes
        self.consistency_grid = tuple(consistency_grid)
        self.nu = nu
        self.normalize = normalize
        self.weasel_factory = weasel_factory or (
            lambda: WEASEL(
                n_window_sizes=3, chi2_top_k=100, normalize=normalize
            )
        )
        self.seed = seed
        self._ladder: list[int] | None = None
        self._classifiers: list[WEASEL] | None = None
        self._filters: list[OneClassSVM | None] | None = None
        self.v_: int | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _decision_features(probabilities: np.ndarray) -> np.ndarray:
        """OC-SVM features: probability vector plus best-vs-second margin."""
        if probabilities.shape[1] == 1:
            margin = np.ones((probabilities.shape[0], 1))
        else:
            ordered = np.sort(probabilities, axis=1)
            margin = (ordered[:, -1] - ordered[:, -2])[:, None]
        return np.concatenate([probabilities, margin], axis=1)

    def _train(self, dataset: TimeSeriesDataset) -> None:
        validate_univariate(dataset)
        ladder = prefix_lengths(dataset.length, self.n_prefixes)
        self._ladder = ladder
        self._classifiers = []
        self._filters = []
        train_acceptance = np.zeros(
            (len(ladder), dataset.n_instances), dtype=bool
        )
        train_predictions = np.zeros(
            (len(ladder), dataset.n_instances), dtype=dataset.labels.dtype
        )
        for row, prefix in enumerate(ladder):
            classifier = self.weasel_factory()
            classifier.train(dataset.truncate(prefix))
            probabilities = classifier.predict_proba(dataset.truncate(prefix))
            predicted = classifier.classes_[probabilities.argmax(axis=1)]
            correct = predicted == dataset.labels
            features = self._decision_features(probabilities)
            if correct.sum() >= 2:
                oc_filter: OneClassSVM | None = OneClassSVM(nu=self.nu)
                oc_filter.fit(features[correct])
                accepted = oc_filter.predict(features) == 1
            else:
                oc_filter = None
                accepted = np.ones(dataset.n_instances, dtype=bool)
            self._classifiers.append(classifier)
            self._filters.append(oc_filter)
            train_predictions[row] = predicted
            train_acceptance[row] = accepted
        self.v_ = self._select_consistency(
            train_predictions, train_acceptance, dataset.labels, ladder,
            dataset.length,
        )

    def _select_consistency(
        self,
        predictions: np.ndarray,
        acceptance: np.ndarray,
        labels: np.ndarray,
        ladder: list[int],
        full_length: int,
    ) -> int:
        """Grid-search ``v`` by harmonic mean on the training replay."""
        ladder_array = np.asarray(ladder, dtype=float)
        best_score = -np.inf
        best_v = self.consistency_grid[0]
        for v in self.consistency_grid:
            final_labels, final_rows = self._replay(
                predictions, acceptance, v
            )
            acc = accuracy_score(labels, final_labels)
            earliness_value = float(
                (ladder_array[final_rows] / full_length).mean()
            )
            score = harmonic_mean(acc, earliness_value)
            if score > best_score:
                best_score = score
                best_v = v
        return best_v

    @staticmethod
    def _replay(
        predictions: np.ndarray, acceptance: np.ndarray, v: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply the v-consistency rule to precomputed ladder outputs."""
        n_rows, n = predictions.shape
        final_labels = predictions[-1].copy()
        final_rows = np.full(n, n_rows - 1)
        for instance in range(n):
            streak = _Streak(v)
            for row in range(n_rows):
                label = predictions[row, instance]
                if streak.fold(label, acceptance[row, instance]):
                    final_labels[instance] = label
                    final_rows[instance] = row
                    break
        return final_labels, final_rows

    # ------------------------------------------------------------------
    def _predict(self, dataset: TimeSeriesDataset) -> list[EarlyPrediction]:
        return [
            self.open_stream().consult(series) for series in dataset.values
        ]

    def open_stream(self) -> "_TEASERStream":
        return _TEASERStream(self)


class _Streak:
    """TEASER's v-consistency rule, folded one ladder rung at a time.

    The one place the rule lives: training's ``v`` search replays it over
    the training ladder, and every prediction stream folds it over the
    rungs its prefix reaches.
    """

    def __init__(self, v: int) -> None:
        self.v = v
        self.label = None
        self.count = 0

    def fold(self, label, accepted: bool) -> bool:
        """Fold one rung; ``True`` once ``v`` accepted rungs agree in a row."""
        if not accepted:
            self.label = None
            self.count = 0
            return False
        if label == self.label:
            self.count += 1
        else:
            self.label = label
            self.count = 1
        return self.count >= self.v


class _TEASERStream(ClassifierStream):
    """One stream's walk up the TEASER ladder.

    A rung's tier outputs depend only on the stream's first
    ``ladder[row]`` points, which never change once observed, so each
    rung's WEASEL probabilities are computed once, when the streak fold
    first reaches the rung. The last reachable rung is the forced
    decision: it needs only its probabilities, and its OC-SVM filter runs
    only if a longer prefix later folds it into the streak.
    """

    def __init__(self, classifier: TEASER) -> None:
        super().__init__(classifier)
        self._probabilities: list[np.ndarray] = []  # per computed rung
        self._streak = _Streak(classifier.v_)
        self._folded = 0  # rungs folded into the streak so far
        self._fired: tuple[np.ndarray, int] | None = None

    def consult(self, prefix: np.ndarray) -> EarlyPrediction:
        series = self._univariate(prefix)
        t = series.shape[1]
        model = self.classifier
        n_reachable = bisect.bisect_right(model._ladder, t)
        if n_reachable == 0:
            # Shorter than the first rung: the forced rung sees the whole
            # (still growing) prefix, so there is nothing stable to keep.
            return self._answer(self._rung_probabilities(series, 0), 0, t, t)
        while self._fired is None and self._folded < n_reachable - 1:
            row = self._folded
            probabilities = self._rung(series, row)
            oc_filter = model._filters[row]
            features = model._decision_features(probabilities)
            accepted = oc_filter is None or oc_filter.predict(features)[0] == 1
            if self._streak.fold(self._label(probabilities, row), accepted):
                self._fired = (probabilities, row)
            self._folded += 1
        if self._fired is not None:
            probabilities, row = self._fired
        else:
            row = n_reachable - 1
            probabilities = self._rung(series, row)
        return self._answer(probabilities, row, model._ladder[row], t)

    def _rung(self, series: np.ndarray, row: int) -> np.ndarray:
        """Rung ``row``'s probabilities, computed on first use."""
        if row == len(self._probabilities):
            prefix = self.classifier._ladder[row]
            self._probabilities.append(
                self._rung_probabilities(series[:, :prefix], row)
            )
        return self._probabilities[row]

    def _rung_probabilities(self, series: np.ndarray, row: int) -> np.ndarray:
        instance = TimeSeriesDataset(
            series[np.newaxis, :, :], np.zeros(1, dtype=int)
        )
        return self.classifier._classifiers[row].predict_proba(instance)

    def _label(self, probabilities: np.ndarray, row: int) -> int:
        classes = self.classifier._classifiers[row].classes_
        return int(classes[probabilities.argmax(axis=1)[0]])

    def _answer(
        self, probabilities: np.ndarray, row: int, prefix_length: int, t: int
    ) -> EarlyPrediction:
        return EarlyPrediction(
            label=self._label(probabilities, row),
            prefix_length=prefix_length,
            series_length=t,
            confidence=float(probabilities.max()),
        )
