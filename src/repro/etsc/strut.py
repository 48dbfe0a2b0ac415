"""STRUT — Selective Truncation of Time-Series (the paper's Section 4).

STRUT is a baseline that turns any full time-series classifier into an
early classifier. Training series are iteratively truncated to prefixes of
increasing length; at each candidate length a fresh copy of the underlying
classifier is trained on the truncated training split and scored on an
equally truncated validation split. The length with the best user-chosen
metric (accuracy, F1, or the harmonic mean of accuracy and earliness)
becomes the single commitment point: at test time STRUT always waits for
exactly that many time-points and predicts with a classifier retrained on
all training data at that length.

Two search strategies are provided:

* ``"grid"`` — evaluate a fixed set of length fractions (the paper fixes
  S-MLSTM to ``{0.05, 0.2, 0.4, 0.6, 0.8, 1}`` to bound its training cost);
* ``"binary"`` — the paper's faster approximation: evaluate the full
  length once, then binary-search the smallest prefix whose score is within
  ``tolerance`` of it, skipping a substantial number of iterations.

The :func:`s_mini`, :func:`s_weasel`, and :func:`s_mlstm` factories build
the three variants evaluated in the paper (S-MINI, S-WEASEL, S-MLSTM).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.base import EarlyClassifier, FullTSClassifier
from ..core.prediction import EarlyPrediction
from ..data.dataset import TimeSeriesDataset
from ..data.splits import train_test_split
from ..exceptions import ConfigurationError, DataError
from ..stats.metrics import accuracy as accuracy_score
from ..stats.metrics import f1_score, harmonic_mean
from ..tsc.minirocket import MiniROCKET
from ..tsc.mlstm_fcn import MLSTMFCN
from ..tsc.weasel import WEASEL

__all__ = ["STRUT", "s_mini", "s_weasel", "s_mlstm"]

_METRICS = ("accuracy", "f1", "harmonic-mean")
_DEFAULT_FRACTIONS = (0.05, 0.2, 0.4, 0.6, 0.8, 1.0)


class STRUT(EarlyClassifier):
    """Selective truncation wrapper over a full time-series classifier.

    Parameters
    ----------
    classifier_factory:
        Zero-argument callable returning an unfitted
        :class:`~repro.core.base.FullTSClassifier`.
    metric:
        Score optimised over truncation lengths: ``"accuracy"``, ``"f1"``,
        or ``"harmonic-mean"`` (which also rewards shorter prefixes).
    search:
        ``"grid"`` or ``"binary"`` (see module docstring).
    grid_fractions:
        Length fractions evaluated under grid search.
    tolerance:
        Allowed score drop (relative to the full-length score) under binary
        search.
    validation_fraction:
        Stratified share of training data held out for scoring lengths.
    seed:
        Split seed.
    """

    supports_multivariate = True

    def __init__(
        self,
        classifier_factory: Callable[[], FullTSClassifier],
        metric: str = "harmonic-mean",
        search: str = "grid",
        grid_fractions: tuple[float, ...] = _DEFAULT_FRACTIONS,
        tolerance: float = 0.05,
        validation_fraction: float = 0.3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if metric not in _METRICS:
            raise ConfigurationError(
                f"metric must be one of {_METRICS}, got {metric!r}"
            )
        if search not in ("grid", "binary"):
            raise ConfigurationError(
                f"search must be 'grid' or 'binary', got {search!r}"
            )
        if not grid_fractions or min(grid_fractions) <= 0 or max(
            grid_fractions
        ) > 1:
            raise ConfigurationError(
                "grid_fractions must be fractions in (0, 1]"
            )
        self.classifier_factory = classifier_factory
        self.metric = metric
        self.search = search
        self.grid_fractions = tuple(sorted(set(grid_fractions)))
        self.tolerance = tolerance
        self.validation_fraction = validation_fraction
        self.seed = seed
        self.best_length_: int | None = None
        self._model: FullTSClassifier | None = None
        self.evaluations_: list[tuple[int, float]] = []

    # ------------------------------------------------------------------
    def _score(
        self,
        fit_part: TimeSeriesDataset,
        validation: TimeSeriesDataset,
        prefix: int,
        predictive_only: bool = False,
    ) -> float:
        """Train at ``prefix`` and score on the truncated validation split.

        ``predictive_only`` drops the earliness reward of the
        harmonic-mean metric — used by binary search, whose target is the
        *predictive* quality of the full series (the harmonic mean at full
        length is zero by construction, so it cannot serve as a target).
        """
        model = self.classifier_factory()
        model.train(fit_part.truncate(prefix))
        predictions = model.predict(validation.truncate(prefix))
        if self.metric == "f1":
            score = f1_score(validation.labels, predictions)
        elif self.metric == "accuracy" or predictive_only:
            score = accuracy_score(validation.labels, predictions)
        else:
            score = harmonic_mean(
                accuracy_score(validation.labels, predictions),
                prefix / fit_part.length,
            )
        self.evaluations_.append((prefix, float(score)))
        return float(score)

    def _candidate_lengths(self, length: int) -> list[int]:
        candidates = sorted(
            {
                max(2, min(length, int(round(fraction * length))))
                for fraction in self.grid_fractions
            }
        )
        return [c for c in candidates if c <= length] or [length]

    def _grid_search(
        self, fit_part: TimeSeriesDataset, validation: TimeSeriesDataset
    ) -> int:
        best_score = -np.inf
        best_length = fit_part.length
        for prefix in self._candidate_lengths(fit_part.length):
            score = self._score(fit_part, validation, prefix)
            # Strict improvement keeps the earliest length on ties.
            if score > best_score:
                best_score = score
                best_length = prefix
        return best_length

    def _binary_search(
        self, fit_part: TimeSeriesDataset, validation: TimeSeriesDataset
    ) -> int:
        """Smallest prefix scoring within ``tolerance`` of the full length.

        Assumes score is roughly non-decreasing in the prefix length, which
        holds in aggregate; any local violation only costs optimality, not
        correctness.
        """
        length = fit_part.length
        target = (
            self._score(fit_part, validation, length, predictive_only=True)
            - self.tolerance
        )
        low, high = 2, length
        while low < high:
            middle = (low + high) // 2
            score = self._score(
                fit_part, validation, middle, predictive_only=True
            )
            if score >= target:
                high = middle
            else:
                low = middle + 1
        return high

    def _train(self, dataset: TimeSeriesDataset) -> None:
        self.evaluations_ = []
        try:
            fit_part, validation = train_test_split(
                dataset, self.validation_fraction, seed=self.seed
            )
            if validation.n_classes < 2 or fit_part.n_classes < 2:
                raise DataError("split lost a class")
        except DataError:
            fit_part, validation = dataset, dataset
        if self.search == "grid":
            best = self._grid_search(fit_part, validation)
        else:
            best = self._binary_search(fit_part, validation)
        self.best_length_ = best
        self._model = self.classifier_factory()
        self._model.train(dataset.truncate(best))

    # ------------------------------------------------------------------
    def _predict(self, dataset: TimeSeriesDataset) -> list[EarlyPrediction]:
        assert self._model is not None and self.best_length_ is not None
        if dataset.length < self.best_length_:
            raise DataError(
                f"STRUT committed to prefix {self.best_length_}; test "
                f"series of length {dataset.length} are too short"
            )
        truncated = dataset.truncate(self.best_length_)
        labels = self._model.predict(truncated)
        return [
            EarlyPrediction(
                label=int(label),
                prefix_length=self.best_length_,
                series_length=dataset.length,
            )
            for label in labels
        ]


def s_mini(
    metric: str = "harmonic-mean",
    search: str = "binary",
    n_features: int = 1000,
    seed: int = 0,
) -> STRUT:
    """S-MINI: STRUT over MiniROCKET (the paper's fastest accurate variant)."""
    return STRUT(
        classifier_factory=lambda: MiniROCKET(n_features=n_features, seed=seed),
        metric=metric,
        search=search,
        seed=seed,
    )


def s_weasel(
    metric: str = "harmonic-mean", search: str = "binary", seed: int = 0
) -> STRUT:
    """S-WEASEL: STRUT over WEASEL / WEASEL+MUSE."""
    return STRUT(
        classifier_factory=lambda: WEASEL(n_window_sizes=3, chi2_top_k=100),
        metric=metric,
        search=search,
        seed=seed,
    )


def s_mlstm(
    metric: str = "harmonic-mean",
    n_epochs: int = 20,
    lstm_units: int | None = 8,
    seed: int = 0,
) -> STRUT:
    """S-MLSTM: STRUT over MLSTM-FCN.

    Uses the paper's fixed fraction grid ``{0.05, 0.2, 0.4, 0.6, 0.8, 1}``
    (Section 6.1) instead of binary search, bounding the number of network
    trainings regardless of series length.
    """
    return STRUT(
        classifier_factory=lambda: MLSTMFCN(
            lstm_units=lstm_units, n_epochs=n_epochs, seed=seed
        ),
        metric=metric,
        search="grid",
        grid_fractions=_DEFAULT_FRACTIONS,
        seed=seed,
    )
