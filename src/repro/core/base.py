"""Abstract interfaces of the evaluation framework (Section 5.5).

The paper's extensibility contract is: *"To add a new algorithm, one needs
to create a Python interface that implements the abstract class
EarlyClassifier, and provide the algorithm functionality for train and
predict methods."* :class:`EarlyClassifier` is that class. Full time-series
classifiers (used inside STRUT, ECEC, TEASER) implement the smaller
:class:`FullTSClassifier` interface. Streaming sessions consult a trained
classifier through the :class:`ClassifierStream` it opens per stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..data.dataset import TimeSeriesDataset
from ..exceptions import DataError, NotFittedError
from .prediction import EarlyPrediction

__all__ = ["ClassifierStream", "EarlyClassifier", "FullTSClassifier"]


class FullTSClassifier(ABC):
    """A classifier for complete (fixed-length) time-series.

    Implementations must accept any series length at ``train`` time and
    classify series of the same length at ``predict`` time. STRUT retrains a
    fresh instance per truncation length via :meth:`clone`.
    """

    @abstractmethod
    def train(self, dataset: TimeSeriesDataset) -> "FullTSClassifier":
        """Fit the classifier on the full-length training dataset."""

    @abstractmethod
    def predict(self, dataset: TimeSeriesDataset) -> np.ndarray:
        """Predict one label per instance (same length as training series)."""

    @abstractmethod
    def clone(self) -> "FullTSClassifier":
        """Return an unfitted copy with identical hyperparameters."""

    def predict_proba(self, dataset: TimeSeriesDataset) -> np.ndarray:
        """Per-class probabilities; default is a one-hot of ``predict``.

        Columns follow ``self.classes_`` for implementations that expose it.
        """
        predictions = self.predict(dataset)
        classes = getattr(self, "classes_", None)
        if classes is None:
            classes = np.unique(predictions)
        classes = np.asarray(classes)
        probabilities = np.zeros((len(predictions), len(classes)))
        for i, label in enumerate(predictions):
            probabilities[i, int(np.flatnonzero(classes == label)[0])] = 1.0
        return probabilities


class EarlyClassifier(ABC):
    """An early time-series classifier.

    The lifecycle is: construct with hyperparameters, :meth:`train` once on
    a labelled dataset, then :meth:`predict` on (possibly incomplete) test
    series. ``predict`` simulates the streaming setting: for each test
    instance the classifier observes growing prefixes and commits at the
    earliest point its internal trigger fires, returning an
    :class:`EarlyPrediction` that records both the label and the consumed
    prefix length.
    """

    #: Whether the algorithm natively consumes multivariate series. The
    #: evaluation harness wraps univariate-only algorithms in the voting
    #: ensemble of Section 6.1.
    supports_multivariate: bool = False

    def __init__(self) -> None:
        self._trained_length: int | None = None
        self._trained_variables: int | None = None

    # ------------------------------------------------------------------
    @abstractmethod
    def _train(self, dataset: TimeSeriesDataset) -> None:
        """Algorithm-specific fitting logic."""

    @abstractmethod
    def _predict(self, dataset: TimeSeriesDataset) -> list[EarlyPrediction]:
        """Algorithm-specific early prediction for each instance."""

    # ------------------------------------------------------------------
    def train(self, dataset: TimeSeriesDataset) -> "EarlyClassifier":
        """Fit the classifier on the labelled training dataset."""
        if dataset.n_classes < 2:
            raise DataError(
                "training dataset must contain at least two classes"
            )
        if dataset.has_missing():
            raise DataError(
                "training dataset contains missing values; fill them first "
                "with repro.data.fill_missing (the paper's Section 5.1 rule)"
            )
        if not self.supports_multivariate and dataset.n_variables != 1:
            raise DataError(
                f"{type(self).__name__} supports univariate input only; "
                "wrap it in repro.core.voting.VotingEnsemble for "
                "multivariate data"
            )
        self._train(dataset)
        self._trained_length = dataset.length
        self._trained_variables = dataset.n_variables
        return self

    def predict(self, dataset: TimeSeriesDataset) -> list[EarlyPrediction]:
        """Early-classify every instance of ``dataset``.

        The test series may be full length (the streaming simulation feeds
        prefixes internally) but must match the training variable count and
        must not be longer than the training series.
        """
        if self._trained_length is None:
            raise NotFittedError(f"{type(self).__name__} used before train")
        if dataset.n_variables != self._trained_variables:
            raise DataError(
                f"trained on {self._trained_variables} variables, "
                f"got {dataset.n_variables}"
            )
        if dataset.length > self._trained_length:
            raise DataError(
                f"trained on length {self._trained_length}, got longer "
                f"series of length {dataset.length}"
            )
        predictions = self._predict(dataset)
        if len(predictions) != dataset.n_instances:
            raise DataError(
                f"{type(self).__name__} returned {len(predictions)} "
                f"predictions for {dataset.n_instances} instances"
            )
        return predictions

    def predict_one(self, series: np.ndarray) -> EarlyPrediction:
        """Early-classify a single ``(n_variables, length)`` series.

        Convenience wrapper around :meth:`predict` used by the streaming
        and serving layers, which consult the classifier one observed
        prefix at a time. A 1-D input is treated as univariate.
        """
        series = np.atleast_2d(np.asarray(series, dtype=float))
        if series.ndim != 2:
            raise DataError(
                f"predict_one expects one (n_variables, length) series, "
                f"got shape {series.shape}"
            )
        prefix = TimeSeriesDataset(
            series[np.newaxis, :, :], np.zeros(1, dtype=int)
        )
        return self.predict(prefix)[0]

    def open_stream(self) -> "ClassifierStream":
        """A fresh per-stream consult state (see :class:`ClassifierStream`).

        The default stream keeps no state and replays :meth:`predict_one`
        on every consult. Algorithms whose consults share work across a
        growing prefix override this with a stream that keeps it.
        """
        return ClassifierStream(self)

    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has completed."""
        return self._trained_length is not None

    @property
    def trained_length(self) -> int:
        """Series length seen during training."""
        if self._trained_length is None:
            raise NotFittedError(f"{type(self).__name__} used before train")
        return self._trained_length

    @property
    def trained_variables(self) -> int:
        """Number of variables seen during training.

        The streaming/serving input guards validate every pushed point
        against this count instead of letting a shape mismatch surface as
        a raw numpy error deep inside the classifier.
        """
        if self._trained_variables is None:
            raise NotFittedError(f"{type(self).__name__} used before train")
        return self._trained_variables


class ClassifierStream:
    """One stream's consults of a trained early classifier.

    :meth:`consult` takes the stream's whole ``(n_variables, t)`` observed
    prefix and answers as :meth:`EarlyClassifier.predict_one` would. By
    contract each call's prefix extends the previous call's (the streaming
    session's append-only buffer), so a stream may keep work done for the
    points it has already seen; it never checks that contract. The state
    belongs to whoever opened the stream, never to the shared model.
    """

    def __init__(self, classifier: EarlyClassifier) -> None:
        if not classifier.is_trained:
            raise NotFittedError(
                f"{type(classifier).__name__} used before train"
            )
        self.classifier = classifier

    def consult(self, prefix: np.ndarray) -> EarlyPrediction:
        """Early-classify the observed prefix."""
        return self.classifier.predict_one(prefix)

    def _univariate(self, prefix: np.ndarray) -> np.ndarray:
        """The prefix as a ``(1, t)`` row, validated like ``predict_one``."""
        series = np.atleast_2d(np.asarray(prefix, dtype=float))
        limit = self.classifier.trained_length
        if series.ndim != 2 or series.shape[0] != 1:
            raise DataError(
                f"expected one univariate (1, t) prefix, got shape "
                f"{series.shape}"
            )
        if not 1 <= series.shape[1] <= limit:
            raise DataError(
                f"prefix length {series.shape[1]} outside [1, {limit}]"
            )
        return series
