"""Cheap fallback predictors for degraded serving.

When the primary early classifier cannot answer inside its deadline — or
the circuit breaker has taken it out of rotation — the stream must not
stall: something still has to answer. The predictors here are orders of
magnitude cheaper than any ETSC algorithm and are fitted once from the
same training data, so a degraded answer is cheap, immediate, and at
least as good as guessing:

* :class:`MajorityClassFallback` — the training majority class, with its
  empirical frequency as confidence. O(1) per consultation.
* :class:`PrefixNearestNeighborFallback` — 1-NN under Euclidean distance
  between the observed prefix and the same-length prefixes of (a
  subsample of) the training series. O(reference x t) per consultation.

Fallback answers always carry ``source="fallback"``/``degraded=True``
and a ``prefix_length`` equal to the observed length — they have no
earliness trigger of their own, so a streaming session only ever commits
them as the forced final decision.

The prefix-1-NN consult path runs on
:class:`~repro.stats.distance.PrefixDistanceCache`, whose ``prefix_step``
kernel op the conformance policy declares exact: the ``numpy`` kernels
and the ``naive`` reference produce bit-identical fallback decisions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core.prediction import SOURCE_FALLBACK, EarlyPrediction
from ..data.dataset import TimeSeriesDataset
from ..exceptions import ConfigurationError, DataError, NotFittedError
from ..stats.distance import PrefixDistanceCache

__all__ = [
    "FallbackPredictor",
    "MajorityClassFallback",
    "PrefixNearestNeighborFallback",
    "make_fallback",
    "FALLBACK_NAMES",
]


class FallbackPredictor(ABC):
    """A cheap stand-in answering when the primary model cannot."""

    def __init__(self) -> None:
        self._fitted = False

    @abstractmethod
    def _fit(self, dataset: TimeSeriesDataset) -> None:
        """Predictor-specific fitting logic."""

    @abstractmethod
    def _predict_label(self, prefix: np.ndarray) -> tuple[int, float | None]:
        """``(label, confidence)`` for one observed ``(V, t)`` prefix."""

    def fit(self, dataset: TimeSeriesDataset) -> "FallbackPredictor":
        """Fit the fallback on the primary model's training dataset."""
        self._fit(dataset)
        self._fitted = True
        return self

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def predict_prefix(
        self, prefix: np.ndarray, series_length: int
    ) -> EarlyPrediction:
        """A degraded prediction for the ``(V, t)`` observed prefix."""
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__} used before fit"
            )
        prefix = np.atleast_2d(np.asarray(prefix, dtype=float))
        if prefix.ndim != 2 or prefix.shape[1] < 1:
            raise DataError(
                f"fallback prefix must be (n_variables, t>=1), "
                f"got shape {prefix.shape}"
            )
        label, confidence = self._predict_label(prefix)
        return EarlyPrediction(
            label=int(label),
            prefix_length=min(prefix.shape[1], series_length),
            series_length=series_length,
            confidence=confidence,
            degraded=True,
            source=SOURCE_FALLBACK,
        )

    def predict_prefix_batch(
        self, prefixes: "np.ndarray | list[np.ndarray]", series_length: int
    ) -> list[EarlyPrediction]:
        """Degraded predictions for several same-length prefixes at once.

        The serving fleet calls this when load shedding or shard failover
        degrades a whole group of streams in one go: answering them as a
        batch lets distance-based fallbacks go through the all-pairs
        kernels instead of one consultation per stream. ``prefixes`` is
        ``(k, V, t)`` (or a list of ``(V, t)`` arrays of equal shape).
        Results are bit-identical to ``k`` separate
        :meth:`predict_prefix` calls on a fresh predictor — batching is
        a throughput optimisation, never a semantic change.
        """
        stacked = np.asarray(
            [np.atleast_2d(np.asarray(p, dtype=float)) for p in prefixes],
            dtype=float,
        )
        if stacked.ndim != 3 or stacked.shape[0] < 1 or stacked.shape[2] < 1:
            raise DataError(
                f"batched prefixes must be (k>=1, n_variables, t>=1), "
                f"got shape {stacked.shape}"
            )
        return [
            self.predict_prefix(stacked[i], series_length)
            for i in range(stacked.shape[0])
        ]


class MajorityClassFallback(FallbackPredictor):
    """Answer with the training majority class (ties to the first label).

    The cheapest possible degradation: no per-consultation work at all,
    confidence is the class's empirical training frequency.
    """

    def __init__(self) -> None:
        super().__init__()
        self._label: int | None = None
        self._confidence: float | None = None

    def _fit(self, dataset: TimeSeriesDataset) -> None:
        labels, counts = np.unique(dataset.labels, return_counts=True)
        best = int(np.argmax(counts))
        self._label = int(labels[best])
        self._confidence = float(counts[best] / counts.sum())

    def _predict_label(self, prefix: np.ndarray) -> tuple[int, float | None]:
        return self._label, self._confidence


class PrefixNearestNeighborFallback(FallbackPredictor):
    """1-NN on same-length training prefixes under Euclidean distance.

    Keeps (a deterministic stratified-ish subsample of) the training
    series and, per consultation, returns the label of the instance whose
    first ``t`` points are closest to the observed prefix. Confidence is
    the fraction of the ``n_votes`` nearest references agreeing with the
    winner.

    Parameters
    ----------
    max_reference:
        Cap on retained training instances (evenly strided subsample, so
        repeated fits are deterministic). ``None`` keeps everything.
    n_votes:
        Neighbourhood size used only for the confidence estimate; the
        label itself is always the single nearest neighbour's.
    """

    def __init__(
        self, max_reference: int | None = 200, n_votes: int = 5
    ) -> None:
        super().__init__()
        if max_reference is not None and max_reference < 1:
            raise ConfigurationError(
                f"max_reference must be >= 1 or None, got {max_reference}"
            )
        if n_votes < 1:
            raise ConfigurationError(f"n_votes must be >= 1, got {n_votes}")
        self.max_reference = max_reference
        self.n_votes = n_votes
        self._values: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        # Streaming-consult state: squared prefix distances to the
        # references are advanced incrementally while consecutive consults
        # extend the same stream, O(reference) per new point instead of
        # O(reference x t) per consultation.
        self._cache: PrefixDistanceCache | None = None
        self._seen: np.ndarray | None = None

    def _fit(self, dataset: TimeSeriesDataset) -> None:
        values, labels = dataset.values, dataset.labels
        if (
            self.max_reference is not None
            and dataset.n_instances > self.max_reference
        ):
            # Even stride keeps the class mixture roughly intact and is
            # reproducible without an RNG.
            indices = np.linspace(
                0, dataset.n_instances - 1, self.max_reference
            ).astype(int)
            values, labels = values[indices], labels[indices]
        self._values = np.ascontiguousarray(values, dtype=float)
        self._labels = np.asarray(labels)
        self._cache = None
        self._seen = None

    def _predict_label(self, prefix: np.ndarray) -> tuple[int, float | None]:
        t = min(prefix.shape[1], self._values.shape[2])
        clipped = prefix[:, :t]
        cache = self._cache
        if (
            cache is None
            or cache.length > t
            or self._seen is None
            or clipped.shape[0] != self._seen.shape[0]
            or not np.array_equal(clipped[:, : cache.length], self._seen)
        ):
            # New stream (or edited history): start the cache over.
            cache = PrefixDistanceCache(self._values)
            self._cache = cache
        distances = cache.advance_chunk(clipped[:, cache.length :])
        self._seen = clipped.copy()
        label, confidence = self._vote(distances)
        return label, confidence

    def _vote(self, distances: np.ndarray) -> tuple[int, float]:
        """Nearest label + agreement confidence from one distance row."""
        order = np.argsort(distances, kind="stable")
        label = int(self._labels[order[0]])
        votes = self._labels[order[: min(self.n_votes, order.size)]]
        confidence = float((votes == label).mean())
        return label, confidence

    def predict_prefix_batch(
        self, prefixes: "np.ndarray | list[np.ndarray]", series_length: int
    ) -> list[EarlyPrediction]:
        """All-pairs batched consultation: one multi-query cache advance.

        The ``k`` same-length prefixes are pushed through a single
        :class:`PrefixDistanceCache` in ``n_queries=k`` mode, so the
        whole group costs one vectorised pass over the references
        instead of ``k`` scans. The per-pair accumulation order matches
        the single-stream path exactly, so labels and confidences are
        bit-identical to ``k`` separate consultations — and the
        predictor's single-stream continuation state is left untouched.
        """
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__} used before fit"
            )
        stacked = np.asarray(
            [np.atleast_2d(np.asarray(p, dtype=float)) for p in prefixes],
            dtype=float,
        )
        if stacked.ndim != 3 or stacked.shape[0] < 1 or stacked.shape[2] < 1:
            raise DataError(
                f"batched prefixes must be (k>=1, n_variables, t>=1), "
                f"got shape {stacked.shape}"
            )
        t = min(stacked.shape[2], self._values.shape[2])
        clipped = stacked[:, :, :t]
        cache = PrefixDistanceCache(self._values, n_queries=clipped.shape[0])
        distances = cache.advance_chunk(clipped)
        distances = np.atleast_2d(distances)
        predictions: list[EarlyPrediction] = []
        for i in range(clipped.shape[0]):
            label, confidence = self._vote(distances[i])
            predictions.append(
                EarlyPrediction(
                    label=label,
                    prefix_length=min(stacked.shape[2], series_length),
                    series_length=series_length,
                    confidence=confidence,
                    degraded=True,
                    source=SOURCE_FALLBACK,
                )
            )
        return predictions


#: Named fallback constructors (the scenario ``fallback`` key).
FALLBACK_NAMES = ("majority", "prefix-1nn")


def make_fallback(name: str) -> FallbackPredictor:
    """Construct a fallback predictor by CLI name."""
    if name == "majority":
        return MajorityClassFallback()
    if name == "prefix-1nn":
        return PrefixNearestNeighborFallback()
    raise ConfigurationError(
        f"unknown fallback {name!r}; known: {', '.join(FALLBACK_NAMES)}"
    )
