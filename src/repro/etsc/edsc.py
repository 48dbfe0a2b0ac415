"""EDSC — Early Distinctive Shapelet Classification (Xing et al., 2011).

EDSC mines *local shapelets*: triplets ``(subseries, threshold, class)``
such that a series whose best-matching distance to the subseries falls
below the threshold very likely belongs to the class. Thresholds come from
Chebyshev's inequality (the "CHE" variant evaluated in the paper): given
the distances from the candidate to all series of *other* classes, the
threshold is ``max(mean - k * spread, 0)``, placing it ``k`` deviations
below the typical non-target distance.

Candidates are ranked by a utility blending precision and a
weighted recall that rewards matching early within the series, and
selected greedily until the training set is covered.

At prediction time prefixes stream in; whenever any selected shapelet
matches within its threshold (using only windows that fit in the observed
prefix), its class fires. If nothing matches by the full length, the class
of the proportionally closest shapelet is returned.

A serving stream keeps, per shapelet, its best window distance and its
earliest match so far (:meth:`EDSC.open_stream`), so a consult scores only
the windows that end in the newly observed points instead of rescanning
the whole prefix.

Exhaustive EDSC enumerates every subsequence of every training series for
every length in ``[min_length, max_length]`` — the ``O(N^2 L^3)`` cost of
Table 5, which the paper found intractable for 'Wide' datasets (48-hour
timeouts). The ``stride`` and ``n_lengths`` knobs below subsample the
candidate grid to keep the same structure tractable; defaults of 1 / full
grid reproduce the exhaustive behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.base import ClassifierStream, EarlyClassifier
from ..core.prediction import EarlyPrediction
from ..data.dataset import TimeSeriesDataset
from ..exceptions import ConfigurationError
from ..stats.distance import best_match_distances, sliding_window_distances
from .common import validate_univariate

__all__ = ["EDSC", "Shapelet"]


@dataclass(frozen=True)
class Shapelet:
    """A learned shapelet: pattern, matching threshold, class, and utility."""

    pattern: np.ndarray
    threshold: float
    label: int
    utility: float

    @property
    def length(self) -> int:
        """Number of time-points in the pattern."""
        return len(self.pattern)


def _best_match_distances(pattern: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Best-matching (minimum alignment) distance of a pattern to each row.

    Delegates to :func:`~repro.stats.distance.best_match_distances` (the
    ``shapelet_match`` kernel op); ``sqrt`` and ``min`` commute on non-negative
    values, so the result is identical to the historical per-row
    ``sqrt(min(...))`` form.
    """
    return best_match_distances(pattern, matrix)


def _earliest_positions_from(
    window_distances: np.ndarray, width: int, threshold: float
) -> np.ndarray:
    """Earliest match positions given a precomputed window-distance table."""
    hits = window_distances <= threshold
    matched = hits.any(axis=1)
    # argmax finds the first True per row; unmatched rows stay at 0.
    first = hits.argmax(axis=1)
    return np.where(matched, first + width, 0)


def _earliest_match_positions(
    pattern: np.ndarray, matrix: np.ndarray, threshold: float
) -> np.ndarray:
    """Earliest prefix length at which each row matches within threshold.

    Rows that never match get 0 (no match).
    """
    return _earliest_positions_from(
        sliding_window_distances(pattern, matrix), len(pattern), threshold
    )


class EDSC(EarlyClassifier):
    """Early Distinctive Shapelet Classification (CHE thresholds).

    Parameters
    ----------
    k:
        Chebyshev multiplier; larger values give tighter (safer)
        thresholds. Table 4 uses 3.
    min_length, max_length:
        Candidate shapelet lengths; ``max_length=None`` means ``L / 2``
        (the paper's ``maxLen = L/2``).
    n_lengths:
        Number of lengths sampled from ``[min_length, max_length]``
        (``None`` = every length, the exhaustive original).
    stride:
        Step between candidate start positions (1 = exhaustive).
    max_shapelets:
        Cap on the greedy selection.
    """

    supports_multivariate = False

    def __init__(
        self,
        k: float = 3.0,
        min_length: int = 5,
        max_length: int | None = None,
        n_lengths: int | None = 3,
        stride: int = 1,
        max_shapelets: int = 50,
    ) -> None:
        super().__init__()
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        if min_length < 1:
            raise ConfigurationError(
                f"min_length must be >= 1, got {min_length}"
            )
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        self.k = k
        self.min_length = min_length
        self.max_length = max_length
        self.n_lengths = n_lengths
        self.stride = stride
        self.max_shapelets = max_shapelets
        self.shapelets_: list[Shapelet] | None = None
        self._fallback_label: int | None = None

    # ------------------------------------------------------------------
    def _candidate_lengths(self, length: int) -> list[int]:
        maximum = self.max_length if self.max_length is not None else length // 2
        maximum = max(min(maximum, length), 1)
        minimum = min(self.min_length, maximum)
        lengths = list(range(minimum, maximum + 1))
        if self.n_lengths is not None and len(lengths) > self.n_lengths:
            picks = np.linspace(0, len(lengths) - 1, self.n_lengths)
            lengths = [lengths[int(round(p))] for p in picks]
        return sorted(set(lengths))

    def _score_candidate(
        self,
        pattern: np.ndarray,
        label: int,
        matrix: np.ndarray,
        labels: np.ndarray,
    ) -> Shapelet | None:
        """Chebyshev threshold + utility for one candidate subsequence."""
        window_distances = sliding_window_distances(pattern, matrix)
        distances = window_distances.min(axis=1)
        other = distances[labels != label]
        if other.size == 0:
            return None
        spread = other.std()
        threshold = max(float(other.mean() - self.k * spread), 0.0)
        if threshold <= 0.0:
            return None
        matches = _earliest_positions_from(
            window_distances, len(pattern), threshold
        )
        covered = matches > 0
        if not covered.any():
            return None
        covered_same = covered & (labels == label)
        precision = covered_same.sum() / covered.sum()
        n_same = (labels == label).sum()
        lengths = matrix.shape[1]
        # Weighted recall: earlier matches on same-class series score more.
        weighted = np.where(
            covered_same, 1.0 - (matches - 1) / lengths, 0.0
        ).sum() / max(n_same, 1)
        if precision + weighted == 0:
            return None
        utility = 2.0 * precision * weighted / (precision + weighted)
        return Shapelet(
            pattern=pattern.copy(),
            threshold=threshold,
            label=int(label),
            utility=float(utility),
        )

    def _train(self, dataset: TimeSeriesDataset) -> None:
        matrix = validate_univariate(dataset)
        labels = dataset.labels
        candidates: list[Shapelet] = []
        for width in self._candidate_lengths(dataset.length):
            for i in range(dataset.n_instances):
                row = matrix[i]
                for start in range(0, dataset.length - width + 1, self.stride):
                    shapelet = self._score_candidate(
                        row[start : start + width],
                        int(labels[i]),
                        matrix,
                        labels,
                    )
                    if shapelet is not None:
                        candidates.append(shapelet)
        candidates.sort(key=lambda s: s.utility, reverse=True)

        # Greedy selection: keep adding the best shapelet until the whole
        # training set is covered (or candidates/cap run out).
        selected: list[Shapelet] = []
        covered = np.zeros(dataset.n_instances, dtype=bool)
        for shapelet in candidates:
            if covered.all() or len(selected) >= self.max_shapelets:
                break
            matches = _earliest_match_positions(
                shapelet.pattern, matrix, shapelet.threshold
            )
            newly = (matches > 0) & ~covered
            if newly.any():
                selected.append(shapelet)
                covered |= matches > 0
        self.shapelets_ = selected
        values, counts = np.unique(labels, return_counts=True)
        self._fallback_label = int(values[counts.argmax()])

    # ------------------------------------------------------------------
    def _predict(self, dataset: TimeSeriesDataset) -> list[EarlyPrediction]:
        assert self.shapelets_ is not None and self._fallback_label is not None
        test_matrix = dataset.values[:, 0, :]
        n_series, length = test_matrix.shape
        # For every (shapelet, row) pair, the earliest prefix length at
        # which the shapelet matches — the streamed per-prefix scan is
        # equivalent to "first matching window", so the whole test matrix
        # is handled by the batched matching kernel per shapelet.
        usable = [s for s in self.shapelets_ if s.length <= length]
        if usable:
            earliest = np.stack(
                [
                    _earliest_match_positions(
                        s.pattern, test_matrix, s.threshold
                    )
                    for s in usable
                ]
            )  # (n_shapelets, n_series); 0 = never matches
        else:
            earliest = np.zeros((0, n_series), dtype=int)
        predictions: list[EarlyPrediction] = []
        for i in range(n_series):
            winner = _earliest_match(earliest[:, i])
            if winner is not None:
                decided = EarlyPrediction(
                    label=usable[winner].label,
                    prefix_length=int(earliest[winner, i]),
                    series_length=length,
                )
            else:
                decided = EarlyPrediction(
                    label=self._nearest_shapelet_label(test_matrix[i]),
                    prefix_length=length,
                    series_length=length,
                )
            predictions.append(decided)
        return predictions

    def _nearest_shapelet_label(self, row: np.ndarray) -> int:
        """Fallback: class of the proportionally closest shapelet."""
        return self._closest_label(
            [
                _best_match_distances(shapelet.pattern, row[None, :])[0]
                if shapelet.length <= len(row)
                else np.inf
                for shapelet in self.shapelets_ or []
            ]
        )

    def _closest_label(self, distances) -> int:
        """Class of the shapelet with the smallest distance-to-threshold
        ratio, given each shapelet's best-match distance (``inf`` for a
        shapelet longer than the prefix); the training majority class when
        no ratio is finite."""
        assert self._fallback_label is not None
        best_ratio = np.inf
        best_label = self._fallback_label
        for shapelet, distance in zip(self.shapelets_ or [], distances):
            ratio = distance / max(shapelet.threshold, 1e-12)
            if ratio < best_ratio:
                best_ratio = ratio
                best_label = shapelet.label
        return best_label

    def open_stream(self) -> "_EDSCStream":
        return _EDSCStream(self)


def _earliest_match(fire_at: np.ndarray) -> int | None:
    """Index of the shapelet with the earliest match end (0 = no match),
    or ``None`` when none matched.

    Ties resolve to the first shapelet in selection order — the order the
    per-prefix loop consulted them in.
    """
    matching = np.flatnonzero(fire_at > 0)
    if not matching.size:
        return None
    best_t = fire_at[matching].min()
    return int(matching[np.argmax(fire_at[matching] == best_t)])


class _EDSCStream(ClassifierStream):
    """Running shapelet matches of one stream.

    Per shapelet the stream keeps its minimum window distance and its
    earliest match end (0 = no match yet). A consult scores only the
    windows that end in the newly observed points, then answers as
    :meth:`EDSC._predict` does on the whole prefix: the earliest match
    fires, else the ratio rule on the minima decides at the prefix end.
    Rescoring windows leaves both unchanged, so a consult cut short leaves
    a state the next consult completes.
    """

    def __init__(self, classifier: EDSC) -> None:
        super().__init__(classifier)
        n_shapelets = len(classifier.shapelets_)
        self._minima = np.full(n_shapelets, np.inf)
        self._match_ends = np.zeros(n_shapelets, dtype=int)
        self._matched = False  # set before the first match end is written
        self._scored = 0  # prefix length whose windows are all scored

    def consult(self, prefix: np.ndarray) -> EarlyPrediction:
        row = self._univariate(prefix)[0]
        t = row.size
        model = self.classifier
        for index, shapelet in enumerate(model.shapelets_):
            width = shapelet.length
            first_end = max(self._scored + 1, width)
            if first_end > t:
                continue
            distances = sliding_window_distances(
                shapelet.pattern, row[first_end - width : t][None, :]
            )[0]
            self._minima[index] = np.minimum(
                self._minima[index], distances.min()
            )
            if not self._match_ends[index]:
                hits = distances <= shapelet.threshold
                if hits.any():
                    self._matched = True
                    self._match_ends[index] = first_end + hits.argmax()
        self._scored = max(self._scored, t)
        winner = _earliest_match(self._match_ends) if self._matched else None
        if winner is not None:
            return EarlyPrediction(
                label=model.shapelets_[winner].label,
                prefix_length=int(self._match_ends[winner]),
                series_length=t,
            )
        return EarlyPrediction(
            label=model._closest_label(self._minima),
            prefix_length=t,
            series_length=t,
        )
