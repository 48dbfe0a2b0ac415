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

Exhaustive EDSC scores every subsequence of every training series, for
every length in ``[min_length, max_length]``, against every window of
every series: Table 5's ``O(N^2 L^3)`` distance evaluations, which the
paper found intractable on 'Wide' datasets (48-hour timeouts). Training
evaluates them as one matrix product per chunk of candidates of a width
and recomputes by the direct form only the windows a rounding bound
cannot decide, so the shapelets are bitwise those of the per-candidate
loop. Measured on one core: the Table 4 profile (``n_lengths=None``,
``stride=1``) trains on DodgerLoopWeekend at scale 0.05 (8 x 288, 240,240
candidates) in 8.6 s, where the per-candidate loop took 48.9 s
(``docs/performance.md``). The ``stride`` and ``n_lengths`` knobs
subsample the candidate grid; ``stride=1`` and ``n_lengths=None``
reproduce the exhaustive behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.base import ClassifierStream, EarlyClassifier
from ..core.prediction import EarlyPrediction
from ..data.dataset import TimeSeriesDataset
from ..exceptions import ConfigurationError
from ..stats.backends.numpy_backend import direct_distances, strided_windows
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


def _earliest_match_positions(
    pattern: np.ndarray, matrix: np.ndarray, threshold: float
) -> np.ndarray:
    """Earliest prefix length at which each row matches within threshold.

    Rows that never match get 0 (no match).
    """
    hits = sliding_window_distances(pattern, matrix) <= threshold
    # argmax finds the first True per row; unmatched rows stay at 0.
    return np.where(hits.any(axis=1), hits.argmax(axis=1) + len(pattern), 0)


#: Float64 elements in one chunk's distance table (512 KiB), which caps
#: the candidates scored per matrix product.
_CHUNK_ELEMENTS = 1 << 16
#: Unit roundoff of float64.
_ROUNDOFF = np.finfo(float).eps / 2
#: Absolute slack that covers rounding in the subnormal range.
_FLOOR = np.finfo(float).tiny


class _WidthTable:
    """Scores EDSC's candidates of one width from chunked distance tables.

    The candidates are the ``width``-point windows of every training row at
    starts ``0, stride, ...``. For a chunk of them, one matrix product gives
    ``A = |q-m|^2 + |a-m|^2 - 2 (q-m).(a-m)`` for every window, with ``m``
    the data mean, and ``slack`` bounds ``|A - E|`` per (row, candidate),
    ``E`` being the squared distance :func:`~repro.stats.backends.
    numpy_backend.direct_distances` computes (``docs/performance.md``
    derives the bound). The direct form recomputes only what the bound
    cannot decide: each row's minimum (it feeds the Chebyshev threshold)
    and, in covered rows, the first window at or under the threshold (the
    match position). So every value that reaches a candidate is bitwise
    what the candidate's own direct-form table gives.
    """

    def __init__(self, matrix: np.ndarray, labels: np.ndarray, width: int):
        self.labels = labels
        self.width = width
        self.n_rows, self.length = matrix.shape
        self.n_starts = self.length - width + 1
        # Windows start-major (index start * n_rows + row), so a chunk's
        # table is (start, row, candidate) and row minima reduce over the
        # outer axis.
        self.windows = (
            strided_windows(matrix, width)
            .transpose(1, 0, 2)
            .reshape(-1, width)
        )
        centred = self.windows - matrix.mean()
        self.norms = np.einsum("ij,ij->i", centred, centred)
        # [-2(a-m), |a-m|^2, 1] . [q-m, 1, |q-m|^2] = A, one dot product.
        ones = np.ones((len(centred), 1))
        self.targets = np.hstack([-2.0 * centred, self.norms[:, None], ones])
        self.patterns = np.hstack([centred, ones, self.norms[:, None]])
        self.row_norms = self.norms.reshape(self.n_starts, -1).max(axis=0)
        _, self.first, self.ids = np.unique(
            self.windows, axis=0, return_index=True, return_inverse=True
        )
        self.bound = 2 * (5 * width + 12) * _ROUNDOFF

    def score(
        self, stride: int, k: float
    ) -> list[tuple[Shapelet, np.ndarray]]:
        """Every candidate that gets a positive threshold and a utility,
        with the rows it covers, in (series, start) order."""
        sources = (
            np.arange(0, self.n_starts, stride) * self.n_rows
            + np.arange(self.n_rows)[:, None]
        ).ravel()
        chunk = max(1, _CHUNK_ELEMENTS // len(self.windows))
        scored: list[tuple[Shapelet, np.ndarray]] = []
        for begin in range(0, sources.size, chunk):
            scored.extend(self._score_chunk(sources[begin : begin + chunk], k))
        return scored

    def _score_chunk(
        self, source: np.ndarray, k: float
    ) -> list[tuple[Shapelet, np.ndarray]]:
        labels = self.labels
        source_labels = labels[source % self.n_rows]
        table = (self.targets @ self.patterns[source].T).reshape(
            self.n_starts, self.n_rows, -1
        )
        slack = self.bound * (self.norms[source] + self.row_norms[:, None])
        slack += _FLOOR
        exact = _ExactPairs(self, source)

        # Row minima: every window within 2 * slack of its row's smallest A.
        flat = np.flatnonzero(table <= table.min(axis=0) + 2.0 * slack)
        exact_table = np.full(table.shape, np.inf)
        exact_table.reshape(-1)[flat] = exact(flat)
        minima = exact_table.min(axis=0).T

        limits = np.zeros(source.size)
        for label in np.unique(source_labels):
            rows = source_labels == label
            other = labels != label
            if other.any():
                # Reductions over the last axis of a C-ordered array are
                # bitwise the 1-D mean/std of one candidate's other rows.
                values = np.ascontiguousarray(minima[rows][:, other])
                limits[rows] = values.mean(axis=1) - k * values.std(axis=1)
        valid = limits > 0
        thresholds = np.where(valid, limits, 0.0)
        covered = (minima <= thresholds[:, None]) & valid[:, None]
        matches = self._matches(
            table, slack, exact_table, exact, thresholds, covered
        )

        same = source_labels[:, None] == labels
        covered_same = covered & same
        n_covered = covered.sum(axis=1)
        precision = covered_same.sum(axis=1) / np.maximum(n_covered, 1)
        weighted = np.where(
            covered_same, 1.0 - (matches - 1) / self.length, 0.0
        ).sum(axis=1) / np.maximum(same.sum(axis=1), 1)
        denominator = precision + weighted
        keep = np.flatnonzero((n_covered > 0) & (denominator != 0))
        utility = 2.0 * precision[keep] * weighted[keep] / denominator[keep]
        windows = self.windows
        return [
            (Shapelet(windows[i].copy(), threshold, label, value), rows)
            for i, threshold, label, value, rows in zip(
                source[keep].tolist(),
                thresholds[keep].tolist(),
                source_labels[keep].tolist(),
                utility.tolist(),
                covered[keep],
            )
        ]

    def _matches(
        self,
        table: np.ndarray,
        slack: np.ndarray,
        exact_table: np.ndarray,
        exact: "_ExactPairs",
        thresholds: np.ndarray,
        covered: np.ndarray,
    ) -> np.ndarray:
        """Match end (0 = none) of every (candidate, row): the first window
        at or under the threshold in each covered row."""
        candidate, row = np.nonzero(covered)
        square = thresholds[candidate] ** 2
        row_table = table[:, row, candidate]
        row_slack = slack[row, candidate]
        definite = row_table + row_slack < square * (1 - 8 * _ROUNDOFF)
        first_hit = np.where(
            definite.any(axis=0), definite.argmax(axis=0), self.n_starts
        )
        ambiguous = (
            (row_table - row_slack <= square * (1 + 8 * _ROUNDOFF))
            & ~definite
            & (np.arange(self.n_starts)[:, None] < first_hit)
        )
        start, which = np.nonzero(ambiguous)
        distances = exact_table[start, row[which], candidate[which]]
        missing = np.isinf(distances)
        which_missing = which[missing]
        distances[missing] = exact(
            (start[missing] * self.n_rows + row[which_missing])
            * covered.shape[0]
            + candidate[which_missing]
        )
        hits = distances <= thresholds[candidate[which]]
        # np.nonzero lists the entries start by start, so a row's first
        # ambiguous hit is its first occurrence.
        hit_rows, first_index = np.unique(which[hits], return_index=True)
        first_hit[hit_rows] = np.minimum(
            first_hit[hit_rows], start[hits][first_index]
        )
        matches = np.zeros(covered.shape, dtype=np.int64)
        matches[candidate, row] = first_hit + self.width
        return matches


class _ExactPairs:
    """Direct-form distances at flat ``(window, candidate)`` positions of
    one chunk's table.

    When windows repeat, each distinct pair of values is computed once per
    call: equal values give equal bits.
    """

    def __init__(self, table: _WidthTable, source: np.ndarray):
        self.windows = table.windows
        self.source = source
        self.first = table.first
        self.repeats = table.first.size < len(table.windows)
        if self.repeats:
            self.pattern_ids, slots = np.unique(
                table.ids[source], return_inverse=True
            )
            self.keys = (
                table.ids[:, None] + slots * table.first.size
            ).reshape(-1)

    def __call__(self, flat: np.ndarray) -> np.ndarray:
        if not self.repeats:
            window, candidate = np.divmod(flat, self.source.size)
            return self._direct(self.source[candidate], window)
        n_distinct = self.first.size
        keys = self.keys[flat]
        needed = np.zeros(self.pattern_ids.size * n_distinct, dtype=bool)
        needed[keys] = True
        distinct = np.flatnonzero(needed)
        pattern, window = np.divmod(distinct, n_distinct)
        values = np.empty(needed.size)
        values[distinct] = self._direct(
            self.first[self.pattern_ids[pattern]], self.first[window]
        )
        return values[keys]

    def _direct(self, patterns: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Distance of ``windows[targets]`` to ``windows[patterns]``."""
        windows = self.windows
        step = max(1, _CHUNK_ELEMENTS // windows.shape[1])
        distances = np.empty(patterns.size)
        for begin in range(0, patterns.size, step):
            end = begin + step
            distances[begin:end] = direct_distances(
                windows[targets[begin:end]][None],
                windows[patterns[begin:end]][None],
            )[0]
        return distances


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
        if not math.isfinite(k) or k <= 0:
            raise ConfigurationError(f"k must be positive and finite, got {k}")
        if min_length < 1:
            raise ConfigurationError(
                f"min_length must be >= 1, got {min_length}"
            )
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        if n_lengths is not None and n_lengths < 1:
            raise ConfigurationError(
                f"n_lengths must be >= 1 or None, got {n_lengths}"
            )
        if max_shapelets < 1:
            raise ConfigurationError(
                f"max_shapelets must be >= 1, got {max_shapelets}"
            )
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

    def _ranked_candidates(
        self, matrix: np.ndarray, labels: np.ndarray
    ) -> list[tuple[Shapelet, np.ndarray]]:
        """Every scored candidate with the rows it covers, by utility
        (descending; ties keep (width, series, start) order)."""
        candidates = [
            candidate
            for width in self._candidate_lengths(matrix.shape[1])
            for candidate in _WidthTable(matrix, labels, width).score(
                self.stride, self.k
            )
        ]
        candidates.sort(key=lambda scored: scored[0].utility, reverse=True)
        return candidates

    def _train(self, dataset: TimeSeriesDataset) -> None:
        matrix = validate_univariate(dataset)
        labels = dataset.labels
        # Greedy selection: keep adding the best shapelet until the whole
        # training set is covered (or candidates/cap run out).
        selected: list[Shapelet] = []
        covered = np.zeros(dataset.n_instances, dtype=bool)
        for shapelet, matched in self._ranked_candidates(matrix, labels):
            if covered.all() or len(selected) >= self.max_shapelets:
                break
            if (matched & ~covered).any():
                selected.append(shapelet)
                covered |= matched
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
