"""Symbolic Fourier Approximation (SFA) with information-gain binning.

WEASEL turns each sliding window into a short *word* over a small alphabet:

1. the window is approximated by its first Fourier coefficients
   (:func:`fourier_coefficients`);
2. each retained coefficient is discretised into one symbol using per-
   coefficient bin boundaries learned on the training windows — either
   equi-depth quantiles or, as in WEASEL, boundaries chosen to maximise
   information gain against the class labels (:class:`SFATransformer`).

Words are encoded as integers in base ``alphabet_size`` so downstream code
can hash and count them cheaply.

Information-gain binning scores all word positions together: the labels
are encoded once per fit, every coefficient column is stable-sorted in one
call, and every candidate split of every position is scored by one
entropy pass (:func:`_split_gains`). The boundaries are bitwise those of
scoring each position, and each candidate, on its own.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DataError, NotFittedError

__all__ = ["fourier_coefficients", "SFATransformer"]


def fourier_coefficients(
    windows: np.ndarray, n_coefficients: int, drop_mean: bool = True
) -> np.ndarray:
    """Truncated real-valued DFT features of each window row.

    Interleaves real and imaginary parts of the lowest-frequency DFT bins
    into ``n_coefficients`` columns. With ``drop_mean`` the DC bin (window
    mean) is skipped, making words invariant to vertical offset — WEASEL's
    default behaviour.
    """
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    if n_coefficients < 1:
        raise DataError(
            f"n_coefficients must be >= 1, got {n_coefficients}"
        )
    spectrum = np.fft.rfft(windows, axis=1)
    if drop_mean:
        spectrum = spectrum[:, 1:]
    if spectrum.shape[1] == 0:
        # Window of length 1 with DC dropped: no information left.
        return np.zeros((windows.shape[0], n_coefficients))
    interleaved = np.empty((windows.shape[0], 2 * spectrum.shape[1]))
    interleaved[:, 0::2] = spectrum.real
    interleaved[:, 1::2] = spectrum.imag
    if interleaved.shape[1] >= n_coefficients:
        return interleaved[:, :n_coefficients]
    padded = np.zeros((windows.shape[0], n_coefficients))
    padded[:, : interleaved.shape[1]] = interleaved
    return padded


def _equi_depth_boundaries(column: np.ndarray, n_bins: int) -> np.ndarray:
    first = column[0]
    if (
        (column == first).all()
        and np.isfinite(first)
        and (first != 0 or not np.signbit(column).any())
    ):
        # np.quantile interpolates a constant column to the constant. A
        # -0.0 may come out as either zero and an infinity as NaN, so
        # those columns keep the general path.
        return np.full(n_bins - 1, first)
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.quantile(column, quantiles)


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of class counts.

    Matches :func:`~repro.stats.feature_selection.information_gain`'s
    entropy bit for bit: only the non-zero counts enter, in class order, and
    rows with the same number of them are summed together so every row's
    sum groups its terms exactly as a 1-D ``np.sum`` over them would.
    """
    totals = counts.sum(axis=1)
    present = counts > 0
    widths = present.sum(axis=1)
    out = np.zeros(len(counts))
    for width in np.unique(widths[widths > 0]):
        rows = widths == width
        nonzero = counts[rows][present[rows]].reshape(-1, width)
        proportions = nonzero / totals[rows, None]
        out[rows] = -np.sum(proportions * np.log2(proportions), axis=1)
    return out


def _split_gains(
    sorted_columns: np.ndarray,
    sorted_classes: np.ndarray,
    thresholds: list[np.ndarray],
) -> np.ndarray:
    """Information gain of splitting each column at each of its thresholds.

    ``sorted_columns`` has one ascending column per feature and
    ``sorted_classes`` the integer class of each value, following it.
    Cumulative class counts down each sorted column, read at
    ``searchsorted(side="right")`` (``values <= threshold``), give every
    left/right class count at once. The left, right and parent rows of
    every column go through one :func:`_entropies` call, which is exact
    because each row sums on its own. Returns the gains of all columns'
    thresholds, concatenated in column order; each equals
    ``information_gain(values, labels, threshold)`` bit for bit.
    """
    n, n_columns = sorted_columns.shape
    one_hot = np.zeros((n + 1, n_columns, sorted_classes.max() + 1), dtype=np.int64)
    one_hot[
        np.arange(1, n + 1)[:, None], np.arange(n_columns), sorted_classes
    ] = 1
    cumulative = np.cumsum(one_hot, axis=0)
    left = np.concatenate(
        [
            cumulative[
                np.searchsorted(sorted_columns[:, j], column_thresholds, side="right"),
                j,
            ]
            for j, column_thresholds in enumerate(thresholds)
        ]
    )
    total = cumulative[-1, 0]
    entropies = _entropies(np.concatenate([left, total - left, total[None]]))
    left_n = left.sum(axis=1)
    m = len(left)
    weighted = (left_n * entropies[:m] + (n - left_n) * entropies[m:-1]) / n
    return entropies[-1] - weighted


def _information_gain_boundaries_per_column(
    columns: np.ndarray, labels: np.ndarray, n_bins: int
) -> list[np.ndarray]:
    """Information-gain boundaries of each column, as in WEASEL's binning.

    Candidates are the midpoints between distinct consecutive sorted values
    (evenly subsampled to at most 64). Each candidate is scored once, by the
    information gain of splitting the *whole* column at it, and the
    ``n_bins - 1`` best-scoring distinct candidates become the boundaries
    (the first wins a tie; a candidate within ``1e-12`` of a chosen one is
    excluded); missing slots are filled with equi-depth cuts.

    A candidate's gain does not depend on the boundaries already placed, so
    the labels are encoded once, every column is stable-sorted in one call,
    and all candidates of all columns are scored together
    (:func:`_split_gains`).
    """
    _, classes = np.unique(labels, return_inverse=True)
    orders = np.argsort(columns, axis=0, kind="stable")
    sorted_columns = np.take_along_axis(columns, orders, axis=0)
    candidates = []
    for sorted_values in sorted_columns.T:
        # Candidate thresholds: midpoints between distinct consecutive values.
        distinct = sorted_values[1:] > sorted_values[:-1]
        midpoints = 0.5 * (sorted_values[1:] + sorted_values[:-1])[distinct]
        if midpoints.size > 64:
            # Subsample candidates evenly to bound the O(candidates * n) cost.
            midpoints = midpoints[
                np.linspace(0, midpoints.size - 1, 64).astype(int)
            ]
        candidates.append(midpoints)
    gains = _split_gains(sorted_columns, classes[orders], candidates)
    ends = np.cumsum([len(column_candidates) for column_candidates in candidates])
    all_boundaries = []
    for column, column_candidates, column_gains in zip(
        columns.T, candidates, np.split(gains, ends[:-1])
    ):
        if column_candidates.size == 0:
            all_boundaries.append(_equi_depth_boundaries(column, n_bins))
            continue
        boundaries: list[float] = []
        available = np.ones(column_candidates.size, dtype=bool)
        for _ in range(n_bins - 1):
            if not available.any():
                break
            best = column_candidates[
                np.argmax(np.where(available, column_gains, -np.inf))
            ]
            boundaries.append(float(best))
            available &= ~(np.abs(column_candidates - best) < 1e-12)
        if len(boundaries) < n_bins - 1:
            # Fill the remaining slots with equi-depth cuts.
            for value in _equi_depth_boundaries(column, n_bins):
                if len(boundaries) >= n_bins - 1:
                    break
                if all(abs(value - b) > 1e-12 for b in boundaries):
                    boundaries.append(float(value))
        all_boundaries.append(np.sort(np.asarray(boundaries)))
    return all_boundaries


def _information_gain_boundaries(
    column: np.ndarray, labels: np.ndarray, n_bins: int
) -> np.ndarray:
    """Information-gain boundaries of one column: the one-column case of
    :func:`_information_gain_boundaries_per_column`."""
    return _information_gain_boundaries_per_column(
        np.asarray(column)[:, None], labels, n_bins
    )[0]


class SFATransformer:
    """Learn per-coefficient bins and map windows to integer words.

    Parameters
    ----------
    word_length:
        Number of Fourier coefficients retained (symbols per word).
    alphabet_size:
        Number of bins per coefficient.
    binning:
        ``"information-gain"`` (WEASEL) or ``"equi-depth"``.
    drop_mean:
        Skip the DC coefficient (offset invariance).
    """

    def __init__(
        self,
        word_length: int = 4,
        alphabet_size: int = 4,
        binning: str = "information-gain",
        drop_mean: bool = True,
    ) -> None:
        if word_length < 1:
            raise DataError(f"word_length must be >= 1, got {word_length}")
        if alphabet_size < 2:
            raise DataError(
                f"alphabet_size must be >= 2, got {alphabet_size}"
            )
        if binning not in ("information-gain", "equi-depth"):
            raise DataError(f"unknown binning {binning!r}")
        self.word_length = word_length
        self.alphabet_size = alphabet_size
        self.binning = binning
        self.drop_mean = drop_mean
        self.boundaries_: np.ndarray | None = None  # (word_length, bins-1)

    def fit(
        self, windows: np.ndarray, labels: np.ndarray | None = None
    ) -> "SFATransformer":
        """Learn the discretisation boundaries from training windows.

        ``labels`` (one class per window) are required for information-gain
        binning and ignored for equi-depth.
        """
        coefficients = fourier_coefficients(
            windows, self.word_length, self.drop_mean
        )
        if self.binning == "information-gain":
            if labels is None:
                raise DataError("information-gain binning requires labels")
            per_position = _information_gain_boundaries_per_column(
                coefficients, np.asarray(labels), self.alphabet_size
            )
        else:
            per_position = [
                _equi_depth_boundaries(column, self.alphabet_size)
                for column in coefficients.T
            ]
        boundaries = np.full((self.word_length, self.alphabet_size - 1), np.inf)
        for position, bins in enumerate(per_position):
            boundaries[position, : bins.size] = bins
        self.boundaries_ = boundaries
        return self

    def transform_symbols(self, windows: np.ndarray) -> np.ndarray:
        """Map windows to symbol matrices of shape ``(n, word_length)``."""
        if self.boundaries_ is None:
            raise NotFittedError("SFATransformer used before fit")
        coefficients = fourier_coefficients(
            windows, self.word_length, self.drop_mean
        )
        symbols = np.empty(coefficients.shape, dtype=np.int64)
        for position in range(self.word_length):
            symbols[:, position] = np.searchsorted(
                self.boundaries_[position], coefficients[:, position]
            )
        return symbols

    def transform_words(self, windows: np.ndarray) -> np.ndarray:
        """Map windows to integer word codes in base ``alphabet_size``."""
        symbols = self.transform_symbols(windows)
        weights = self.alphabet_size ** np.arange(self.word_length, dtype=np.int64)
        return symbols @ weights

    def fit_transform_words(
        self, windows: np.ndarray, labels: np.ndarray | None = None
    ) -> np.ndarray:
        """Fit the bins then encode the same windows as words."""
        return self.fit(windows, labels).transform_words(windows)

    @property
    def vocabulary_size(self) -> int:
        """Number of representable words, ``alphabet_size ** word_length``."""
        return int(self.alphabet_size**self.word_length)
