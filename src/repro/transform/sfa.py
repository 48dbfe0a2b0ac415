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
    sorted_values: np.ndarray, sorted_labels: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Information gain of splitting at each threshold, from one sort.

    ``sorted_labels`` follow ``sorted_values`` (ascending). Cumulative class
    counts along the sorted column, read at ``searchsorted(side="right")``
    (``values <= threshold``), give every left/right class count at once;
    each gain equals ``information_gain(values, labels, threshold)`` bit for
    bit.
    """
    n = len(sorted_values)
    _, classes = np.unique(sorted_labels, return_inverse=True)
    one_hot = np.zeros((n + 1, classes.max() + 1), dtype=np.int64)
    one_hot[np.arange(1, n + 1), classes] = 1
    cumulative = np.cumsum(one_hot, axis=0)
    left = cumulative[np.searchsorted(sorted_values, thresholds, side="right")]
    left_n = left.sum(axis=1)
    weighted = (
        left_n * _entropies(left) + (n - left_n) * _entropies(cumulative[-1] - left)
    ) / n
    return _entropies(cumulative[-1:])[0] - weighted


def _information_gain_boundaries(
    column: np.ndarray, labels: np.ndarray, n_bins: int
) -> np.ndarray:
    """Information-gain boundaries, as in WEASEL's binning.

    Candidates are the midpoints between distinct consecutive sorted values
    (evenly subsampled to at most 64). Each candidate is scored once, by the
    information gain of splitting the *whole* column at it, and the
    ``n_bins - 1`` best-scoring distinct candidates become the boundaries
    (the first wins a tie); missing slots are filled with equi-depth cuts.

    A candidate's gain does not depend on the boundaries already placed, so
    all of them are scored once, from one sort (:func:`_split_gains`).
    """
    order = np.argsort(column, kind="stable")
    sorted_values = column[order]
    # Candidate thresholds: midpoints between distinct consecutive values.
    distinct = sorted_values[1:] > sorted_values[:-1]
    candidates = 0.5 * (sorted_values[1:] + sorted_values[:-1])[distinct]
    if candidates.size == 0:
        return _equi_depth_boundaries(column, n_bins)
    if candidates.size > 64:
        # Subsample candidates evenly to bound the O(candidates * n) cost.
        candidates = candidates[
            np.linspace(0, candidates.size - 1, 64).astype(int)
        ]
    gains = _split_gains(sorted_values, np.asarray(labels)[order], candidates)
    boundaries: list[float] = []
    for _ in range(n_bins - 1):
        best_gain = -np.inf
        best_candidate = None
        for candidate, gain in zip(candidates.tolist(), gains.tolist()):
            if any(abs(candidate - b) < 1e-12 for b in boundaries):
                continue
            if gain > best_gain:
                best_gain = gain
                best_candidate = float(candidate)
        if best_candidate is None:
            break
        boundaries.append(best_candidate)
    while len(boundaries) < n_bins - 1:
        # Fill any remaining slots with equi-depth cuts.
        filler = _equi_depth_boundaries(column, n_bins)
        for value in filler:
            if len(boundaries) >= n_bins - 1:
                break
            if all(abs(value - b) > 1e-12 for b in boundaries):
                boundaries.append(float(value))
        break
    return np.sort(np.asarray(boundaries))


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
        use_ig = self.binning == "information-gain" and labels is not None
        if self.binning == "information-gain" and labels is None:
            raise DataError("information-gain binning requires labels")
        boundaries = np.empty((self.word_length, self.alphabet_size - 1))
        for position in range(self.word_length):
            column = coefficients[:, position]
            if use_ig:
                assert labels is not None
                bins = _information_gain_boundaries(
                    column, np.asarray(labels), self.alphabet_size
                )
            else:
                bins = _equi_depth_boundaries(column, self.alphabet_size)
            if bins.size < self.alphabet_size - 1:
                padded = np.full(self.alphabet_size - 1, np.inf)
                padded[: bins.size] = bins
                bins = padded
            boundaries[position] = bins
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
