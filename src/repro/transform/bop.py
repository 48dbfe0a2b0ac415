"""Bag-of-patterns feature construction over SFA words.

WEASEL's feature vector for a series is the histogram of its SFA words
(unigrams) and of pairs of words one window-width apart (bigrams), pooled
over several window lengths. :class:`BagOfPatterns` builds the count matrix
for one window length.

Counting is done in numpy, one row of tokens per series: the vocabulary
numbers tokens by their first occurrence (``np.unique`` with
``return_index``), a fitted token's column is found by ``searchsorted``
against the sorted vocabulary, and all series are counted by one
``bincount`` (unseen tokens weigh zero). The counts are small integers,
so they are exact as floats. ``fit_transform`` counts the words ``fit``
encoded instead of encoding the training windows twice.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DataError, NotFittedError
from .sfa import SFATransformer
from .windows import extract_windows, window_matrix

__all__ = ["BagOfPatterns"]


class BagOfPatterns:
    """Word/bigram count features for one window length.

    The transformer learns an SFA discretisation on the training windows and
    a vocabulary mapping observed (window-length-tagged) words to feature
    columns. Unseen words at transform time are dropped, mirroring the usual
    bag-of-words behaviour.

    Parameters
    ----------
    window:
        Sliding-window width.
    word_length, alphabet_size, binning:
        Forwarded to :class:`~repro.transform.sfa.SFATransformer`.
    use_bigrams:
        Also count pairs of words one window-width apart.
    """

    def __init__(
        self,
        window: int,
        word_length: int = 4,
        alphabet_size: int = 4,
        binning: str = "information-gain",
        use_bigrams: bool = True,
    ) -> None:
        if window < 1:
            raise DataError(f"window must be >= 1, got {window}")
        self.window = window
        self.use_bigrams = use_bigrams
        self._sfa = SFATransformer(
            word_length=word_length,
            alphabet_size=alphabet_size,
            binning=binning,
        )
        self.vocabulary_: dict[int, int] | None = None
        # The vocabulary's tokens sorted, and the column of each.
        self._keys: np.ndarray | None = None
        self._columns: np.ndarray | None = None
        # The columns of the training tokens, from ``fit`` to ``fit_transform``.
        self._fit_columns: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _tokens(self, words: np.ndarray) -> np.ndarray:
        """Each series' unigrams then its bigrams, one row per series.

        ``words`` holds one row of word codes per series. Bigrams pair each
        word with the word one window-width later, offset into a disjoint
        code range; a series with no more words than ``window`` has none.
        """
        if not self.use_bigrams or words.shape[1] <= self.window:
            return words
        base = self._sfa.vocabulary_size
        bigrams = base + words[:, : -self.window] * base + words[:, self.window :]
        return np.concatenate([words, bigrams], axis=1)

    def _count(self, columns: np.ndarray, known: np.ndarray | None = None) -> np.ndarray:
        """Count matrix from each series' row of token columns.

        ``known`` marks the tokens in the vocabulary and weighs the others
        zero; ``None`` counts every token.
        """
        n_series = columns.shape[0]
        width = len(self._columns)
        if n_series > 1:
            columns = columns + width * np.arange(n_series)[:, None]
        counts = np.bincount(
            columns.ravel(),
            None if known is None else known.ravel(),
            n_series * width,
        )
        return counts.reshape(n_series, width).astype(float, copy=False)

    # ------------------------------------------------------------------
    def fit(self, series_matrix: np.ndarray, labels: np.ndarray) -> "BagOfPatterns":
        """Learn SFA bins and the token vocabulary from training series."""
        series_matrix = np.asarray(series_matrix, dtype=float)
        windows, owners = extract_windows(series_matrix, self.window)
        n_series = series_matrix.shape[0]
        labels = np.asarray(labels)
        if n_series == 0 or labels.shape[:1] != (n_series,):
            raise DataError(
                f"expected one label per series for {n_series} series, "
                f"got labels of shape {labels.shape}"
            )
        words = self._sfa.fit_transform_words(windows, labels[owners])
        tokens = self._tokens(words.reshape(n_series, -1))
        keys, first, inverse = np.unique(
            tokens, return_index=True, return_inverse=True
        )
        by_first = np.argsort(first)
        columns = np.empty(len(keys), dtype=np.intp)
        columns[by_first] = np.arange(len(keys))
        self.vocabulary_ = dict(zip(keys[by_first].tolist(), range(len(keys))))
        self._keys = keys
        self._columns = columns
        self._fit_columns = columns[inverse].reshape(tokens.shape)
        return self

    def transform(self, series_matrix: np.ndarray) -> np.ndarray:
        """Count matrix of shape ``(n_series, len(vocabulary_))``."""
        if self.vocabulary_ is None:
            raise NotFittedError("BagOfPatterns used before fit")
        series_matrix = np.asarray(series_matrix, dtype=float)
        if series_matrix.ndim != 2:
            raise DataError(
                f"expected a 2-D series matrix, got shape {series_matrix.shape}"
            )
        n_series, length = series_matrix.shape
        if length < self.window:
            # Series shorter than the window contribute no tokens at all.
            return np.zeros((n_series, len(self.vocabulary_)))
        words = self._sfa.transform_words(window_matrix(series_matrix, self.window))
        tokens = self._tokens(words.reshape(n_series, length - self.window + 1))
        slots = self._keys.searchsorted(tokens)
        known = self._keys.take(slots, mode="clip") == tokens
        return self._count(self._columns.take(slots, mode="clip"), known)

    def fit_transform(self, series_matrix: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Fit on the series then return their count matrix.

        Counts the words ``fit`` encoded rather than encoding the training
        windows a second time.
        """
        self.fit(series_matrix, labels)
        columns, self._fit_columns = self._fit_columns, None
        return self._count(columns)

    @property
    def n_features(self) -> int:
        """Vocabulary size after fit."""
        if self.vocabulary_ is None:
            raise NotFittedError("BagOfPatterns used before fit")
        return len(self.vocabulary_)
