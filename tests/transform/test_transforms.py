"""Tests for windows, SFA, and bag-of-patterns transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError, NotFittedError
from repro.transform import (
    BagOfPatterns,
    SFATransformer,
    extract_windows,
    fourier_coefficients,
    prefix_lengths,
    window_lengths,
)


class TestPrefixLengths:
    def test_paper_example(self):
        # Section 3.5: L=10, N=4 -> minimum prefix ceil(10/4)=3.
        ladder = prefix_lengths(10, 4)
        assert ladder[0] == 3
        assert ladder[-1] == 10

    def test_single_prefix_is_full_length(self):
        assert prefix_lengths(17, 1) == [17]

    def test_ladder_strictly_increasing_ending_at_length(self):
        ladder = prefix_lengths(100, 20)
        assert all(b > a for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] == 100

    def test_more_prefixes_than_length_collapses(self):
        ladder = prefix_lengths(5, 20)
        assert ladder == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("bad", [(0, 4), (10, 0)])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(DataError):
            prefix_lengths(*bad)

    @given(length=st.integers(1, 500), n=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, length, n):
        ladder = prefix_lengths(length, n)
        assert ladder[-1] == length
        assert all(1 <= p <= length for p in ladder)
        assert len(ladder) <= n + 1
        assert len(set(ladder)) == len(ladder)


class TestWindowLengths:
    def test_bounds_respected(self):
        sizes = window_lengths(100, minimum=4, n_sizes=5)
        assert min(sizes) >= 4
        assert max(sizes) <= 100

    def test_short_series(self):
        assert window_lengths(1) == [1]
        assert window_lengths(3, minimum=4) == [3]

    def test_sizes_distinct_and_sorted(self):
        sizes = window_lengths(500, 4, 6)
        assert sizes == sorted(set(sizes))


class TestExtractWindows:
    def test_counts_and_owners(self):
        matrix = np.arange(12, dtype=float).reshape(2, 6)
        windows, owners = extract_windows(matrix, 4)
        assert windows.shape == (6, 4)  # 3 positions per series
        np.testing.assert_array_equal(owners, [0, 0, 0, 1, 1, 1])

    def test_window_content(self):
        matrix = np.asarray([[1.0, 2.0, 3.0]])
        windows, _ = extract_windows(matrix, 2)
        np.testing.assert_array_equal(windows, [[1, 2], [2, 3]])

    def test_rejects_oversized_window(self):
        with pytest.raises(DataError):
            extract_windows(np.zeros((1, 3)), 4)


class TestFourier:
    def test_interleaved_real_imag(self):
        windows = np.sin(0.7 * np.arange(16))[None, :]
        coefficients = fourier_coefficients(windows, 4, drop_mean=True)
        spectrum = np.fft.rfft(windows[0])[1:]
        np.testing.assert_allclose(coefficients[0, 0], spectrum[0].real)
        np.testing.assert_allclose(coefficients[0, 1], spectrum[0].imag)

    def test_drop_mean_offset_invariance(self, rng):
        window = rng.normal(size=(1, 12))
        shifted = window + 42.0
        np.testing.assert_allclose(
            fourier_coefficients(window, 4),
            fourier_coefficients(shifted, 4),
            atol=1e-9,
        )

    def test_padding_for_tiny_windows(self):
        coefficients = fourier_coefficients(np.ones((2, 2)), 8)
        assert coefficients.shape == (2, 8)

    def test_rejects_bad_count(self):
        with pytest.raises(DataError):
            fourier_coefficients(np.ones((1, 4)), 0)


class TestSFA:
    def _windows_and_labels(self, rng, n=60, width=16):
        slow = np.sin(0.2 * np.arange(width)) + 0.05 * rng.normal(
            size=(n // 2, width)
        )
        fast = np.sin(1.2 * np.arange(width)) + 0.05 * rng.normal(
            size=(n // 2, width)
        )
        windows = np.concatenate([slow, fast])
        labels = np.asarray([0] * (n // 2) + [1] * (n // 2))
        return windows, labels

    def test_words_in_vocabulary_range(self, rng):
        windows, labels = self._windows_and_labels(rng)
        sfa = SFATransformer(word_length=4, alphabet_size=4)
        words = sfa.fit_transform_words(windows, labels)
        assert words.min() >= 0
        assert words.max() < sfa.vocabulary_size

    def test_classes_get_mostly_distinct_words(self, rng):
        windows, labels = self._windows_and_labels(rng)
        sfa = SFATransformer(word_length=4, alphabet_size=4)
        words = sfa.fit_transform_words(windows, labels)
        shared = set(words[labels == 0]) & set(words[labels == 1])
        assert len(shared) < len(set(words))

    def test_equi_depth_binning_without_labels(self, rng):
        windows, _ = self._windows_and_labels(rng)
        sfa = SFATransformer(binning="equi-depth")
        words = sfa.fit(windows).transform_words(windows)
        assert len(words) == len(windows)

    def test_information_gain_requires_labels(self, rng):
        windows, _ = self._windows_and_labels(rng)
        with pytest.raises(DataError, match="labels"):
            SFATransformer(binning="information-gain").fit(windows)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            SFATransformer().transform_words(np.ones((1, 8)))

    def test_constant_windows_all_same_word(self):
        windows = np.ones((5, 8))
        sfa = SFATransformer(binning="equi-depth").fit(windows)
        words = sfa.transform_words(windows)
        assert len(set(words)) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"word_length": 0},
            {"alphabet_size": 1},
            {"binning": "magic"},
        ],
    )
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(DataError):
            SFATransformer(**kwargs)

    def test_symbols_respect_boundaries(self, rng):
        windows, labels = self._windows_and_labels(rng)
        sfa = SFATransformer(word_length=3, alphabet_size=5)
        sfa.fit(windows, labels)
        symbols = sfa.transform_symbols(windows)
        assert symbols.min() >= 0
        assert symbols.max() < 5


class TestBagOfPatterns:
    def _matrix_and_labels(self, rng, n=30, length=40):
        t = np.arange(length)
        labels = np.asarray([0, 1] * (n // 2))
        matrix = np.stack(
            [
                np.sin((0.2 + 0.8 * label) * t)
                + 0.05 * rng.normal(size=length)
                for label in labels
            ]
        )
        return matrix, labels

    def test_count_matrix_shape(self, rng):
        matrix, labels = self._matrix_and_labels(rng)
        bag = BagOfPatterns(window=8)
        counts = bag.fit_transform(matrix, labels)
        assert counts.shape == (30, bag.n_features)
        assert (counts >= 0).all()

    def test_total_counts_match_tokens(self, rng):
        matrix, labels = self._matrix_and_labels(rng)
        bag = BagOfPatterns(window=8, use_bigrams=False)
        counts = bag.fit_transform(matrix, labels)
        # Without bigrams each series contributes length - window + 1 words,
        # all of which are in-vocabulary at fit time.
        expected = matrix.shape[1] - 8 + 1
        np.testing.assert_array_equal(counts.sum(axis=1), expected)

    def test_unseen_words_dropped_at_transform(self, rng):
        matrix, labels = self._matrix_and_labels(rng)
        bag = BagOfPatterns(window=8, use_bigrams=False)
        bag.fit(matrix, labels)
        unseen = rng.normal(0, 100, size=(3, 40))
        counts = bag.transform(unseen)
        assert (counts.sum(axis=1) <= matrix.shape[1] - 8 + 1).all()

    def test_series_shorter_than_window_yield_zeros(self, rng):
        matrix, labels = self._matrix_and_labels(rng)
        bag = BagOfPatterns(window=8).fit(matrix, labels)
        counts = bag.transform(np.zeros((2, 5)))
        np.testing.assert_array_equal(counts, 0.0)

    def test_bigrams_add_features(self, rng):
        matrix, labels = self._matrix_and_labels(rng)
        without = BagOfPatterns(window=8, use_bigrams=False).fit(
            matrix, labels
        )
        with_bigrams = BagOfPatterns(window=8, use_bigrams=True).fit(
            matrix, labels
        )
        assert with_bigrams.n_features > without.n_features

    def test_transform_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            BagOfPatterns(window=4).transform(np.zeros((1, 10)))

    @pytest.mark.parametrize("n_labels", [29, 31])
    def test_fit_rejects_label_count_mismatch(self, rng, n_labels):
        # Too few labels used to raise IndexError from the window-label
        # gather; too many silently misaligned the window labels.
        matrix, _ = self._matrix_and_labels(rng)
        labels = np.asarray([0, 1] * 16)[:n_labels]
        with pytest.raises(DataError, match="one label per series"):
            BagOfPatterns(window=8).fit(matrix, labels)
        with pytest.raises(DataError, match="one label per series"):
            BagOfPatterns(window=8).fit_transform(matrix, labels)

    def test_transform_rejects_one_dimensional_input(self, rng):
        matrix, labels = self._matrix_and_labels(rng)
        bag = BagOfPatterns(window=8).fit(matrix, labels)
        with pytest.raises(DataError, match="2-D"):
            bag.transform(matrix[0])
