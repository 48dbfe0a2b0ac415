"""EDSC's table scorer must learn bitwise the shapelets of the seed loop.

:func:`repro.etsc.edsc._WidthTable` scores every candidate of one width
from a matrix-product distance table and recomputes by the direct form
only the windows a rounding bound cannot decide. The reference below is
the loop it replaced: one ``sliding_window`` table per candidate,
``_score_candidate`` on it, and a greedy selection that rescans every
candidate it examines. Every candidate (pattern, threshold, label,
utility, in the same order), the rows it covers and the selected
shapelets must be bitwise equal on the data shapes that stress the bound:
continuous values, constant rows, a few discrete values, a large offset
with a small spread, duplicate windows and exact ties, tiny and huge
magnitudes, width 1, ``stride >= 2`` and ``n_lengths=None``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import TimeSeriesDataset
from repro.etsc import EDSC
from repro.etsc.edsc import Shapelet
from repro.stats.backends.numpy_backend import (
    NumpyBackend,
    direct_distances,
    strided_windows,
)
from repro.stats.distance import sliding_window_distances


# -- the seed loop -------------------------------------------------------
def _reference_positions(window_distances, width, threshold):
    hits = window_distances <= threshold
    return np.where(hits.any(axis=1), hits.argmax(axis=1) + width, 0)


def _reference_score_candidate(model, pattern, label, matrix, labels):
    """Chebyshev threshold + utility for one candidate subsequence."""
    window_distances = sliding_window_distances(pattern, matrix)
    distances = window_distances.min(axis=1)
    other = distances[labels != label]
    if other.size == 0:
        return None
    spread = other.std()
    threshold = max(float(other.mean() - model.k * spread), 0.0)
    if threshold <= 0.0:
        return None
    matches = _reference_positions(window_distances, len(pattern), threshold)
    covered = matches > 0
    if not covered.any():
        return None
    covered_same = covered & (labels == label)
    precision = covered_same.sum() / covered.sum()
    n_same = (labels == label).sum()
    lengths = matrix.shape[1]
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


def _reference_candidates(model, matrix, labels):
    candidates = []
    n_rows, length = matrix.shape
    for width in model._candidate_lengths(length):
        for i in range(n_rows):
            row = matrix[i]
            for start in range(0, length - width + 1, model.stride):
                shapelet = _reference_score_candidate(
                    model, row[start : start + width], int(labels[i]),
                    matrix, labels,
                )
                if shapelet is not None:
                    candidates.append(shapelet)
    candidates.sort(key=lambda s: s.utility, reverse=True)
    return candidates


def _reference_selection(model, matrix, labels, candidates):
    selected = []
    covered = np.zeros(matrix.shape[0], dtype=bool)
    for shapelet in candidates:
        if covered.all() or len(selected) >= model.max_shapelets:
            break
        matches = _reference_positions(
            sliding_window_distances(shapelet.pattern, matrix),
            shapelet.length,
            shapelet.threshold,
        )
        newly = (matches > 0) & ~covered
        if newly.any():
            selected.append(shapelet)
            covered |= matches > 0
    return selected


# -- inputs ---------------------------------------------------------------
KINDS = (
    "continuous", "constant", "discrete", "offset", "duplicates", "ties",
    "tiny", "huge",
)


def _matrix(kind, n_rows, length, rng):
    """Values of the shapes the rounding bound must decide exactly."""
    if kind == "continuous":
        return rng.normal(size=(n_rows, length))
    if kind == "constant":  # constant rows, some sharing one value
        values = rng.normal(size=(n_rows, length))
        flat = rng.random(n_rows) < 0.6
        values[flat] = rng.integers(-1, 2, size=(flat.sum(), 1)) * 0.5
        return values
    if kind == "discrete":
        return rng.integers(0, 3, size=(n_rows, length)).astype(float)
    if kind == "offset":  # a large offset with a small spread
        return 47.0 + 3.0 * rng.random((n_rows, length))
    if kind == "duplicates":  # whole rows repeated
        base = rng.normal(size=(max(1, n_rows // 3), length))
        return base[rng.integers(0, len(base), n_rows)]
    if kind == "ties":  # periodic rows: equal windows within a row
        period = rng.integers(1, 4)
        motif = rng.integers(-2, 3, size=(n_rows, period)).astype(float)
        return np.tile(motif, (1, length // period + 1))[:, :length]
    if kind == "tiny":
        return rng.normal(size=(n_rows, length)) * 1e-160
    return rng.normal(size=(n_rows, length)) * 1e6  # huge


def _labels(n_rows, n_classes, rng):
    labels = np.arange(n_rows) % n_classes
    rng.shuffle(labels)
    return labels


def _assert_same_candidate(ours, reference):
    assert ours.pattern.tobytes() == reference.pattern.tobytes()
    assert ours.threshold.hex() == reference.threshold.hex()
    assert ours.label == reference.label
    assert ours.utility.hex() == reference.utility.hex()


def _assert_like_seed(model, matrix, labels):
    ranked = model._ranked_candidates(matrix, labels)
    reference = _reference_candidates(model, matrix, labels)
    assert len(ranked) == len(reference)
    for (shapelet, covered), expected in zip(ranked, reference):
        _assert_same_candidate(shapelet, expected)
        positions = _reference_positions(
            sliding_window_distances(expected.pattern, matrix),
            expected.length,
            expected.threshold,
        )
        np.testing.assert_array_equal(covered, positions > 0)
    if len(set(labels.tolist())) < 2:
        return
    model.train(TimeSeriesDataset(matrix, labels))
    selected = _reference_selection(model, matrix, labels, reference)
    assert len(model.shapelets_) == len(selected)
    for shapelet, expected in zip(model.shapelets_, selected):
        _assert_same_candidate(shapelet, expected)


_case = dict(
    kind=st.sampled_from(KINDS),
    n_rows=st.integers(4, 12),
    length=st.integers(3, 18),
    n_classes=st.integers(2, 3),
    k=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    min_length=st.integers(1, 4),
    max_length=st.one_of(st.none(), st.integers(1, 8)),
    n_lengths=st.one_of(st.none(), st.integers(1, 3)),
    stride=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)


def _check(kind, n_rows, length, n_classes, k, min_length, max_length,
           n_lengths, stride, seed):
    rng = np.random.default_rng(seed)
    model = EDSC(
        k=k, min_length=min_length, max_length=max_length,
        n_lengths=n_lengths, stride=stride, max_shapelets=8,
    )
    _assert_like_seed(
        model,
        _matrix(kind, n_rows, length, rng),
        _labels(n_rows, n_classes, rng),
    )


class TestTableScorer:
    @settings(max_examples=150, deadline=None)
    @given(**_case)
    def test_candidates_and_shapelets_equal_the_seed_loop(self, **case):
        _check(**case)

    @pytest.mark.slow
    @pytest.mark.conformance
    @settings(max_examples=2500, deadline=None)
    @given(**_case)
    def test_candidates_and_shapelets_equal_the_seed_loop_deep(self, **case):
        _check(**case)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_with_exhaustive_lengths(self, kind):
        rng = np.random.default_rng(7)
        model = EDSC(k=0.5, min_length=1, n_lengths=None, stride=1)
        _assert_like_seed(
            model, _matrix(kind, 10, 16, rng), _labels(10, 2, rng)
        )

    def test_width_one_and_wide_stride(self):
        rng = np.random.default_rng(3)
        matrix = _matrix("discrete", 9, 12, rng)
        labels = _labels(9, 2, rng)
        for model in (
            EDSC(k=0.5, min_length=1, max_length=1),
            EDSC(k=0.5, min_length=2, n_lengths=None, stride=4),
        ):
            _assert_like_seed(model, matrix, labels)

    def test_class_without_other_rows_scores_nothing(self):
        rng = np.random.default_rng(0)
        model = EDSC(k=0.5, min_length=2, n_lengths=None)
        matrix = _matrix("continuous", 6, 10, rng)
        labels = np.zeros(6, dtype=int)
        assert _reference_candidates(model, matrix, labels) == []
        _assert_like_seed(model, matrix, labels)

    def test_chunked_tables_equal_one_table(self):
        # A chunk of one candidate per matrix product and of many must
        # give the same candidates.
        rng = np.random.default_rng(5)
        matrix = _matrix("continuous", 8, 20, rng)
        labels = _labels(8, 2, rng)
        model = EDSC(k=0.5, min_length=3, n_lengths=2)
        with mock.patch("repro.etsc.edsc._CHUNK_ELEMENTS", 1):
            _assert_like_seed(model, matrix, labels)

    def test_training_calls_no_window_kernel(self):
        # Training reads its distances from the per-width tables; the
        # sliding_window kernel op is left to prediction.
        rng = np.random.default_rng(1)
        dataset = TimeSeriesDataset(
            _matrix("continuous", 12, 20, rng), _labels(12, 2, rng)
        )
        with mock.patch.object(
            NumpyBackend, "sliding_window", side_effect=AssertionError
        ):
            model = EDSC(k=0.5, min_length=3, n_lengths=2).train(dataset)
        assert model.shapelets_


class TestDirectDistances:
    @settings(max_examples=200, deadline=None)
    @given(
        n_rows=st.integers(1, 6),
        length=st.integers(1, 40),
        width=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 50.0, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gathered_pairs_equal_the_strided_table(
        self, n_rows, length, width, scale, seed
    ):
        # EDSC's exact recomputation gathers (pattern, window) pairs into
        # one (1, K, w) call; each must be bitwise the strided table's.
        width = min(width, length)
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n_rows, length)) * scale + rng.normal()
        pattern = matrix[rng.integers(n_rows)][:width].copy()
        table = direct_distances(
            strided_windows(matrix, width), pattern[None, None, :]
        )
        windows = strided_windows(matrix, width).reshape(-1, width)
        picks = rng.permutation(len(windows))
        gathered = direct_distances(
            windows[picks][None], np.tile(pattern, (picks.size, 1))[None]
        )[0]
        assert gathered.tobytes() == table.reshape(-1)[picks].tobytes()
