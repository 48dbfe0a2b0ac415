"""Tests for EDSC: Chebyshev thresholds, utility ranking, greedy coverage."""

import numpy as np
import pytest

from repro.core.prediction import collect_predictions
from repro.data import TimeSeriesDataset, train_test_split
from repro.etsc import EDSC
from repro.etsc.edsc import (
    _best_match_distances,
    _earliest_match_positions,
)
from repro.exceptions import ConfigurationError
from repro.stats import accuracy
from tests.conftest import make_sinusoid_dataset


def _motif_dataset(n=30, length=24, seed=0):
    """Class 1 carries a sharp motif early; class 0 is smooth noise."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    rng.shuffle(labels)
    values = rng.normal(0.0, 0.2, size=(n, length))
    motif = np.asarray([0.0, 4.0, -4.0, 4.0, 0.0])
    for i in np.flatnonzero(labels == 1):
        start = rng.integers(2, 8)
        values[i, start : start + 5] += motif
    return TimeSeriesDataset(values, labels)


class TestMatchHelpers:
    def test_best_match_distance_zero_for_planted_pattern(self):
        matrix = np.asarray([[0.0, 1.0, 2.0, 3.0], [9.0, 9.0, 9.0, 9.0]])
        distances = _best_match_distances(np.asarray([1.0, 2.0]), matrix)
        assert distances[0] == pytest.approx(0.0)
        assert distances[1] > 0

    def test_earliest_match_positions(self):
        matrix = np.asarray([[5.0, 1.0, 2.0, 5.0], [1.0, 2.0, 5.0, 5.0]])
        positions = _earliest_match_positions(
            np.asarray([1.0, 2.0]), matrix, threshold=0.1
        )
        # Prefix length at first match: pattern at offset 1 -> prefix 3.
        assert positions[0] == 3
        assert positions[1] == 2

    def test_no_match_is_zero(self):
        positions = _earliest_match_positions(
            np.asarray([100.0, 100.0]), np.zeros((1, 5)), threshold=0.1
        )
        assert positions[0] == 0


class TestTraining:
    def test_shapelets_extracted_from_motif_class(self):
        model = EDSC(n_lengths=2, stride=1, min_length=4)
        model.train(_motif_dataset())
        assert model.shapelets_  # at least one survived selection
        assert all(s.threshold > 0 for s in model.shapelets_)

    def test_utilities_sorted_descending(self):
        model = EDSC(n_lengths=2, stride=1, min_length=4)
        model.train(_motif_dataset())
        utilities = [s.utility for s in model.shapelets_]
        # Greedy selection preserves the utility ordering.
        assert utilities == sorted(utilities, reverse=True)

    def test_max_shapelets_cap(self):
        model = EDSC(n_lengths=2, stride=1, max_shapelets=3)
        model.train(_motif_dataset())
        assert len(model.shapelets_) <= 3

    def test_stride_reduces_candidates_but_still_learns(self):
        train, test = train_test_split(_motif_dataset(60), 0.25)
        model = EDSC(n_lengths=2, stride=2).train(train)
        labels, _ = collect_predictions(model.predict(test))
        assert accuracy(test.labels, labels) > 0.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0.0},
            {"min_length": 0},
            {"stride": 0},
            {"k": float("nan")},
            {"k": float("inf")},
            {"n_lengths": 0},
            {"n_lengths": -2},
            {"max_shapelets": 0},
        ],
    )
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EDSC(**kwargs)

    def test_candidate_lengths_respect_max(self):
        model = EDSC(min_length=3, max_length=6, n_lengths=None)
        assert model._candidate_lengths(20) == [3, 4, 5, 6]

    def test_candidate_lengths_default_half(self):
        model = EDSC(min_length=5, n_lengths=None)
        lengths = model._candidate_lengths(20)
        assert max(lengths) == 10


class TestPrediction:
    def test_motif_class_detected_early(self):
        train, test = train_test_split(_motif_dataset(60), 0.25)
        model = EDSC(n_lengths=2, stride=1, min_length=4).train(train)
        predictions = model.predict(test)
        labels, prefixes = collect_predictions(predictions)
        acc = accuracy(test.labels, labels)
        # EDSC is the weakest performer in the paper; well above chance is
        # the right expectation here.
        assert acc > 0.7
        # Motif sits in the first half -> matched instances commit early.
        matched = prefixes < test.length
        assert matched.any()
        assert prefixes[matched].mean() < test.length * 0.75

    def test_fallback_label_when_nothing_matches(self):
        train = _motif_dataset(30)
        model = EDSC(n_lengths=2, stride=1).train(train)
        # A wildly different series: no shapelet should match.
        alien = TimeSeriesDataset(
            np.full((1, train.length), 1000.0), np.asarray([0])
        )
        prediction = model.predict(alien)[0]
        assert prediction.prefix_length == train.length
        assert prediction.label in train.classes

    def test_sinusoid_dataset_reasonable(self):
        train, test = train_test_split(make_sinusoid_dataset(50), 0.25)
        model = EDSC(n_lengths=2, stride=2).train(train)
        labels, _ = collect_predictions(model.predict(test))
        assert accuracy(test.labels, labels) > 0.7
