"""Tests for EarlyPrediction and the EarlyClassifier base contract."""

import numpy as np
import pytest

from repro.core import EarlyClassifier, EarlyPrediction, collect_predictions
from repro.core.base import FullTSClassifier
from repro.data import TimeSeriesDataset
from repro.exceptions import DataError, NotFittedError


class TestEarlyPrediction:
    def test_earliness_ratio(self):
        prediction = EarlyPrediction(label=1, prefix_length=3, series_length=12)
        assert prediction.earliness == pytest.approx(0.25)

    def test_full_length_earliness_is_one(self):
        prediction = EarlyPrediction(label=0, prefix_length=5, series_length=5)
        assert prediction.earliness == 1.0

    @pytest.mark.parametrize("prefix", [0, 13])
    def test_prefix_bounds_enforced(self, prefix):
        with pytest.raises(DataError):
            EarlyPrediction(label=0, prefix_length=prefix, series_length=12)

    @pytest.mark.parametrize("confidence", [-0.1, 1.1])
    def test_confidence_bounds_enforced(self, confidence):
        with pytest.raises(DataError):
            EarlyPrediction(
                label=0, prefix_length=1, series_length=2,
                confidence=confidence,
            )

    def test_collect_predictions(self):
        predictions = [
            EarlyPrediction(label=1, prefix_length=2, series_length=4),
            EarlyPrediction(label=0, prefix_length=4, series_length=4),
        ]
        labels, prefixes = collect_predictions(predictions)
        np.testing.assert_array_equal(labels, [1, 0])
        np.testing.assert_array_equal(prefixes, [2, 4])

    def test_collect_empty_rejected(self):
        with pytest.raises(DataError):
            collect_predictions([])


class _StubEarly(EarlyClassifier):
    """Predicts the majority training class at half the series length."""

    supports_multivariate = False

    def __init__(self):
        super().__init__()
        self._majority = 0

    def _train(self, dataset):
        values, counts = np.unique(dataset.labels, return_counts=True)
        self._majority = int(values[counts.argmax()])

    def _predict(self, dataset):
        prefix = max(1, dataset.length // 2)
        return [
            EarlyPrediction(self._majority, prefix, dataset.length)
            for _ in range(dataset.n_instances)
        ]


class _BrokenEarly(_StubEarly):
    def _predict(self, dataset):
        return super()._predict(dataset)[:-1]  # one prediction short


class TestEarlyClassifierBase:
    def _dataset(self, n=10, v=1, length=8):
        return TimeSeriesDataset(
            np.zeros((n, v, length)), np.arange(n) % 2
        )

    def test_train_predict_happy_path(self):
        model = _StubEarly().train(self._dataset())
        predictions = model.predict(self._dataset())
        assert len(predictions) == 10

    def test_predict_before_train_rejected(self):
        with pytest.raises(NotFittedError):
            _StubEarly().predict(self._dataset())

    def test_single_class_rejected(self):
        dataset = TimeSeriesDataset(np.zeros((4, 8)), np.zeros(4, dtype=int))
        with pytest.raises(DataError):
            _StubEarly().train(dataset)

    def test_multivariate_rejected_for_univariate_algorithm(self):
        with pytest.raises(DataError, match="univariate"):
            _StubEarly().train(self._dataset(v=3))

    def test_variable_count_mismatch_at_predict(self):
        model = _StubEarly().train(self._dataset(v=1))
        two_variable = TimeSeriesDataset(
            np.zeros((2, 2, 8)), np.asarray([0, 1])
        )
        with pytest.raises(DataError):
            model.predict(two_variable)

    def test_longer_test_series_rejected(self):
        model = _StubEarly().train(self._dataset(length=8))
        with pytest.raises(DataError):
            model.predict(self._dataset(length=9))

    def test_shorter_test_series_accepted(self):
        model = _StubEarly().train(self._dataset(length=8))
        predictions = model.predict(self._dataset(length=4))
        assert all(p.series_length == 4 for p in predictions)

    def test_prediction_count_mismatch_detected(self):
        model = _BrokenEarly().train(self._dataset())
        with pytest.raises(DataError, match="predictions"):
            model.predict(self._dataset())

    def test_trained_length_property(self):
        model = _StubEarly()
        with pytest.raises(NotFittedError):
            _ = model.trained_length
        model.train(self._dataset(length=8))
        assert model.trained_length == 8


class TestFullTSClassifierDefaults:
    def test_default_predict_proba_one_hot(self):
        class _Stub(FullTSClassifier):
            classes_ = np.asarray([3, 7])

            def train(self, dataset):
                return self

            def predict(self, dataset):
                return np.asarray([7, 3, 7])

            def clone(self):
                return _Stub()

        dataset = TimeSeriesDataset(np.zeros((3, 4)), np.asarray([3, 7, 7]))
        probabilities = _Stub().predict_proba(dataset)
        np.testing.assert_array_equal(
            probabilities, [[0, 1], [1, 0], [0, 1]]
        )


class TestMissingValueGuard:
    def test_training_on_nan_rejected_with_guidance(self):
        values = np.zeros((4, 8))
        values[0, 3] = np.nan
        dataset = TimeSeriesDataset(values, np.asarray([0, 1, 0, 1]))
        with pytest.raises(DataError, match="fill_missing"):
            _StubEarly().train(dataset)

    def test_training_on_infinities_rejected_with_the_count(self):
        values = np.zeros((4, 8))
        values[0, 3] = np.inf
        values[2, 5] = -np.inf
        dataset = TimeSeriesDataset(values, np.asarray([0, 1, 0, 1]))
        with pytest.raises(DataError, match="2 infinite value"):
            _StubEarly().train(dataset)

    def test_filled_dataset_trains(self):
        from repro.data import fill_missing

        values = np.zeros((4, 8))
        values[0, 3] = np.nan
        dataset = TimeSeriesDataset(values, np.asarray([0, 1, 0, 1]))
        model = _StubEarly().train(fill_missing(dataset))
        assert model.is_trained
