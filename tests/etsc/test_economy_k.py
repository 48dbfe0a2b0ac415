"""Tests for ECONOMY-K: cost function, cluster memberships, decisions."""

import numpy as np
import pytest

from repro.core.prediction import collect_predictions
from repro.core.streaming import StreamingSession
from repro.data import train_test_split
from repro.etsc import EconomyK
from repro.exceptions import ConfigurationError
from repro.stats import accuracy
from tests.conftest import make_shift_dataset, make_sinusoid_dataset


class TestConfiguration:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"misclassification_cost": 0.0},
            {"delay_cost": -1.0},
            {"n_checkpoints": 0},
        ],
    )
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EconomyK(**kwargs)


class TestTraining:
    def test_error_rate_table_shape(self):
        model = EconomyK(n_clusters=2, n_checkpoints=4, n_estimators=5)
        model.train(make_sinusoid_dataset(40))
        assert model._error_rates.shape == (len(model._checkpoints), 2)
        assert ((model._error_rates >= 0) & (model._error_rates <= 1)).all()

    def test_cluster_grid_search_picks_some_k(self):
        model = EconomyK(
            n_clusters=None, cluster_grid=(1, 2), n_checkpoints=4,
            n_estimators=5,
        )
        model.train(make_sinusoid_dataset(40))
        assert model._kmeans.n_clusters in (1, 2)

    def test_error_rates_fall_with_longer_prefixes_on_shift_data(self):
        # Before the onset nothing is learnable, after it everything is.
        model = EconomyK(n_clusters=1, n_checkpoints=6, n_estimators=10)
        model.train(make_shift_dataset(80, length=24, onset=12))
        early_error = model._error_rates[0].mean()
        late_error = model._error_rates[-1].mean()
        assert late_error < early_error


class TestDecision:
    def test_expected_cost_vector_length(self):
        model = EconomyK(n_clusters=2, n_checkpoints=5, n_estimators=5)
        dataset = make_sinusoid_dataset(40)
        model.train(dataset)
        row = dataset.values[0, 0, :]
        first = model._expected_costs(row[: model._checkpoints[0]], 0)
        assert len(first) == len(model._checkpoints)
        last = model._expected_costs(row, len(model._checkpoints) - 1)
        assert len(last) == 1

    def test_high_delay_cost_forces_early_decisions(self):
        dataset = make_sinusoid_dataset(60)
        train, test = train_test_split(dataset, 0.25)
        patient = EconomyK(
            n_clusters=2, n_checkpoints=6, delay_cost=0.0, n_estimators=6
        ).train(train)
        hasty = EconomyK(
            n_clusters=2, n_checkpoints=6, delay_cost=50.0, n_estimators=6
        ).train(train)
        _, patient_prefixes = collect_predictions(patient.predict(test))
        _, hasty_prefixes = collect_predictions(hasty.predict(test))
        assert hasty_prefixes.mean() <= patient_prefixes.mean()

    def test_decisions_land_on_checkpoints(self):
        dataset = make_sinusoid_dataset(40)
        train, test = train_test_split(dataset, 0.25)
        model = EconomyK(
            n_clusters=2, n_checkpoints=5, n_estimators=5
        ).train(train)
        checkpoints = set(model._checkpoints)
        for prediction in model.predict(test):
            assert prediction.prefix_length in checkpoints

    def test_learns_sinusoids(self):
        train, test = train_test_split(make_sinusoid_dataset(60), 0.25)
        model = EconomyK(
            n_clusters=2, n_checkpoints=6, n_estimators=10
        ).train(train)
        labels, _ = collect_predictions(model.predict(test))
        assert accuracy(test.labels, labels) > 0.7


class TestShortPrefixes:
    """A prefix shorter than the first checkpoint gets a forced answer."""

    @pytest.fixture(scope="class")
    def trained(self):
        dataset = make_sinusoid_dataset(40)
        model = EconomyK(n_clusters=2, n_checkpoints=5, n_estimators=5)
        return model.train(dataset), dataset

    def test_predict_one_is_defined_for_every_prefix_length(self, trained):
        model, dataset = trained
        first = model._checkpoints[0]
        majority = np.bincount(dataset.labels).argmax()
        row = dataset.values[0]
        for length in range(1, dataset.length + 1):
            prediction = model.predict_one(row[:, :length])
            assert 1 <= prediction.prefix_length <= length
            if length < first:
                assert prediction.prefix_length == length
                assert prediction.label == majority

    def test_short_prefix_answer_reads_no_value(self, trained):
        model, dataset = trained
        short = model._checkpoints[0] - 1
        for row in dataset.values[:5]:
            assert model.predict_one(row[:, :short]) == model.predict_one(
                -row[:, :short]
            )

    def test_stream_ended_before_the_first_checkpoint_finalizes(self, trained):
        model, dataset = trained
        session = StreamingSession(model, dataset.length)
        for t in range(model._checkpoints[0] - 1):
            assert session.push(dataset.values[0, :, t]) is None
        decision = session.finalize()
        assert decision.label == np.bincount(dataset.labels).argmax()
        assert decision.decided_at == model._checkpoints[0] - 1
