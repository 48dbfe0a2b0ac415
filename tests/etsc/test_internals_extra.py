"""Additional internals coverage across algorithms and transforms."""

import numpy as np
import pytest

from repro.data import TimeSeriesDataset, train_test_split
from repro.etsc import ECEC, TEASER, EconomyK
from repro.transform import SFATransformer, prefix_lengths, window_lengths
from repro.tsc import WEASEL, MiniROCKET
from repro.tsc.minirocket import _dilations_for_length
from tests.conftest import make_sinusoid_dataset


class TestEconomyKInternals:
    def test_checkpoint_ladder_is_prefix_ladder(self):
        model = EconomyK(n_clusters=2, n_checkpoints=5, n_estimators=5)
        dataset = make_sinusoid_dataset(30, length=23)
        model.train(dataset)
        assert model._checkpoints == prefix_lengths(23, 5)

    def test_one_classifier_per_checkpoint(self):
        model = EconomyK(n_clusters=2, n_checkpoints=4, n_estimators=5)
        model.train(make_sinusoid_dataset(30))
        assert set(model._classifiers) == set(model._checkpoints)

    def test_membership_weights_normalised_in_decision(self):
        model = EconomyK(n_clusters=3, n_checkpoints=4, n_estimators=5)
        dataset = make_sinusoid_dataset(30)
        model.train(dataset)
        costs = model._expected_costs(dataset.values[0, 0, :8], 0)
        assert np.isfinite(costs).all()
        assert (costs >= 0).all()


class TestTeaserInternals:
    def test_multiclass_decision_features(self):
        probabilities = np.asarray([[0.5, 0.3, 0.2]])
        features = TEASER._decision_features(probabilities)
        assert features.shape == (1, 4)
        assert features[0, 3] == pytest.approx(0.2)  # 0.5 - 0.3

    def test_ladder_never_exceeds_length(self):
        model = TEASER(n_prefixes=20).train(
            make_sinusoid_dataset(30, length=12)
        )
        assert max(model._ladder) == 12
        assert len(model._ladder) <= 13


class TestEcecInternals:
    def test_reliability_keys_cover_prefixes_and_classes(self):
        dataset = make_sinusoid_dataset(30, n_classes=3)
        model = ECEC(n_prefixes=4).train(dataset)
        rows = {key[0] for key in model._reliability}
        assert rows == set(range(len(model._ladder)))
        labels = {key[1] for key in model._reliability}
        assert labels == {0, 1, 2}

    def test_all_reliabilities_are_probabilities(self):
        model = ECEC(n_prefixes=4).train(make_sinusoid_dataset(30))
        for value in model._reliability.values():
            assert 0.0 <= value <= 1.0


class TestWeaselInternals:
    def test_predict_proba_columns_follow_classes(self):
        dataset = make_sinusoid_dataset(45, n_classes=3)
        model = WEASEL(n_window_sizes=2, chi2_top_k=60).train(dataset)
        probabilities = model.predict_proba(dataset)
        predicted = model.classes_[probabilities.argmax(axis=1)]
        np.testing.assert_array_equal(predicted, model.predict(dataset))

    def test_chi2_top_k_caps_features(self):
        dataset = make_sinusoid_dataset(30)
        model = WEASEL(n_window_sizes=2, chi2_top_k=17).train(dataset)
        assert len(model._selector.selected_) <= 17

    def test_window_lengths_used_fit_series(self):
        for length in (6, 30, 200):
            for window in window_lengths(length, minimum=4, n_sizes=4):
                assert 1 <= window <= length


class TestMiniRocketInternals:
    def test_dilations_respect_receptive_field(self):
        for length in (10, 50, 500, 5000):
            for dilation in _dilations_for_length(length):
                assert 8 * dilation < max(length, 9)

    def test_dilation_count_grows_with_length(self):
        assert len(_dilations_for_length(500)) > len(
            _dilations_for_length(20)
        )

    def test_channel_subsets_valid(self):
        dataset = make_sinusoid_dataset(20, n_variables=4)
        model = MiniROCKET(n_features=200, seed=1).train(dataset)
        for subset in model._channel_subsets:
            assert len(subset) >= 1
            assert subset.max() < 4
            assert len(np.unique(subset)) == len(subset)


class TestSfaInternals:
    def test_vocabulary_size_formula(self):
        sfa = SFATransformer(word_length=3, alphabet_size=5)
        assert sfa.vocabulary_size == 125

    def test_boundaries_monotone(self, rng):
        windows = rng.normal(size=(80, 16))
        labels = rng.integers(0, 2, 80)
        sfa = SFATransformer(word_length=4, alphabet_size=4)
        sfa.fit(windows, labels)
        for row in sfa.boundaries_:
            finite = row[np.isfinite(row)]
            assert (np.diff(finite) >= -1e-12).all()


class TestStreamingEdge:
    def test_check_every_larger_than_length_forces_final_only(self):
        from repro.core import StreamingSession
        from repro.etsc import FixedPrefix

        dataset = make_sinusoid_dataset(20, length=10)
        model = FixedPrefix(fraction=0.5).train(dataset)
        session = StreamingSession(model, 10, check_every=99)
        decision = session.run(dataset.values[0])
        assert decision.decided_at == 10
        assert len(session.push_latencies) == 1


class TestVotingWithExtensions:
    def test_sprt_in_extended_grid_records_multiclass_failure(self):
        from repro.core import BenchmarkRunner, DatasetRegistry
        from repro.core.registry import extended_algorithms

        datasets = DatasetRegistry()
        datasets.register(
            "tri", lambda: make_sinusoid_dataset(24, n_classes=3, name="tri")
        )
        runner = BenchmarkRunner(
            extended_algorithms(), datasets, n_folds=2
        )
        report = runner.run(
            algorithm_names=["SPRT"], dataset_names=["tri"]
        )
        assert ("SPRT", "tri") in report.failures
        assert "binary" in report.failures[("SPRT", "tri")]
