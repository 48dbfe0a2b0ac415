"""Property-based invariants of early classifiers over random datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import TimeSeriesDataset
from repro.etsc import ECTS
from repro.stats import earliness, harmonic_mean


@st.composite
def small_datasets(draw):
    """Random two-class datasets with a frequency-separated signal."""
    n = draw(st.integers(8, 20))
    length = draw(st.integers(8, 16))
    noise = draw(st.floats(0.0, 0.6))
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    t = np.arange(length)
    values = np.stack(
        [
            np.sin((0.3 + 0.4 * label) * t + rng.uniform(0, 2 * np.pi))
            + noise * rng.normal(size=length)
            for label in labels
        ]
    )
    return TimeSeriesDataset(values, labels)


class TestECTSInvariants:
    @given(small_datasets())
    @settings(max_examples=12, deadline=None)
    def test_prediction_contract(self, dataset):
        model = ECTS().train(dataset)
        predictions = model.predict(dataset)
        assert len(predictions) == dataset.n_instances
        for prediction in predictions:
            assert 1 <= prediction.prefix_length <= dataset.length
            assert prediction.label in dataset.classes

    @given(small_datasets())
    @settings(max_examples=12, deadline=None)
    def test_mpls_within_length(self, dataset):
        model = ECTS().train(dataset)
        assert (model._mpl >= 1).all()
        assert (model._mpl <= dataset.length).all()

    @given(small_datasets())
    @settings(max_examples=8, deadline=None)
    def test_clustering_only_lowers_mpls(self, dataset):
        plain = ECTS(use_clustering=False)
        plain.train(dataset)
        clustered = ECTS(use_clustering=True)
        clustered.train(dataset)
        assert (clustered._mpl <= plain._mpl).all()


class TestMetricConsistency:
    @given(st.integers(1, 64), st.floats(0.1, 1.0), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_fixed_prefix_earliness_matches_fraction(
        self, length, fraction, n_predictions
    ):
        expected = max(1, int(round(fraction * length)))
        prefixes = np.full(n_predictions, expected)
        measured = earliness(prefixes, length)
        assert measured == pytest.approx(expected / length)

    @given(
        st.lists(
            st.tuples(st.integers(1, 64), st.integers(1, 64)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_earliness_is_the_mean_observed_fraction(self, pairs):
        prefixes = [min(pair) for pair in pairs]
        lengths = [max(pair) for pair in pairs]
        measured = earliness(prefixes, lengths)
        assert 0.0 < measured <= 1.0
        assert measured == pytest.approx(
            np.mean([p / n for p, n in zip(prefixes, lengths)])
        )

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_harmonic_mean_zero_iff_degenerate(self, acc, earl):
        value = harmonic_mean(acc, earl)
        if acc > 0 and earl < 1:
            assert value > 0
        else:
            assert value == 0.0
