"""Tests for the degraded-mode fallback predictors."""

import numpy as np
import pytest

from repro.core.prediction import SOURCE_FALLBACK
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.serve import (
    MajorityClassFallback,
    PrefixNearestNeighborFallback,
    make_fallback,
)
from tests.conftest import make_shift_dataset, make_sinusoid_dataset


class TestMajorityClassFallback:
    def test_majority_label_and_frequency_confidence(self):
        from repro.data import TimeSeriesDataset

        ds = TimeSeriesDataset(
            np.zeros((4, 5)), np.asarray([1, 1, 1, 0])
        )
        fallback = MajorityClassFallback().fit(ds)
        prediction = fallback.predict_prefix(np.zeros((1, 3)), 5)
        assert prediction.label == 1
        assert prediction.confidence == pytest.approx(0.75)

    def test_predictions_are_flagged_degraded(self):
        ds = make_sinusoid_dataset(10, length=8)
        prediction = MajorityClassFallback().fit(ds).predict_prefix(
            np.zeros((1, 4)), 8
        )
        assert prediction.degraded
        assert prediction.source == SOURCE_FALLBACK
        # No earliness trigger of its own: prefix_length tracks what was
        # observed, so a session can only commit it as the final decision.
        assert prediction.prefix_length == 4

    def test_use_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            MajorityClassFallback().predict_prefix(np.zeros((1, 3)), 5)


class TestPrefixNearestNeighbor:
    def test_recovers_easy_labels(self):
        ds = make_shift_dataset(30, length=24)
        fallback = PrefixNearestNeighborFallback().fit(ds)
        hits = 0
        for i in range(10):
            prediction = fallback.predict_prefix(ds.values[i], 24)
            hits += prediction.label == ds.labels[i]
        assert hits >= 9  # full-length prefixes of training data: near-exact

    def test_subsample_is_deterministic(self):
        ds = make_sinusoid_dataset(50, length=12)
        a = PrefixNearestNeighborFallback(max_reference=10).fit(ds)
        b = PrefixNearestNeighborFallback(max_reference=10).fit(ds)
        np.testing.assert_array_equal(a._values, b._values)
        assert a._values.shape[0] == 10

    def test_short_prefix_accepted(self):
        ds = make_sinusoid_dataset(20, length=16)
        fallback = PrefixNearestNeighborFallback().fit(ds)
        prediction = fallback.predict_prefix(ds.values[0][:, :1], 16)
        assert prediction.label in ds.classes
        assert 0.0 <= prediction.confidence <= 1.0

    def test_empty_prefix_rejected(self):
        ds = make_sinusoid_dataset(10, length=8)
        fallback = PrefixNearestNeighborFallback().fit(ds)
        with pytest.raises(DataError):
            fallback.predict_prefix(np.empty((1, 0)), 8)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PrefixNearestNeighborFallback(max_reference=0)
        with pytest.raises(ConfigurationError):
            PrefixNearestNeighborFallback(n_votes=0)


class TestInterleavedStreams:
    def test_alternating_streams_match_dedicated_predictors(self):
        # A shard serves many sessions through one predictor; each
        # session's stream keeps its own prefix-1nn cache, reproducing
        # dedicated per-stream predictors bit-for-bit.
        ds = make_shift_dataset(20, length=16)
        shared = PrefixNearestNeighborFallback().fit(ds)
        dedicated = [
            PrefixNearestNeighborFallback().fit(ds) for _ in range(2)
        ]
        streams = [ds.values[0], ds.values[11]]
        shared_streams = [shared.open_stream() for _ in streams]
        for t in range(1, 17):
            for s, series in enumerate(streams):
                ours = shared_streams[s].consult(series[:, :t], 16)
                theirs = dedicated[s].predict_prefix(series[:, :t], 16)
                assert (ours.label, ours.confidence) == (
                    theirs.label,
                    theirs.confidence,
                ), (s, t)


class TestBatchedConsultation:
    def test_batch_is_bit_identical_to_fresh_single_consults(self):
        ds = make_shift_dataset(24, length=12)
        fallback = PrefixNearestNeighborFallback().fit(ds)
        prefixes = np.stack([ds.values[i][:, :7] for i in (0, 5, 13, 20)])
        batch = fallback.predict_prefix_batch(prefixes, 12)
        assert len(batch) == 4
        for prefix, prediction in zip(prefixes, batch):
            single = PrefixNearestNeighborFallback().fit(ds).predict_prefix(
                prefix, 12
            )
            assert prediction.label == single.label
            assert prediction.confidence == single.confidence
            assert prediction.degraded
            assert prediction.source == SOURCE_FALLBACK

    def test_batch_of_one_matches_single_consult(self):
        # A degrade group can hold exactly one stream (the overload
        # scenario at small admission capacity produces these); the
        # all-pairs path must handle k == 1, not just k >= 2.
        ds = make_shift_dataset(24, length=12)
        fallback = PrefixNearestNeighborFallback().fit(ds)
        prefix = ds.values[3][:, :7]
        (prediction,) = fallback.predict_prefix_batch(prefix[None], 12)
        single = PrefixNearestNeighborFallback().fit(ds).predict_prefix(
            prefix, 12
        )
        assert prediction.label == single.label
        assert prediction.confidence == single.confidence
        assert prediction.degraded

    def test_batch_leaves_streaming_continuation_state_untouched(self):
        # The fleet batches degraded consults through the same predictor
        # instance that serves live streams; the batch must not disturb
        # an in-progress stream.
        ds = make_shift_dataset(20, length=16)
        fallback = PrefixNearestNeighborFallback().fit(ds)
        control = PrefixNearestNeighborFallback().fit(ds)
        stream, control_stream = fallback.open_stream(), control.open_stream()
        series = ds.values[0]
        stream.consult(series[:, :5], 16)
        control_stream.consult(series[:, :5], 16)
        fallback.predict_prefix_batch(
            np.stack([ds.values[7][:, :9], ds.values[12][:, :9]]), 16
        )
        after = stream.consult(series[:, :10], 16)
        expected = control_stream.consult(series[:, :10], 16)
        assert (after.label, after.confidence) == (
            expected.label,
            expected.confidence,
        )

    def test_base_class_batch_loops_single_consults(self):
        ds = make_sinusoid_dataset(10, length=8)
        fallback = MajorityClassFallback().fit(ds)
        batch = fallback.predict_prefix_batch(
            np.zeros((3, 1, 4)), 8
        )
        singles = [fallback.predict_prefix(np.zeros((1, 4)), 8)] * 3
        assert [p.label for p in batch] == [p.label for p in singles]
        assert [p.confidence for p in batch] == [
            p.confidence for p in singles
        ]

    def test_batch_validates_fit_and_shapes(self):
        with pytest.raises(NotFittedError):
            PrefixNearestNeighborFallback().predict_prefix_batch(
                np.zeros((2, 1, 3)), 8
            )
        ds = make_sinusoid_dataset(10, length=8)
        fallback = PrefixNearestNeighborFallback().fit(ds)
        with pytest.raises(DataError):
            fallback.predict_prefix_batch(np.empty((2, 1, 0)), 8)


class TestMakeFallback:
    def test_known_names(self):
        assert isinstance(make_fallback("majority"), MajorityClassFallback)
        assert isinstance(
            make_fallback("prefix-1nn"), PrefixNearestNeighborFallback
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fallback"):
            make_fallback("oracle")
