"""Tests for the text chart renderer and the streaming session."""

import numpy as np
import pytest

from repro.core import (
    StreamingSession,
    grouped_bars,
    heatmap,
    horizontal_bars,
)
from repro.etsc import ECEC, TEASER
from repro.exceptions import DataError, NotFittedError
from tests.conftest import make_sinusoid_dataset


class TestHorizontalBars:
    def test_proportional_lengths(self):
        chart = horizontal_bars({"full": 1.0, "half": 0.5}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_zero_value_no_bar(self):
        chart = horizontal_bars({"zero": 0.0, "one": 1.0}, width=10)
        assert "█" not in chart.splitlines()[0]

    def test_values_rendered(self):
        chart = horizontal_bars({"x": 0.123}, decimals=3)
        assert "0.123" in chart

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            horizontal_bars({})


class TestGroupedBars:
    def test_shared_scale_across_groups(self):
        chart = grouped_bars(
            {"g1": {"a": 1.0}, "g2": {"a": 0.5}}, width=10
        )
        lines = [line for line in chart.splitlines() if "█" in line]
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_group_headers_present(self):
        chart = grouped_bars({"Wide": {"ECEC": 0.9}})
        assert "Wide:" in chart


class TestHeatmap:
    def test_markers(self):
        chart = heatmap(
            {
                ("ECEC", "d1"): 0.5,
                ("ECEC", "d2"): 2.0,
                ("EDSC", "d1"): None,
            }
        )
        lines = chart.splitlines()
        assert any("o" in line and "X" in line for line in lines)
        assert any("#" in line for line in lines)
        assert "legend" in chart

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            heatmap({})


class TestStreamingSession:
    @pytest.fixture(scope="class")
    def trained(self):
        dataset = make_sinusoid_dataset(40, length=24, noise=0.1)
        return TEASER(n_prefixes=6).train(dataset), dataset

    def test_requires_trained_classifier(self):
        with pytest.raises(NotFittedError):
            StreamingSession(TEASER(), series_length=10)

    def test_decision_always_emitted_by_full_length(self, trained):
        classifier, dataset = trained
        for i in range(4):
            session = StreamingSession(classifier, dataset.length)
            decision = session.run(dataset.values[i])
            assert decision is not None
            assert 1 <= decision.decided_at <= dataset.length
            assert decision.label in dataset.classes

    def test_push_after_decision_is_absorbed(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        decision = session.run(dataset.values[0])
        assert session.is_decided
        assert session.decision == decision

    def test_push_beyond_length_rejected(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        session.run(dataset.values[0])
        with pytest.raises(DataError):
            session.push(0.0)

    def test_variable_count_checked(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        session.push(0.5)
        with pytest.raises(DataError):
            session.push(np.asarray([0.5, 0.5]))

    def test_wrong_channel_count_message_names_expectation(self, trained):
        # Regression: a wrong-width point must fail with an explicit
        # DataError naming both counts, not a numpy broadcast error from
        # deep inside the classifier.
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        with pytest.raises(DataError, match="3 variables, expected 1"):
            session.push(np.asarray([0.5, 0.5, 0.5]))

    def test_non_1d_point_rejected(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        with pytest.raises(DataError, match="1-D"):
            session.push(np.ones((2, 2)))
        with pytest.raises(DataError, match="not numeric"):
            session.push("not-a-number")
        # The failed pushes consumed nothing.
        assert session.n_observed == 0

    def test_finalize_short_stream(self, trained):
        # A stream that ends early (sensor dropout) still gets a forced
        # decision on what arrived; finalize is idempotent after that.
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        for t in range(5):
            session.push(dataset.values[0][:, t])
        decision = session.finalize()
        assert decision is not None
        assert decision.decided_at <= 5
        assert session.finalize() == decision

    def test_finalize_empty_stream_rejected(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        with pytest.raises(DataError, match="no observations"):
            session.finalize()

    def test_latency_ratio(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        session.run(dataset.values[0])
        ratio = session.mean_latency_ratio(frequency_seconds=60.0)
        assert ratio > 0.0

    def test_latency_summary_statistics(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        session.run(dataset.values[0])
        summary = session.latency_summary()
        assert summary.count == len(session.push_latencies)
        assert summary.count > 0
        assert 0.0 < summary.p50 <= summary.p95 <= summary.p99 <= summary.max
        assert summary.mean == pytest.approx(
            float(np.mean(session.push_latencies))
        )
        assert summary.max == pytest.approx(max(session.push_latencies))
        as_dict = summary.as_dict()
        assert set(as_dict) == {
            "count",
            "mean",
            "p50",
            "p95",
            "p99",
            "p999",
            "max",
            "jitter",
            "over_budget_count",
        }
        # No budget supplied -> nothing counted as over budget.
        assert summary.over_budget_count == 0

    def test_latency_summary_p999_and_jitter(self, trained):
        from repro.core.streaming import LatencySummary

        latencies = np.linspace(0.001, 0.1, 1000)
        summary = LatencySummary.from_latencies(latencies)
        assert summary.p999 == pytest.approx(np.quantile(latencies, 0.999))
        assert summary.jitter == pytest.approx(float(latencies.std()))
        assert summary.p99 <= summary.p999 <= summary.max
        as_dict = summary.as_dict()
        assert as_dict["p999"] == summary.p999
        assert as_dict["jitter"] == summary.jitter
        # Constant latencies: the extreme tail equals the max, no jitter.
        flat = LatencySummary.from_latencies([0.25] * 10)
        assert flat.p999 == pytest.approx(0.25)
        assert flat.jitter == 0.0

    def test_latency_summary_backward_compatible_construction(self, trained):
        from repro.core.streaming import LatencySummary

        # Historical positional construction (pre-p999/jitter fields)
        # still works: the new fields default to 0.
        summary = LatencySummary(
            count=3, mean=0.2, p50=0.2, p95=0.3, p99=0.3, max=0.3
        )
        assert summary.p999 == 0.0
        assert summary.jitter == 0.0

    def test_latency_summary_over_budget_count(self, trained):
        from repro.core.streaming import LatencySummary

        summary = LatencySummary.from_latencies(
            [0.1, 0.2, 0.9, 1.5], budget_seconds=0.5
        )
        assert summary.over_budget_count == 2
        assert summary.as_dict()["over_budget_count"] == 2
        with pytest.raises(DataError, match="positive"):
            LatencySummary.from_latencies([0.1], budget_seconds=0.0)

    def test_latency_summary_empty_sample_is_all_zero(self, trained):
        from repro.core.streaming import LatencySummary

        # An empty sample is a legitimate aggregate (a fleet shard that
        # served no consultations), not an error — and it must not hit
        # numpy.quantile's IndexError on zero-length input.
        for empty in (LatencySummary.from_latencies([]),
                      LatencySummary.empty()):
            assert empty.count == 0
            assert empty.mean == empty.p50 == empty.p99 == empty.p999 == 0.0
            assert empty.max == empty.jitter == 0.0
            assert empty.over_budget_count == 0
        # The budget validation still applies before the empty check.
        with pytest.raises(DataError, match="positive"):
            LatencySummary.from_latencies([], budget_seconds=-1.0)

    def test_latency_summary_tiny_sample_percentiles(self, trained):
        from repro.core.streaming import LatencySummary

        # Documented small-sample semantics: with n < 10 samples the
        # tail quantiles interpolate within the observed order
        # statistics and collapse onto the max — never an index error.
        single = LatencySummary.from_latencies([0.42])
        assert single.p50 == single.p95 == single.p999 == single.max == 0.42
        assert single.jitter == 0.0
        tiny = LatencySummary.from_latencies(
            [0.01, 0.02, 0.03, 0.04, 0.9], budget_seconds=0.5
        )
        assert tiny.count == 5
        assert tiny.p999 <= tiny.max == 0.9
        assert tiny.p99 == pytest.approx(np.quantile(
            [0.01, 0.02, 0.03, 0.04, 0.9], 0.99))
        assert tiny.over_budget_count == 1
        for n in range(1, 10):
            summary = LatencySummary.from_latencies([0.1] * n)
            assert summary.count == n
            assert summary.p999 == pytest.approx(0.1)

    def test_latency_summary_requires_consultations(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        with pytest.raises(DataError, match="no consultations"):
            session.latency_summary()

    def test_latency_summary_agrees_with_ratio(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        session.run(dataset.values[0])
        assert session.mean_latency_ratio(8.0) == pytest.approx(
            session.latency_summary().mean / 8.0
        )

    def test_check_every_reduces_consultations(self, trained):
        classifier, dataset = trained
        dense = StreamingSession(classifier, dataset.length, check_every=1)
        dense.run(dataset.values[1])
        sparse = StreamingSession(classifier, dataset.length, check_every=6)
        sparse.run(dataset.values[1])
        assert len(sparse.push_latencies) <= len(dense.push_latencies)

    def test_streaming_agrees_with_batch_prediction(self, trained):
        classifier, dataset = trained
        batch = classifier.predict(dataset)
        for i in range(6):
            session = StreamingSession(classifier, dataset.length)
            decision = session.run(dataset.values[i])
            # Streaming may lag the batch commitment by a step (boundary
            # ambiguity) but must agree on the label whenever the batch
            # committed strictly early.
            if batch[i].prefix_length < dataset.length:
                assert decision.label == batch[i].label

    def test_series_length_longer_than_training_rejected(self, trained):
        classifier, dataset = trained
        with pytest.raises(DataError):
            StreamingSession(classifier, dataset.length + 1)

    def test_run_length_mismatch_rejected(self, trained):
        classifier, dataset = trained
        session = StreamingSession(classifier, dataset.length)
        with pytest.raises(DataError):
            session.run(dataset.values[0][:, :5])

    def test_multivariate_stream(self):
        from repro.core import VotingEnsemble

        dataset = make_sinusoid_dataset(30, length=16, n_variables=2)
        ensemble = VotingEnsemble(lambda: ECEC(n_prefixes=4))
        ensemble.train(dataset)
        session = StreamingSession(ensemble, dataset.length)
        decision = session.run(dataset.values[0])
        assert decision.label in dataset.classes

    def test_consults_see_the_pushed_points_in_order(self, trained):
        classifier, dataset = trained
        seen = []
        session = StreamingSession(classifier, dataset.length)
        consult = session._stream.consult
        session._stream.consult = lambda prefix: (
            seen.append(prefix.copy()) or consult(prefix)
        )
        row = dataset.values[1]
        for t in range(5):
            session.push(row[:, t])
            np.testing.assert_array_equal(session.observed, row[:, : t + 1])
        assert seen
        lengths = [prefix.shape[1] for prefix in seen]
        assert lengths == list(range(1, len(seen) + 1))
        for prefix in seen:
            np.testing.assert_array_equal(prefix, row[:, : prefix.shape[1]])
