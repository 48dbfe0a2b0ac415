"""Tests for push-time corruption: schedules, determinism, and the
guarded-session integration (counters + provenance)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.robustness import STREAM_OPERATOR_NAMES, StreamCorruptor
from repro.robustness.operators import severity_params
from repro.serve import GuardedStreamingSession, ServeFaultPlan
from tests.conftest import make_sinusoid_dataset

LENGTH = 40


def replay(corruptor, stream="s", length=LENGTH, channels=1, value=1.0):
    """Push a constant stream through; returns (delivered, fired-ops)."""
    delivered, fired = [], []
    for index in range(1, length + 1):
        point = np.full(channels, value)
        out, ops = corruptor.apply(stream, index, point, length)
        delivered.append(out)
        fired.append(list(ops))
    return np.asarray(delivered), fired


class TestConstruction:
    def test_severity_zero_specs_are_dropped(self):
        corruptor = StreamCorruptor(["missing_blocks:0", "additive_noise:0"])
        assert not corruptor.active
        assert corruptor.describe() == []

    def test_active_specs_survive(self):
        corruptor = StreamCorruptor(
            ["missing_blocks:0", "additive_noise:2@tail"]
        )
        assert corruptor.active
        assert corruptor.describe() == ["additive_noise:2@tail"]

    @pytest.mark.parametrize("op", ["label_noise", "concept_drift"])
    def test_grid_only_operators_rejected(self, op):
        with pytest.raises(ConfigurationError, match="no push-time"):
            StreamCorruptor([f"{op}:2"])

    def test_stream_operator_names_exclude_grid_only_ops(self):
        assert "label_noise" not in STREAM_OPERATOR_NAMES
        assert "concept_drift" not in STREAM_OPERATOR_NAMES
        assert len(STREAM_OPERATOR_NAMES) == 6


class TestInactiveNoOp:
    def test_apply_returns_same_object_untouched(self):
        corruptor = StreamCorruptor(["missing_blocks:0"])
        point = np.asarray([1.0, 2.0])
        out, fired = corruptor.apply("s", 1, point, LENGTH)
        assert out is point
        assert fired == []
        assert corruptor.fired == []


class TestSchedules:
    def test_deterministic_across_instances(self):
        a, _ = replay(StreamCorruptor(["point_dropout:3"], seed=4))
        b, _ = replay(StreamCorruptor(["point_dropout:3"], seed=4))
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_schedule(self):
        a, _ = replay(StreamCorruptor(["point_dropout:3"], seed=0))
        b, _ = replay(StreamCorruptor(["point_dropout:3"], seed=1))
        assert not np.array_equal(np.isnan(a), np.isnan(b))

    def test_streams_are_independent(self):
        corruptor = StreamCorruptor(["point_dropout:3"], seed=0)
        a, _ = replay(corruptor, stream="alpha")
        b, _ = replay(corruptor, stream="beta")
        assert not np.array_equal(np.isnan(a), np.isnan(b))

    def test_missing_blocks_is_one_contiguous_nan_run(self):
        delivered, fired = replay(StreamCorruptor(["missing_blocks:3"]))
        nans = np.flatnonzero(np.isnan(delivered[:, 0]))
        fraction = severity_params("missing_blocks", 3)["block_fraction"]
        assert nans.size == max(1, int(round(fraction * LENGTH)))
        assert nans[-1] - nans[0] == nans.size - 1
        for index in nans:
            assert fired[index] == ["missing_blocks"]

    def test_truncate_varlen_kills_the_tail(self):
        delivered, _ = replay(StreamCorruptor(["truncate_varlen:5"]))
        missing = np.isnan(delivered[:, 0])
        assert missing.any()
        first = np.flatnonzero(missing)[0]
        assert missing[first:].all()

    def test_irregular_resample_repeats_previous_delivery(self):
        corruptor = StreamCorruptor(["irregular_resample:5"], seed=2)
        values = np.arange(1.0, LENGTH + 1.0)
        held = 0
        previous = None
        for index in range(1, LENGTH + 1):
            out, ops = corruptor.apply(
                "s", index, np.asarray([values[index - 1]]), LENGTH
            )
            if ops == ["irregular_resample"]:
                held += 1
                np.testing.assert_array_equal(out, previous)
            previous = out
        assert held > 0

    def test_additive_noise_scales_with_reference_std(self):
        base, _ = replay(
            StreamCorruptor(["additive_noise:2"], seed=3, noise_scale=1.0)
        )
        doubled, _ = replay(
            StreamCorruptor(["additive_noise:2"], seed=3, noise_scale=2.0)
        )
        np.testing.assert_allclose(
            doubled[:, 0] - 1.0, 2.0 * (base[:, 0] - 1.0), rtol=1e-12
        )

    def test_magnitude_warp_is_multiplicative(self):
        delivered, fired = replay(StreamCorruptor(["magnitude_warp:4"]))
        assert all(ops == ["magnitude_warp"] for ops in fired)
        assert not np.allclose(delivered[:, 0], 1.0)
        # Warp factors stay within 1 +- amplitude.
        amplitude = severity_params("magnitude_warp", 4)["amplitude"]
        assert np.all(np.abs(delivered[:, 0] - 1.0) <= amplitude + 1e-12)

    def test_fired_log_records_provenance(self):
        corruptor = StreamCorruptor(["missing_blocks:3"], seed=0)
        replay(corruptor, stream="s7")
        assert corruptor.fired
        for stream, index, op in corruptor.fired:
            assert stream == "s7"
            assert 1 <= index <= LENGTH
            assert op == "missing_blocks"


@pytest.fixture(scope="module")
def trained():
    from repro.etsc import TEASER

    dataset = make_sinusoid_dataset(40, length=24, noise=0.1)
    return TEASER(n_prefixes=6).train(dataset), dataset


class TestSessionIntegration:
    def _session(self, trained, corruptor=None, **kwargs):
        classifier, dataset = trained
        return GuardedStreamingSession.for_dataset(
            classifier, dataset, corruptor=corruptor, **kwargs
        )

    def test_corrupted_pushes_are_counted_and_logged(self, trained):
        _, dataset = trained
        corruptor = StreamCorruptor(["missing_blocks:4"], seed=1)
        session = self._session(trained, corruptor=corruptor)
        decision = session.run(dataset.values[0])
        assert decision is not None
        snapshot = session.metrics.snapshot()
        assert snapshot["serve.corrupted_points"] == len(
            session.corruption_events
        )
        assert snapshot["serve.corruption.missing_blocks"] == len(
            session.corruption_events
        )
        assert all(
            op == "missing_blocks" for _, op in session.corruption_events
        )

    def test_severity_zero_session_is_bit_identical(self, trained):
        _, dataset = trained
        clean = self._session(trained)
        expected = clean.run(dataset.values[0])
        noop = StreamCorruptor(["missing_blocks:0", "additive_noise:0"])
        corrupted = self._session(trained, corruptor=noop)
        actual = corrupted.run(dataset.values[0])
        assert actual.label == expected.label
        assert actual.decided_at == expected.decided_at
        assert actual.confidence == expected.confidence
        assert corrupted.corruption_events == []
        # No corruption counters: the metrics snapshot stays identical.
        assert corrupted.metrics.snapshot() == clean.metrics.snapshot()

    def test_trace_rollup_reproduces_corruption_counters(self, trained):
        _, dataset = trained
        corruptor = StreamCorruptor(
            ["missing_blocks:4", "additive_noise:2@tail"], seed=2
        )
        session = self._session(trained, corruptor=corruptor)
        live, rollup = self._traced_run(session, dataset.values[0])
        assert live["serve.corrupted_points"] > 0
        for counter in (
            "serve.corrupted_points",
            "serve.corruption.missing_blocks",
            "serve.corruption.additive_noise",
        ):
            assert rollup[counter] == live[counter]

    def test_trace_rollup_reproduces_guard_and_fallback_counters(
        self, trained
    ):
        from repro.serve import CircuitBreaker

        _, dataset = trained
        # Two failed consultations open the breaker for good, push 3 is
        # corrupted (rejected) and push 4 carries a NaN (sanitized).
        plan = ServeFaultPlan().fail_consult(at=(1, 2)).corrupt_push(at=(3,))
        session = self._session(
            trained,
            fault_injector=plan,
            breaker=CircuitBreaker(
                failure_threshold=2, recovery_seconds=1e9
            ),
        )
        series = dataset.values[0].copy()
        series[:, 3] = np.nan
        live, rollup = self._traced_run(session, series)
        for counter in (
            "serve.rejected_points",
            "serve.sanitized_points",
            "serve.fallback_consults",
            "serve.breaker_trips",
            "serve.consult_failures",
        ):
            assert live[counter] > 0, counter
        assert {
            key: value for key, value in rollup.items()
            if key.startswith("serve.")
        } == live

    @staticmethod
    def _traced_run(session, series):
        """Run ``series`` traced; the live and rolled-up snapshots."""
        from repro.obs.metrics import metrics_from_spans
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            session.run(series)
        rollup = metrics_from_spans(tracer.finished_spans()).snapshot()
        return session.metrics.snapshot(), rollup

    def test_guard_still_sanitizes_corrupted_points(self, trained):
        # NaNs injected by the corruptor reach the guard, which imputes
        # them — the stream still decides.
        _, dataset = trained
        corruptor = StreamCorruptor(["missing_blocks:5"], seed=0)
        session = self._session(trained, corruptor=corruptor)
        decision = session.run(dataset.values[2])
        assert decision is not None
        snapshot = session.metrics.snapshot()
        assert snapshot["serve.sanitized_points"] >= 1
        assert session.n_rejected == 0
