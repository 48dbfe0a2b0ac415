"""Tests for the guarded streaming session: guard, deadline, breaker,
fallback, and chaos injection — all deterministic, zero real delays."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import StreamingSession
from repro.core.prediction import SOURCE_FALLBACK, SOURCE_MODEL
from repro.etsc import TEASER
from repro.exceptions import ConfigurationError, DataError, TransientError
from repro.serve import (
    GUARD_REJECT,
    GUARD_STRICT,
    CircuitBreaker,
    GuardedStreamingSession,
    ServeFaultPlan,
    parse_fault_specs,
)
from tests.conftest import make_sinusoid_dataset


@pytest.fixture(scope="module")
def trained():
    dataset = make_sinusoid_dataset(40, length=24, noise=0.1)
    return TEASER(n_prefixes=6).train(dataset), dataset


def make_session(trained, **kwargs):
    classifier, dataset = trained
    kwargs.setdefault("fallback", "majority")
    return GuardedStreamingSession.for_dataset(
        classifier, dataset, **kwargs
    )


class TestBitIdenticalWithoutFaults:
    def test_clean_stream_matches_plain_session(self, trained):
        classifier, dataset = trained
        for i in range(6):
            plain = StreamingSession(classifier, dataset.length)
            expected = plain.run(dataset.values[i])
            guarded = make_session(trained)
            actual = guarded.run(dataset.values[i])
            assert actual.label == expected.label
            assert actual.decided_at == expected.decided_at
            assert actual.confidence == expected.confidence
            assert not actual.degraded
            assert actual.source == SOURCE_MODEL
            assert guarded.n_rejected == 0
            assert guarded.metrics.snapshot() == {}


class TestInputGuardIntegration:
    def test_nan_points_are_sanitized_not_fatal(self, trained):
        classifier, dataset = trained
        series = dataset.values[0].copy()
        series[0, 3] = np.nan
        series[0, 7] = np.inf
        session = make_session(trained)
        decision = session.run(series)
        assert decision is not None
        assert session.metrics.snapshot()["serve.sanitized_points"] == 2

    def test_reject_policy_drops_points_but_stream_decides(self, trained):
        classifier, dataset = trained
        series = dataset.values[0].copy()
        series[0, ::4] = np.nan  # every 4th point unusable
        session = make_session(trained, policy=GUARD_REJECT)
        decision = session.run(series)
        assert decision is not None
        assert session.n_rejected == int(np.isnan(series).sum())
        assert session.n_pushed == dataset.length
        assert session.n_observed == dataset.length - session.n_rejected
        assert (
            session.metrics.snapshot()["serve.rejected_points"]
            == session.n_rejected
        )

    def test_strict_policy_raises(self, trained):
        classifier, dataset = trained
        session = make_session(trained, policy=GUARD_STRICT)
        with pytest.raises(DataError, match="strict"):
            session.push(np.asarray([np.nan]))

    def test_final_point_rejected_still_forces_decision(self, trained):
        classifier, dataset = trained
        series = dataset.values[0].copy()
        series[0, -1] = np.nan
        session = make_session(trained, policy=GUARD_REJECT)
        decision = session.run(series)
        assert decision is not None

    def test_wrong_channel_count_dropped_leniently_raised_strictly(
        self, trained
    ):
        # A mis-shaped point over the wire is just another corrupt
        # observation to a lenient guard: dropped and counted. Strict
        # surfaces the plain session's explicit DataError.
        session = make_session(trained)
        assert session.push(np.asarray([1.0, 2.0])) is None
        assert session.n_rejected == 1
        assert "expected 1" in session.rejection_reasons[0]
        strict = make_session(trained, policy=GUARD_STRICT)
        with pytest.raises(DataError, match="expected 1"):
            strict.push(np.asarray([1.0, 2.0]))


class TestDeadlineAndFallback:
    def test_cooperative_deadline_swaps_in_fallback(self, trained):
        # The injectable clock jumps past the deadline on every reading,
        # so the after-the-fact check fires deterministically.
        ticks = iter(range(0, 10_000, 10))
        session = make_session(
            trained,
            deadline_seconds=1.0,
            clock=lambda: float(next(ticks)),
        )
        classifier, dataset = trained
        decision = session.run(dataset.values[0])
        assert decision.degraded
        assert decision.source == SOURCE_FALLBACK
        snapshot = session.metrics.snapshot()
        assert snapshot["serve.consult_timeouts"] > 0
        assert snapshot["serve.degraded_decisions"] == 1

    def test_no_fallback_keeps_late_model_answer(self, trained):
        ticks = iter(range(0, 10_000, 10))
        session = make_session(
            trained,
            fallback=None,
            deadline_seconds=1.0,
            clock=lambda: float(next(ticks)),
        )
        classifier, dataset = trained
        decision = session.run(dataset.values[0])
        assert not decision.degraded  # nothing to degrade to

    def test_consult_exception_degrades_to_fallback(self, trained):
        plan = ServeFaultPlan().fail_consult(at=None)
        session = make_session(trained, fault_injector=plan)
        classifier, dataset = trained
        decision = session.run(dataset.values[0])
        assert decision.degraded
        assert session.metrics.snapshot()["serve.consult_failures"] > 0

    def test_consult_exception_without_fallback_propagates(self, trained):
        plan = ServeFaultPlan().fail_consult(at=(1,))
        session = make_session(trained, fallback=None, fault_injector=plan)
        with pytest.raises(TransientError):
            session.push(0.0)

    def test_bad_deadline_rejected(self, trained):
        with pytest.raises(ConfigurationError, match="positive"):
            make_session(trained, deadline_seconds=0.0)

    def test_unfitted_fallback_rejected(self, trained):
        from repro.serve import MajorityClassFallback

        classifier, dataset = trained
        with pytest.raises(ConfigurationError, match="fitted"):
            GuardedStreamingSession(
                classifier,
                dataset.length,
                fallback=MajorityClassFallback(),
            )


class TestBreakerIntegration:
    def test_injected_timeouts_trip_the_breaker(self, trained):
        plan = ServeFaultPlan().timeout_consult(at=None)
        breaker = CircuitBreaker(
            failure_threshold=3, recovery_seconds=1e9
        )
        session = make_session(
            trained, fault_injector=plan, breaker=breaker
        )
        classifier, dataset = trained
        decision = session.run(dataset.values[0])
        assert decision.degraded
        assert breaker.state == "open"
        assert breaker.n_trips == 1
        snapshot = session.metrics.snapshot()
        assert snapshot["serve.breaker_trips"] == 1
        # After the trip, consultations skip the model entirely: exactly
        # failure_threshold timeouts were recorded, the rest served the
        # fallback straight away.
        assert snapshot["serve.consult_timeouts"] == 3
        assert snapshot["serve.fallback_consults"] == dataset.length

    def test_breaker_recovers_when_faults_stop(self, trained):
        # Timeouts only on the first 3 consultations; zero recovery time
        # means the very next consultation is the probe, which succeeds
        # and closes the breaker — the model then answers normally.
        plan = ServeFaultPlan().timeout_consult(at=(1, 2, 3))
        breaker = CircuitBreaker(failure_threshold=3, recovery_seconds=0.0)
        session = make_session(
            trained, fault_injector=plan, breaker=breaker
        )
        classifier, dataset = trained
        decision = session.run(dataset.values[0])
        assert breaker.state == "closed"
        assert breaker.n_trips == 1
        assert not decision.degraded  # the model recovered in time
        recoveries = [
            t for t in breaker.transitions if t[1] == "closed"
        ]
        assert len(recoveries) == 1

    def test_caller_transition_hook_is_chained_not_replaced(self, trained):
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            recovery_seconds=1e9,
            on_transition=lambda *a: seen.append(a),
        )
        plan = ServeFaultPlan().fail_consult(at=(1,))
        session = make_session(
            trained, fault_injector=plan, breaker=breaker
        )
        session.push(0.0)
        assert seen  # caller hook still fired
        assert session.metrics.snapshot()["serve.breaker_trips"] == 1

    def test_finished_session_freed_without_cycle_collection(self, trained):
        # The breaker holds its session weakly, so a finished session (and
        # its consult records) goes as soon as its last reference does.
        classifier, dataset = trained
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1, on_transition=lambda *a: seen.append(a)
        )
        gc.disable()
        try:
            session = make_session(trained, breaker=breaker)
            session.run(dataset.values[0])
            assert session.consult_records
            freed = weakref.ref(session)
            del session
            assert freed() is None
        finally:
            gc.enable()
        # A breaker that outlives its session still reaches other hooks.
        breaker.record_failure("after the session")
        assert [transition[1] for transition in seen] == ["open"]


class TestChaosInjection:
    def test_corrupt_push_counts_as_rejected(self, trained):
        plan = ServeFaultPlan().corrupt_push(at=(2, 5))
        session = make_session(trained, fault_injector=plan)
        classifier, dataset = trained
        decision = session.run(dataset.values[0])
        assert decision is not None
        assert session.n_rejected == 2
        assert len(plan.injected) == 2

    def test_corrupt_push_under_strict_guard_raises(self, trained):
        plan = ServeFaultPlan().corrupt_push(at=(1,))
        session = make_session(
            trained, policy=GUARD_STRICT, fault_injector=plan
        )
        with pytest.raises(DataError, match="injected corrupt push"):
            session.push(0.0)

    def test_fault_plan_records_schedule(self, trained):
        plan = ServeFaultPlan().timeout_consult(at=(4,))
        session = make_session(trained, fault_injector=plan)
        classifier, dataset = trained
        session.run(dataset.values[0])
        assert [(s, a) for s, _, _, a in plan.injected] == [("consult", 4)]

    def test_stream_name_scoping(self, trained):
        plan = ServeFaultPlan().timeout_consult(at=None, stream="other")
        session = make_session(
            trained, fault_injector=plan, stream_name="this"
        )
        classifier, dataset = trained
        decision = session.run(dataset.values[0])
        assert not decision.degraded
        assert plan.injected == []


class TestParseFaultSpecs:
    def test_round_trip(self):
        plan = parse_fault_specs(
            ["consult:timeout:3,7", "consult:error:5", "push:corrupt:2"]
        )
        assert len(plan.faults) == 3

    def test_omitted_indices_means_every_push(self):
        plan = parse_fault_specs(["consult:timeout"])
        assert plan.faults[0].attempts is None

    @pytest.mark.parametrize(
        "spec",
        [
            "consult",
            "consult:timeout:zero",
            "consult:timeout:0",
            "push:timeout:1",
            "consult:corrupt:1",
            "network:error:1",
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_specs([spec])


class TestConsultObserver:
    """The SLO harness's instrumentation hook: one ConsultRecord per
    consultation, delivered synchronously, with an injectable clock."""

    def test_every_consultation_produces_a_record(self, trained):
        from repro.serve import ConsultRecord

        classifier, dataset = trained
        seen = []
        session = make_session(trained, consult_observer=seen.append)
        session.run(dataset.values[0])
        assert seen == session.consult_records
        assert len(seen) > 0
        for index, record in enumerate(seen):
            assert isinstance(record, ConsultRecord)
            assert record.index == index + 1
            assert record.n_observed > 0
            assert record.elapsed_seconds >= 0
            assert record.source == SOURCE_MODEL
            assert not record.degraded
            assert not record.deadline_missed
            assert record.failure_kind is None
            assert not record.breaker_open

    def test_record_captures_injected_timeout(self, trained):
        plan = parse_fault_specs(["consult:timeout:2"])
        seen = []
        session = make_session(
            trained,
            fault_injector=plan,
            deadline_seconds=30.0,
            consult_observer=seen.append,
        )
        classifier, dataset = trained
        session.run(dataset.values[0])
        timed_out = [r for r in seen if r.failure_kind == "timeout"]
        assert len(timed_out) == 1
        record = timed_out[0]
        assert record.deadline_missed
        assert record.degraded
        assert record.source == SOURCE_FALLBACK

    def test_record_elapsed_uses_injected_clock(self, trained):
        import itertools

        # The session reads its clock a fixed number of times per
        # consultation; with a 0.25s tick the record's elapsed time is a
        # pure function of the injected clock, not of wall time.
        ticks = itertools.count(10.0, 0.25)
        seen = []
        session = make_session(
            trained,
            clock=lambda: next(ticks),
            consult_observer=seen.append,
        )
        classifier, dataset = trained
        session.push(dataset.values[0][:, 0])
        assert seen[0].elapsed_seconds == pytest.approx(0.75)

    def test_breaker_open_flagged_on_records(self, trained):
        plan = parse_fault_specs(["consult:error:1,2,3"])
        seen = []
        session = make_session(
            trained,
            fault_injector=plan,
            breaker=CircuitBreaker(
                failure_threshold=3, recovery_seconds=1000.0
            ),
            consult_observer=seen.append,
        )
        classifier, dataset = trained
        session.run(dataset.values[0])
        assert any(r.failure_kind == "transient" for r in seen)
        # After the third consecutive failure the breaker opens and
        # later consultations are short-circuited.
        assert any(r.breaker_open for r in seen)

    def test_observer_absent_keeps_records_anyway(self, trained):
        classifier, dataset = trained
        session = make_session(trained)
        session.run(dataset.values[0])
        assert len(session.consult_records) > 0


class TestPreemptiveDeadlineFlag:
    def test_cooperative_check_still_rules_when_preemption_is_off(
        self, trained
    ):
        # preemptive_deadline=False disables the SIGALRM guard (the SLO
        # harness's virtual clock would deadlock it) but the cooperative
        # post-consult check on the injected clock still degrades.
        ticks = iter([float(i) * 100.0 for i in range(400)])
        session = make_session(
            trained,
            deadline_seconds=1.0,
            clock=lambda: next(ticks),
            preemptive_deadline=False,
        )
        classifier, dataset = trained
        decision = session.run(dataset.values[0])
        assert decision.degraded
        assert all(
            record.deadline_missed for record in session.consult_records
        )


class TestInterruptedConsult:
    def test_interrupted_consult_does_not_leave_a_stale_stream(
        self, monkeypatch
    ):
        # A preemptive deadline can fire in the middle of a consult, after
        # the stream's prefix-distance cache advanced but before the
        # consult finished. The session must drop that stream, so every
        # later decision equals an uninterrupted session's.
        from repro.etsc import ECTS
        from repro.stats.distance import PrefixDistanceCache

        dataset = make_sinusoid_dataset(24, length=12, noise=0.3, seed=5)
        classifier = ECTS().train(dataset)

        def decide(series, interrupt_at=None):
            session = GuardedStreamingSession.for_dataset(
                classifier, dataset, fallback="majority"
            )
            calls = [0]
            original = PrefixDistanceCache.advance

            def advance(self, values):
                result = original(self, values)
                calls[0] += 1
                if calls[0] == interrupt_at:
                    raise TransientError("interrupted mid-consult")
                return result

            with monkeypatch.context() as patch:
                patch.setattr(PrefixDistanceCache, "advance", advance)
                decision = session.run(series)
            failures = session.metrics.snapshot().get(
                "serve.consult_failures", 0
            )
            assert failures == (interrupt_at is not None)
            return decision

        checked = 0
        for series in dataset.values:
            expected = decide(series)
            if expected.decided_at <= 3:
                continue  # decided before the interrupted consult
            interrupted = decide(series, interrupt_at=3)
            assert (interrupted.label, interrupted.decided_at) == (
                expected.label,
                expected.decided_at,
            )
            assert not interrupted.degraded
            checked += 1
        assert checked >= len(dataset.values) // 2
