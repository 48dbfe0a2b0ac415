"""Scenario replay: determinism, queueing, degradation, trace rollups.

Everything runs on tiny injected registries (a 24-instance sinusoid
dataset and a minimal ECTS) so the whole module stays fast; the bundled
scenarios are exercised by ``benchmarks/bench_serve.py`` and CI. Cases
marked ``wall`` replay on the wall clock, measuring real consultation
latencies instead of simulating them.
"""

import json

import pytest

from repro.core import AlgorithmRegistry, DatasetRegistry
from repro.etsc import ECTS
from repro.obs.metrics import metrics_from_spans
from repro.obs.trace import Tracer, use_tracer
from repro.serve import ServeFaultPlan
from repro.slo import Scenario, parse_scenario, run_scenario
from tests.conftest import make_sinusoid_dataset


def tiny_registries():
    algorithms = AlgorithmRegistry()
    algorithms.register("ECTS", lambda: ECTS(support=0.0))
    datasets = DatasetRegistry()
    datasets.register(
        "sinusoid", lambda: make_sinusoid_dataset(24, length=20, noise=0.1)
    )
    return algorithms, datasets


def tiny_scenario(**overrides):
    raw = {
        "name": "tiny",
        "seed": 3,
        "clock": "virtual",
        "deadline_ms": 12.0,
        "stagger_ms": 7.0,
        "arrival": {"process": "uniform", "period_ms": 40.0},
        "service": {"base_ms": 1.0, "per_point_ms": 0.1, "jitter_ms": 0.5},
        "streams": [{"dataset": "sinusoid", "algorithm": "ECTS", "count": 3}],
        "breaker": {"threshold": 3, "recovery_ms": 30.0},
    }
    raw.update(overrides)
    return parse_scenario(raw)


def replay(scenario):
    algorithms, datasets = tiny_registries()
    return run_scenario(scenario, algorithms=algorithms, datasets=datasets)


def decision_tuples(report):
    return [
        (d.label, d.decided_at, d.confidence, d.degraded, d.source)
        for d in report.decisions
    ]


#: A wall-clock replay with no deadline: nothing real timing can preempt.
WALL = {"clock": "wall", "deadline_ms": None}
#: A wall-clock replay whose every consultation times out (injected, so
#: with zero real delay) under a deadline no real consult reaches.
WALL_ALL_TIMEOUTS = {
    "clock": "wall",
    "deadline_ms": 30000.0,
    "faults": ["consult:timeout"],
}


class TestDeterminism:
    def test_same_scenario_reproduces_byte_for_byte(self):
        first = replay(tiny_scenario())
        second = replay(tiny_scenario())
        assert json.dumps(
            first.deterministic_dict(), sort_keys=True
        ) == json.dumps(second.deterministic_dict(), sort_keys=True)

    def test_environment_is_quarantined_from_the_deterministic_core(self):
        report = replay(tiny_scenario())
        core = report.deterministic_dict()
        assert "environment" not in core
        full = report.as_dict()
        assert "wall_seconds" in full["environment"]
        # The core is exactly the full report minus environment.
        full.pop("environment")
        assert full == core

    @pytest.mark.parametrize(
        "overrides", [{}, WALL], ids=["virtual", "wall"]
    )
    def test_repeated_replays_reach_the_same_decisions(self, overrides):
        first = replay(tiny_scenario(**overrides))
        second = replay(tiny_scenario(**overrides))
        assert decision_tuples(first) == decision_tuples(second)

    def test_different_seed_changes_the_trajectory(self):
        first = replay(tiny_scenario(seed=3))
        second = replay(tiny_scenario(seed=4))
        assert (
            first.latency.as_dict() != second.latency.as_dict()
            or first.deadline_misses != second.deadline_misses
        )


class TestReportShape:
    def test_load_and_latency_accounting(self):
        report = replay(tiny_scenario())
        assert report.n_streams == 3
        assert report.n_points == 3 * 20
        # check_every=1: every push before the decision consults.
        assert 0 < report.n_consults <= report.n_points
        assert report.n_decided == 3
        assert 0.0 <= report.accuracy <= 1.0
        assert report.latency is not None
        assert report.latency.count == report.n_consults
        assert report.latency.p999 >= report.latency.p50 > 0
        assert report.latency.jitter >= 0
        assert report.iqr_seconds >= 0
        assert report.makespan_seconds > 0
        assert report.throughput_per_second > 0

    def test_wall_clock_mode_measures_instead_of_simulating(self):
        report = replay(tiny_scenario(**WALL))
        assert report.n_decided == report.n_streams == 3
        assert report.latency is not None
        assert report.latency.count == report.n_consults >= 3
        assert report.environment["wall_seconds"] > 0
        # A clean replay is served by the model alone.
        assert all(d.source == "model" for d in report.decisions)
        assert report.degraded_decisions == 0
        assert report.breaker_trips == 0


class TestSloMechanisms:
    def test_impossible_deadline_degrades_every_decision(self):
        # Service floor (1ms base) sits above the deadline: every model
        # consult times out, the breaker cycles, and all decisions come
        # from the fallback.
        self.check_every_decision_degraded(tiny_scenario(deadline_ms=0.5))

    def test_wall_clock_timeouts_degrade_every_decision(self):
        # The same on the wall clock, every consult timing out by
        # injection: every stream still decides, from the fallback.
        self.check_every_decision_degraded(tiny_scenario(**WALL_ALL_TIMEOUTS))

    @staticmethod
    def check_every_decision_degraded(scenario):
        report = replay(scenario)
        assert report.deadline_misses > 0
        assert report.breaker_trips > 0
        assert report.counters["serve.consult_timeouts"] > 0
        assert report.n_decided == 3
        assert report.degraded_decisions == 3
        assert report.degraded_decision_rate == 1.0
        assert all(d.source == "fallback" for d in report.decisions)

    def test_fault_scoped_to_an_absent_stream_changes_nothing(
        self, monkeypatch
    ):
        # The chaos path is pure observation until a fault fires: a
        # timeout scoped to a stream name that never occurs leaves the
        # replay identical to a clean one.
        plan = ServeFaultPlan().timeout_consult(at=None, stream="nowhere")
        clean = replay(tiny_scenario(**WALL))
        monkeypatch.setattr(Scenario, "fault_plan", lambda self: plan)
        scoped = replay(tiny_scenario(**WALL))
        assert plan.injected == []
        assert decision_tuples(scoped) == decision_tuples(clean)

    def test_bursty_queueing_misses_without_any_timeout(self):
        # Per-consult service (5ms) is comfortably under the 8ms
        # deadline, but bursts of 10 points arriving 1ms apart queue up
        # behind the single server — misses come from waiting, not from
        # slow consultations.
        scenario = tiny_scenario(
            deadline_ms=8.0,
            arrival={
                "process": "bursty",
                "period_ms": 1.0,
                "burst_size": 10,
                "idle_ms": 500.0,
            },
            service={"base_ms": 5.0, "per_point_ms": 0.0, "jitter_ms": 0.0},
            stagger_ms=0.5,
        )
        report = replay(scenario)
        assert report.deadline_misses > 0
        assert report.counters.get("serve.consult_timeouts", 0) == 0

    def test_injected_faults_flow_through_counters(self):
        scenario = tiny_scenario(
            faults=["consult:error:2,3,4", "push:corrupt:6"]
        )
        report = replay(scenario)
        assert report.counters.get("serve.consult_failures", 0) > 0
        assert report.counters.get("serve.rejected_points", 0) > 0
        assert report.breaker_trips > 0


class TestTraceRollup:
    def test_trace_rollup_matches_live_report_exactly(self):
        # Replaying under a tracer and re-aggregating the spans must
        # reproduce the live SLO counters *exactly* — the trace is a
        # complete record, not a sample.
        self.check_rollup(
            tiny_scenario(deadline_ms=3.0, faults=["consult:timeout:5"])
        )

    def test_wall_clock_trace_rollup_matches_live_report_exactly(self):
        self.check_rollup(tiny_scenario(**WALL_ALL_TIMEOUTS))

    @staticmethod
    def check_rollup(scenario):
        tracer = Tracer()
        with use_tracer(tracer):
            report = replay(scenario)
        snapshot = metrics_from_spans(tracer.finished_spans()).snapshot()
        assert report.deadline_misses > 0
        assert (
            snapshot.get("slo.deadline_misses", 0) == report.deadline_misses
        )
        assert (
            snapshot.get("serve.degraded_decisions", 0)
            == report.degraded_decisions
        )
        assert snapshot.get("serve.breaker_trips", 0) == report.breaker_trips
        assert (
            snapshot["slo.response_seconds"]["count"] == report.n_consults
        )
        # Injected timeouts roll up as timeouts (the live session's
        # counter split), not as generic failures.
        assert snapshot["serve.consult_timeouts"] > 0
        assert "serve.consult_failures" not in snapshot

    def test_breaker_open_skips_do_not_inflate_degraded_rollup(self):
        # A stuck-open breaker serves many mid-stream consultations from
        # the fallback without committing a decision; only the decisions
        # themselves may count as degraded, live and from the trace.
        scenario = tiny_scenario(
            faults=["consult:error:2,3,4"],
            breaker={"threshold": 3, "recovery_ms": 1e8},
        )
        tracer = Tracer()
        with use_tracer(tracer):
            report = replay(scenario)
        snapshot = metrics_from_spans(tracer.finished_spans()).snapshot()
        # The breaker stays open for the rest of each stream, so every
        # decision is fallback-sourced...
        assert report.degraded_decisions == report.n_decided == 3
        # ...and the trace agrees exactly despite the many
        # fallback-sourced, non-deciding consultations in between.
        assert (
            snapshot.get("serve.degraded_decisions", 0)
            == report.degraded_decisions
        )

    def test_clean_run_rolls_up_zero_misses(self):
        scenario = tiny_scenario(deadline_ms=1000.0)
        tracer = Tracer()
        with use_tracer(tracer):
            report = replay(scenario)
        snapshot = metrics_from_spans(tracer.finished_spans()).snapshot()
        assert report.deadline_misses == 0
        assert snapshot.get("slo.deadline_misses", 0) == 0
        assert (
            snapshot["slo.response_seconds"]["count"] == report.n_consults
        )


class TestRender:
    def test_render_mentions_the_headline_numbers(self):
        for overrides in ({}, WALL):
            text = replay(tiny_scenario(**overrides)).render()
            assert "scenario 'tiny'" in text
            assert "deadline miss(es)" in text
            assert "p99.9" in text
            assert "jitter" in text
