"""Fleet coordinator: determinism, failover, shedding, trace rollups.

Everything runs on tiny injected registries (the slo test idiom) so the
whole module stays fast even though the kill/hang cases fork and destroy
real worker processes. The bundled scenarios at fleet scale are covered
by ``benchmarks/bench_fleet.py`` and the CI chaos job.
"""

import json

import pytest

from repro.core import AlgorithmRegistry, DatasetRegistry
from repro.etsc import ECTS
from repro.exceptions import ConfigurationError
from repro.fleet import (
    FleetConfig,
    SHED_DEGRADE,
    SHED_OLDEST,
    SHED_REJECT_NEW,
    parse_fleet_fault_specs,
    run_fleet,
)
from repro.obs.metrics import metrics_from_spans
from repro.obs.trace import Tracer, use_tracer
from repro.slo import parse_scenario, run_scenario
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
        "name": "tiny-fleet",
        "seed": 3,
        "clock": "virtual",
        "deadline_ms": 12.0,
        "stagger_ms": 7.0,
        "arrival": {"process": "uniform", "period_ms": 40.0},
        "service": {"base_ms": 1.0, "per_point_ms": 0.1, "jitter_ms": 0.5},
        "streams": [{"dataset": "sinusoid", "algorithm": "ECTS", "count": 6}],
        "breaker": {"threshold": 3, "recovery_ms": 30.0},
        "fallback": "prefix-1nn",
    }
    raw.update(overrides)
    return parse_scenario(raw)


def tiny_config(**overrides):
    kwargs = dict(
        n_shards=2,
        max_active_per_shard=4,
        admission_capacity=16,
        tick_events=16,
        heartbeat_timeout_seconds=10.0,
    )
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


def serve(scenario, config, fault_specs=()):
    algorithms, datasets = tiny_registries()
    # A fresh fault plan per run: plans record fired directives.
    plan = parse_fleet_fault_specs(list(fault_specs))
    return run_fleet(
        scenario, config, plan, algorithms=algorithms, datasets=datasets
    )


def assert_accounted(report):
    """Every requested stream reached exactly one terminal outcome."""
    assert report.fleet.n_requested == (
        report.fleet.n_decided
        + report.fleet.n_no_decision
        + report.fleet.n_degraded
        + report.fleet.n_shed
    )


class TestDeterminism:
    def test_same_inputs_reproduce_byte_for_byte(self):
        first = serve(tiny_scenario(), tiny_config())
        second = serve(tiny_scenario(), tiny_config())
        assert json.dumps(
            first.deterministic_dict(), sort_keys=True
        ) == json.dumps(second.deterministic_dict(), sort_keys=True)

    def test_deterministic_even_under_real_sigkill(self):
        # The acceptance bar: a run whose fault plan delivers a real
        # SIGKILL mid-replay still reproduces byte-identically.
        first = serve(tiny_scenario(), tiny_config(), ["kill:1@1"])
        second = serve(tiny_scenario(), tiny_config(), ["kill:1@1"])
        assert first.fleet.failovers >= 1
        assert json.dumps(
            first.deterministic_dict(), sort_keys=True
        ) == json.dumps(second.deterministic_dict(), sort_keys=True)

    def test_environment_is_quarantined_from_the_deterministic_core(self):
        report = serve(tiny_scenario(), tiny_config())
        core = report.deterministic_dict()
        assert "environment" not in core
        full = report.as_dict()
        assert "wall_seconds" in full["environment"]
        full.pop("environment")
        assert full == core


class TestSingleShardEquivalence:
    def test_one_shard_fleet_reproduces_the_harness(self):
        # A one-shard, no-fault, no-overflow fleet is the single-server
        # SLO harness with extra plumbing: decisions must agree
        # bit-for-bit, and the latency distribution must match exactly
        # (jitter to 1 ulp — stddev accumulation order differs).
        scenario = tiny_scenario()
        algorithms, datasets = tiny_registries()
        base = run_scenario(scenario, algorithms=algorithms, datasets=datasets)
        fleet = serve(
            scenario,
            FleetConfig(
                n_shards=1,
                max_active_per_shard=64,
                admission_capacity=64,
                tick_events=10_000,
            ),
        )
        assert [
            (d.label, d.decided_at, d.confidence, d.degraded, d.source)
            for d in fleet.decisions
        ] == [
            (d.label, d.decided_at, d.confidence, d.degraded, d.source)
            for d in base.decisions
        ]
        assert fleet.n_consults == base.n_consults
        assert fleet.n_points == base.n_points
        assert fleet.deadline_misses == base.deadline_misses
        ours, theirs = fleet.latency.as_dict(), base.latency.as_dict()
        jitter = ours.pop("jitter"), theirs.pop("jitter")
        assert ours == theirs
        assert jitter[0] == pytest.approx(jitter[1], rel=1e-12)


class TestFailover:
    def test_sigkill_loses_no_streams(self):
        report = serve(tiny_scenario(), tiny_config(), ["kill:1@1"])
        assert_accounted(report)
        assert report.fleet.failovers >= 1
        assert report.fleet.n_shed == 0
        # Every stream still got a real decision on a healthy shard.
        assert report.fleet.n_decided == 6
        victim = report.fleet.shards[1]
        assert victim.deaths == 1
        assert victim.generations == 2  # the slot was restarted

    def test_hung_shard_is_caught_by_the_heartbeat(self):
        report = serve(
            tiny_scenario(),
            tiny_config(heartbeat_timeout_seconds=0.5),
            ["hang:0@1"],
        )
        assert_accounted(report)
        assert report.fleet.failovers >= 1
        assert report.fleet.n_decided == 6
        assert report.fleet.shards[0].deaths == 1

    def test_exhausted_failover_limit_degrades_instead_of_retrying(self):
        # Kill the only slot on alternating ticks (faults fire before
        # dispatch, so back-to-back kills would hit an idle worker): the
        # first batch of streams loses its shard twice, runs out of
        # re-admissions, and must be answered by the batched fallback —
        # never dropped.
        report = serve(
            tiny_scenario(),
            tiny_config(n_shards=1, failover_limit=1),
            ["kill:0@1", "kill:0@3"],
        )
        assert_accounted(report)
        assert report.fleet.n_shed == 0
        assert report.fleet.n_degraded > 0
        assert report.fleet.batched_consults >= 1
        assert (
            report.counters["fleet.stream_failovers"] >= report.fleet.failovers
        )

    def test_fault_plan_must_name_an_existing_shard(self):
        with pytest.raises(ConfigurationError):
            serve(tiny_scenario(), tiny_config(n_shards=2), ["kill:2@1"])


class TestShedding:
    def test_reject_new_sheds_the_latest_arrivals(self):
        report = serve(
            tiny_scenario(),
            tiny_config(admission_capacity=4, shed_policy=SHED_REJECT_NEW),
        )
        assert_accounted(report)
        assert report.fleet.n_shed == 2
        assert report.fleet.n_decided == 4
        assert report.fleet.n_admitted == 4
        assert report.fleet.shed_rate == pytest.approx(2 / 6)

    def test_shed_oldest_evicts_the_head_of_the_backlog(self):
        report = serve(
            tiny_scenario(),
            tiny_config(admission_capacity=4, shed_policy=SHED_OLDEST),
        )
        assert_accounted(report)
        assert report.fleet.n_shed == 2
        assert report.fleet.n_decided == 4
        # Unlike reject-new, the *newcomers* were admitted.
        assert report.fleet.n_admitted == 6

    def test_degrade_policy_answers_overflow_from_the_batched_fallback(self):
        report = serve(
            tiny_scenario(),
            tiny_config(admission_capacity=4, shed_policy=SHED_DEGRADE),
        )
        assert_accounted(report)
        assert report.fleet.n_shed == 0
        assert report.fleet.n_degraded == 2
        assert report.fleet.n_decided == 4
        assert report.fleet.batched_consults >= 1
        degraded = [d for d in report.decisions if d.degraded]
        assert len(degraded) == 2
        assert all(d.source == "fallback" for d in degraded)

    def test_degrade_group_of_one_stream(self):
        # Capacity one below the stream count leaves a degrade group of
        # exactly one stream; the batched all-pairs path must handle
        # k == 1 (regression: it once rejected the (1, V, t) chunk).
        report = serve(
            tiny_scenario(),
            tiny_config(admission_capacity=5, shed_policy=SHED_DEGRADE),
        )
        assert_accounted(report)
        assert report.fleet.n_shed == 0
        assert report.fleet.n_degraded == 1
        assert report.fleet.n_decided == 5
        assert report.fleet.batched_consults >= 1

    def test_degrade_without_a_fallback_sheds_explicitly(self):
        # No fallback configured: degradation is impossible, and the
        # overflow must surface as shed — never vanish.
        report = serve(
            tiny_scenario(fallback=None),
            tiny_config(admission_capacity=4, shed_policy=SHED_DEGRADE),
        )
        assert_accounted(report)
        assert report.fleet.n_degraded == 0
        assert report.fleet.n_shed == 2


class TestTraceRollup:
    def test_fleet_rollup_matches_live_counters_exactly(self):
        # The satellite contract: replaying the emitted spans through
        # metrics_from_spans reproduces every live fleet.* counter —
        # including under failover and batched degradation.
        tracer = Tracer()
        with use_tracer(tracer):
            report = serve(
                tiny_scenario(),
                tiny_config(admission_capacity=4, shed_policy=SHED_DEGRADE),
                ["kill:1@1"],
            )
        snapshot = metrics_from_spans(tracer.finished_spans()).snapshot()
        assert report.fleet.failovers >= 1
        assert report.fleet.n_degraded > 0
        for key in (
            "fleet.requested",
            "fleet.admitted",
            "fleet.decided",
            "fleet.no_decision",
            "fleet.degraded",
            "fleet.shed",
            "fleet.failovers",
            "fleet.stream_failovers",
            "fleet.batched_consults",
        ):
            # Zero-valued counters are simply absent from the rollup.
            assert snapshot.get(key, 0) == report.counters[key], key


class TestFallbackExecutionMode:
    def test_in_process_mode_matches_the_forked_fleet(self, monkeypatch):
        # Platforms without fork degrade to in-process shards; the
        # deterministic core must not notice.
        forked = serve(tiny_scenario(), tiny_config())
        monkeypatch.setattr(
            "repro.fleet.coordinator.fork_available", lambda: False
        )
        inproc = serve(tiny_scenario(), tiny_config())
        assert json.dumps(
            inproc.deterministic_dict(), sort_keys=True
        ) == json.dumps(forked.deterministic_dict(), sort_keys=True)

    def test_fault_plans_require_forked_workers(self, monkeypatch):
        monkeypatch.setattr(
            "repro.fleet.coordinator.fork_available", lambda: False
        )
        with pytest.raises(ConfigurationError):
            serve(tiny_scenario(), tiny_config(), ["kill:0@1"])

    def test_wall_clock_scenarios_are_rejected(self):
        scenario = tiny_scenario(clock="wall", deadline_ms=None)
        with pytest.raises(ConfigurationError):
            serve(scenario, tiny_config())


class TestRender:
    def test_render_mentions_the_headline_numbers(self):
        report = serve(tiny_scenario(), tiny_config(), ["kill:1@1"])
        text = report.render()
        assert "tiny-fleet" in text
        assert "failover" in text
        assert "shed" in text
        assert "p99.9" in text
        assert "shard" in text
