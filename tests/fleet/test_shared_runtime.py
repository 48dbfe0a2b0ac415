"""The fleet and the single-server harness share one replay runtime.

A one-shard fleet is ``run_scenario`` plus admission and commitment
plumbing, so everything a scenario declares — corruption and injected
faults included — must reach the same decisions and the same serving
counters on both drivers. Forked shard workers must also keep their
own spans out of the parent's trace file.
"""

import json

import pytest

from repro.core.pool import fork_available
from repro.fleet import FleetConfig
from repro.obs.events import TraceWriter
from repro.obs.metrics import metrics_from_spans
from repro.obs.trace import Tracer, use_tracer
from repro.slo import run_scenario
from tests.fleet.test_coordinator import (
    serve,
    tiny_config,
    tiny_registries,
    tiny_scenario,
)

ONE_SHARD = FleetConfig(
    n_shards=1,
    max_active_per_shard=64,
    admission_capacity=64,
    tick_events=10_000,
)

CASES = {
    "plain": {},
    "corruption": {
        "corruption": {"ops": ["missing_blocks:3", "additive_noise:2"]}
    },
    "faults": {"faults": ["consult:timeout:5"]},
}


def serve_counters(counters):
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("serve.")
    }


def decision_tuples(report):
    return [
        (d.label, d.decided_at, d.confidence, d.degraded, d.source)
        for d in report.decisions
    ]


@pytest.mark.parametrize("overrides", list(CASES.values()), ids=list(CASES))
def test_one_shard_fleet_honours_everything_the_scenario_declares(overrides):
    scenario = tiny_scenario(**overrides)
    algorithms, datasets = tiny_registries()
    base = run_scenario(scenario, algorithms=algorithms, datasets=datasets)
    fleet = serve(scenario, ONE_SHARD)
    assert decision_tuples(fleet) == decision_tuples(base)
    assert fleet.n_consults == base.n_consults
    assert fleet.deadline_misses == base.deadline_misses
    assert serve_counters(fleet.counters) == serve_counters(base.counters)
    if "corruption" in overrides:
        assert base.counters["serve.corrupted_points"] > 0
    if "faults" in overrides:
        assert base.counters["serve.consult_timeouts"] > 0


@pytest.mark.skipif(not fork_available(), reason="needs forked shards")
def test_forked_workers_stay_out_of_the_parent_trace_file(tmp_path):
    path = tmp_path / "fleet.jsonl"
    with TraceWriter(path) as writer:
        with use_tracer(Tracer(on_finish=writer.write_span)):
            serve(tiny_scenario(), tiny_config(), ["kill:1@1"])
    records = [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    spans = [record for record in records if record.get("type") == "span"]
    assert len(spans) == writer.n_spans
    span_ids = [record["span_id"] for record in spans]
    assert len(set(span_ids)) == len(span_ids)


def test_in_process_fleet_keeps_its_push_spans(monkeypatch):
    monkeypatch.setattr(
        "repro.fleet.coordinator.fork_available", lambda: False
    )
    tracer = Tracer()
    with use_tracer(tracer):
        report = serve(tiny_scenario(deadline_ms=3.0), tiny_config())
    snapshot = metrics_from_spans(tracer.finished_spans()).snapshot()
    assert report.deadline_misses > 0
    assert snapshot["slo.response_seconds"]["count"] == report.n_consults
    assert snapshot["slo.deadline_misses"] == report.deadline_misses


def test_in_process_fleet_trace_rolls_up_its_serve_counters(monkeypatch):
    # Rejected points are emitted outside any push span; the shard's
    # replay span must still carry them into the trace.
    monkeypatch.setattr(
        "repro.fleet.coordinator.fork_available", lambda: False
    )
    tracer = Tracer()
    with use_tracer(tracer):
        report = serve(
            tiny_scenario(faults=["push:corrupt:2,5"]), tiny_config()
        )
    snapshot = metrics_from_spans(tracer.finished_spans()).snapshot()
    live, rollup = (
        {k: v for k, v in counters.items() if k.startswith("serve.")}
        for counters in (report.counters, snapshot)
    )
    assert live["serve.rejected_points"] > 0
    assert rollup == live
