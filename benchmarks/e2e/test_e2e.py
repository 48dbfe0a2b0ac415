"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from layers import ROOT as ROOT_SPAN  # noqa: E402
from layers import (  # noqa: E402
    BenchTracer,
    Instrumentation,
    entry_points,
    layer_totals,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FakeSpan = namedtuple("FakeSpan", "name span_id parent_id duration")


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Self time.


def test_self_time_subtracts_children_and_charges_program_spans_to_layers():
    spans = [
        FakeSpan("etsc.predict", 4, 3, 2.0),
        FakeSpan("transform.sfa.fit", 5, 3, 1.5),
        FakeSpan("etsc.train", 3, 2, 5.0),
        FakeSpan("fold", 2, 1, 7.0),  # a program span: transparent
        FakeSpan("core.runner.run", 1, 0, 8.0),
        FakeSpan("push", 6, 0, 0.5),  # a program span under no layer
        FakeSpan(ROOT_SPAN, 0, None, 10.0),
    ]
    totals = layer_totals(spans)
    assert totals["core.runner.run"] == [1, pytest.approx(1.0 + 2.0)]
    assert totals["etsc.train"] == [1, pytest.approx(1.5)]
    assert totals["etsc.predict"] == [1, pytest.approx(2.0)]
    assert totals["transform.sfa.fit"] == [1, pytest.approx(1.5)]
    assert totals[ROOT_SPAN] == [0, pytest.approx(1.5 + 0.5)]
    # Self times partition the root span's duration.
    assert sum(s for _, s in totals.values()) == pytest.approx(10.0)


def test_nested_entry_into_the_same_layer_is_one_call():
    tracer = BenchTracer()

    def inner(x):
        return x + 1

    wrapped_inner = layers._traced(inner, "etsc.predict", tracer)
    wrapped_outer = layers._traced(
        lambda x: wrapped_inner(x) * 2, "etsc.predict", tracer
    )
    with tracer.span(ROOT_SPAN):
        assert wrapped_outer(1) == 4
    totals = layer_totals(tracer.finished_spans())
    assert totals["etsc.predict"][0] == 1


# ----------------------------------------------------------------------
# Wrappers.


def _current(entries):
    return {
        (id(owner), attribute): vars(owner).get(attribute)
        for _, owner, attribute in entries
    }


def test_wrappers_are_installed_only_inside_instrumentation_and_restored():
    entries = entry_points()
    before = _current(entries)
    tracer = BenchTracer()
    with Instrumentation(tracer):
        for _, owner, attribute in entries:
            assert hasattr(getattr(owner, attribute), "__wrapped__"), attribute
    assert _current(entries) == before
    for _, owner, attribute in entries:
        assert not hasattr(getattr(owner, attribute), "__wrapped__"), attribute


def test_traced_pass_records_layers_and_untraced_pass_records_nothing():
    import run as bench
    from repro.obs.trace import NULL_TRACER, get_tracer
    from workloads import make_workload

    workload = make_workload("grid-nonweasel", seed=0, smoke=True)
    workload.setup()
    before = _current(entry_points())
    untraced = workload.run_pass(0)
    assert get_tracer() is NULL_TRACER
    traced, totals, seconds = bench._traced_pass(workload, 0, None)
    assert _current(entry_points()) == before
    assert get_tracer() is NULL_TRACER
    assert traced.decisions == untraced.decisions
    assert totals["core.runner.run"][0] == 1
    assert totals["etsc.train"][0] >= 1
    assert sum(s for _, s in totals.values()) == pytest.approx(seconds)


# ----------------------------------------------------------------------
# BENCHMARK.json and what the runner prints.


def test_benchmark_json_declares_every_metric_once_with_unit_and_direction():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [metric["name"] for metric in metrics]
    names += [workload["name"] for workload in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in metrics:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_exactly_the_declared_ones(trace):
    result = result_of(
        run("--workload", "serve-distance", "--smoke", "--trace", trace)
    )
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {
        metric["name"]: {
            "value": result["metrics"][metric["name"]]["value"],
            "unit": metric["unit"],
        }
        for metric in declared
    }
    for name in result["metrics"]:
        assert NAME.fullmatch(name), name


# ----------------------------------------------------------------------
# Smoke.


def _smoke() -> tuple[float, str]:
    start = time.perf_counter()
    process = run("--smoke")
    elapsed = time.perf_counter() - start
    assert process.returncode == 0, process.stdout + process.stderr
    return elapsed, process.stdout


def test_smoke_run_is_fast_correct_and_deterministic():
    digests = []
    for _ in range(2):
        elapsed, stdout = _smoke()
        assert elapsed < 30, elapsed
        assert "all workloads correct" in stdout
        assert "INCORRECT" not in stdout
        digests.append(
            [line for line in stdout.splitlines() if "digest " in line]
        )
    assert digests[0] and digests[0] == digests[1]
