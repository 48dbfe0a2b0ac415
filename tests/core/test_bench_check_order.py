"""Every bench gate reads its baseline before ``--output`` overwrites it.

``--output`` defaults to the committed ``BENCH_*.json``, so a gate that
wrote its results first and read ``--check`` second would compare a run
with itself whenever the two paths are equal, and always pass. Each case
stubs the measurement with a clear regression of the committed baseline
(the scheduler case raises its baseline first) and passes the same file
as ``--output`` and ``--check``: the gate must fail, and the output must
still be written.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO_ROOT / "benchmarks" / f"bench_{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _slow_p99(reports):
    for report in reports.values():
        report["latency"]["p99"] *= 10
    return reports


def _stub_serve(module, committed, monkeypatch, tmp_path):
    monkeypatch.setattr(
        module,
        "_run_scenarios",
        lambda names: _slow_p99(copy.deepcopy(committed["scenarios"])),
    )
    return []


def _stub_fleet(module, committed, monkeypatch, tmp_path):
    monkeypatch.setattr(
        module,
        "_run_entries",
        lambda names: _slow_p99(copy.deepcopy(committed["fleets"])),
    )
    return ["--quick"]


def _stub_perf(module, committed, monkeypatch, tmp_path):
    def kernels(quick, repeats):
        ops = copy.deepcopy(committed["ops"])
        for row in ops.values():
            if "speedup" in row:
                row["speedup"] /= 10
        return ops

    monkeypatch.setattr(module, "_kernel_benchmarks", kernels)
    return ["--skip-grid"]


def _stub_robust(module, committed, monkeypatch, tmp_path):
    def grid():
        results = copy.deepcopy(committed)
        for per_dataset in results["clean"].values():
            for metrics in per_dataset.values():
                metrics["accuracy"] += 0.1
        return results

    monkeypatch.setattr(module, "_run_grid", grid)
    return []


def _stub_sched(module, committed, monkeypatch, tmp_path):
    # The gate's absolute 1.3x floor would fail any run below it even
    # against itself; a 3x baseline makes 1.5x a relative regression.
    committed["ops"]["sched_grid_lpt_workers_4"]["speedup"] = 3.0

    def makespans(repeats, ops):
        ops.update(copy.deepcopy(committed["ops"]))
        ops["sched_grid_lpt_workers_4"]["speedup"] = 1.5

    def shards(directory, results):
        results["shard"] = dict(committed["shard"])

    monkeypatch.setattr(module, "_makespan_benchmarks", makespans)
    monkeypatch.setattr(module, "_shard_benchmarks", shards)
    return ["--work-dir", str(tmp_path / "work")]


STUBS = {
    "serve": _stub_serve,
    "fleet": _stub_fleet,
    "perf": _stub_perf,
    "robust": _stub_robust,
    "sched": _stub_sched,
}


@pytest.mark.parametrize("name", list(STUBS))
def test_check_against_the_output_file_still_gates(
    name, tmp_path, monkeypatch
):
    module = load_bench(name)
    baseline = tmp_path / f"BENCH_{name.upper()}.json"
    committed = json.loads(
        (REPO_ROOT / baseline.name).read_text(encoding="utf-8")
    )
    extra = STUBS[name](module, committed, monkeypatch, tmp_path)
    baseline.write_text(json.dumps(committed), encoding="utf-8")
    argv = [*extra, "--output", str(baseline), "--check", str(baseline)]
    assert module.main(argv) == 1
    written = json.loads(baseline.read_text(encoding="utf-8"))
    assert written != committed, "the regressed run was not written"
