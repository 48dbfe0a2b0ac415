"""The SLO gate of ``benchmarks/bench_serve.py`` fails closed."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_bench_serve():
    spec = importlib.util.spec_from_file_location(
        "bench_serve", REPO_ROOT / "benchmarks" / "bench_serve.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scenario_missing_from_the_baseline_fails_the_gate(
    tmp_path, capsys
):
    baseline = tmp_path / "empty.json"
    baseline.write_text(json.dumps({"scenarios": {}}), encoding="utf-8")
    code = load_bench_serve().main(
        [
            "--scenario", "baseline",
            "--output", str(tmp_path / "serve.json"),
            "--check", str(baseline),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "baseline: missing from the committed baseline" in captured.err
    assert "slo gate ok" not in captured.out


def test_committed_trajectory_passes_its_own_gate(tmp_path):
    committed = REPO_ROOT / "BENCH_SERVE.json"
    current = json.loads(committed.read_text(encoding="utf-8"))
    assert load_bench_serve()._check(current, committed) == 0
