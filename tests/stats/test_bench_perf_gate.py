"""The kernel perf gate of ``benchmarks/bench_perf.py`` fails closed."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_bench_perf():
    spec = importlib.util.spec_from_file_location(
        "bench_perf", REPO_ROOT / "benchmarks" / "bench_perf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_baseline(tmp_path, ops):
    path = tmp_path / "BENCH_PERF.json"
    path.write_text(json.dumps({"ops": ops}), encoding="utf-8")
    return path


def test_baseline_that_gates_no_kernel_fails_the_gate(tmp_path, capsys):
    grid_only = {"grid_workers_4": {"speedup": 1.0}}
    current = {"ops": {"edsc_window_match": {"speedup": 0.01}}}
    bench = load_bench_perf()
    for ops in ({}, grid_only):
        assert bench._check(current, write_baseline(tmp_path, ops)) == 1
        captured = capsys.readouterr()
        assert "the baseline gates no kernel" in captured.err
        assert "perf gate ok" not in captured.out


def test_kernel_missing_from_the_baseline_fails_the_gate(tmp_path, capsys):
    baseline = write_baseline(
        tmp_path, {"edsc_window_match": {"speedup": 10.0}}
    )
    current = {
        "ops": {
            "edsc_window_match": {"speedup": 10.0},
            "prefix_cache_scan": {"speedup": 10.0},
            "grid_workers_4": {"speedup": 1.0},
        }
    }
    assert load_bench_perf()._check(current, baseline) == 1
    captured = capsys.readouterr()
    assert (
        "prefix_cache_scan: missing from the committed baseline"
        in captured.err
    )
    assert "grid_workers_4" not in captured.err
    assert "perf gate ok" not in captured.out


def test_committed_baseline_passes_its_own_gate():
    committed = REPO_ROOT / "BENCH_PERF.json"
    current = json.loads(committed.read_text(encoding="utf-8"))
    assert load_bench_perf()._check(current, committed) == 0
