"""The scheduler gate of ``benchmarks/bench_sched.py`` fails closed."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = REPO_ROOT / "BENCH_SCHED.json"
LPT_ROW = "sched_grid_lpt_workers_4"


def load_bench_sched():
    spec = importlib.util.spec_from_file_location(
        "bench_sched", REPO_ROOT / "benchmarks" / "bench_sched.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed():
    return json.loads(COMMITTED.read_text(encoding="utf-8"))


def gate(current, baseline, tmp_path):
    path = tmp_path / "BENCH_SCHED.json"
    path.write_text(json.dumps(baseline), encoding="utf-8")
    return load_bench_sched()._check(current, path)


def test_empty_baseline_fails_the_gate(tmp_path, capsys):
    assert gate(committed(), {}, tmp_path) == 1
    captured = capsys.readouterr()
    assert f"{LPT_ROW}: missing from the committed baseline" in captured.err
    assert "sched gate ok" not in captured.out


def test_lpt_row_missing_from_the_baseline_fails_the_gate(tmp_path, capsys):
    baseline = committed()
    del baseline["ops"][LPT_ROW]
    assert gate(committed(), baseline, tmp_path) == 1
    captured = capsys.readouterr()
    assert f"{LPT_ROW}: missing from the committed baseline" in captured.err
    assert "sched gate ok" not in captured.out


def test_missing_baseline_file_fails_with_a_message(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert load_bench_sched()._check(committed(), missing) == 1
    captured = capsys.readouterr()
    assert "cannot read the committed baseline" in captured.err
    assert "Traceback" not in captured.err


def test_committed_baseline_passes_its_own_gate():
    assert load_bench_sched()._check(committed(), COMMITTED) == 0
