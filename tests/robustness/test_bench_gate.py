"""The robustness gate of ``benchmarks/bench_robust.py`` fails closed."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = REPO_ROOT / "BENCH_ROBUST.json"


def load_bench_robust():
    spec = importlib.util.spec_from_file_location(
        "bench_robust", REPO_ROOT / "benchmarks" / "bench_robust.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed():
    return json.loads(COMMITTED.read_text(encoding="utf-8"))


def gate(current, baseline, tmp_path):
    path = tmp_path / "BENCH_ROBUST.json"
    path.write_text(json.dumps(baseline), encoding="utf-8")
    return load_bench_robust()._check(current, path)


def test_empty_baseline_fails_the_gate(tmp_path, capsys):
    empty = {"clean": {}, "robustness": {}}
    assert gate(empty, empty, tmp_path) == 1
    captured = capsys.readouterr()
    assert "the baseline has no clean cells" in captured.err
    assert "the baseline has no AUC entries" in captured.err
    assert "robustness gate ok" not in captured.out


def test_clean_cell_missing_from_the_baseline_fails_the_gate(
    tmp_path, capsys
):
    baseline = committed()
    del baseline["clean"]["TEASER"]
    assert gate(committed(), baseline, tmp_path) == 1
    captured = capsys.readouterr()
    assert (
        "clean TEASER/PowerCons: missing from the committed baseline"
        in captured.err
    )
    assert "robustness gate ok" not in captured.out


def test_auc_entry_missing_from_the_baseline_fails_the_gate(
    tmp_path, capsys
):
    baseline = committed()
    del baseline["robustness"]["additive_noise"]["ECTS"]["auc"]["accuracy"]
    assert gate(committed(), baseline, tmp_path) == 1
    captured = capsys.readouterr()
    assert (
        "auc ECTS/additive_noise/accuracy: missing from the committed "
        "baseline" in captured.err
    )
    assert "robustness gate ok" not in captured.out


def test_committed_trajectory_passes_its_own_gate():
    current = committed()
    assert load_bench_robust()._check(current, COMMITTED) == 0
