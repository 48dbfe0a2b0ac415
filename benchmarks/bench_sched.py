#!/usr/bin/env python
"""Scheduler harness: LPT vs FIFO makespan, plus shard/steal equivalence.

Times the cost-model LPT dispatch against plain FIFO submission on a
deliberately skewed synthetic grid — many short datasets plus one long
dataset registered *last*, the worst case for FIFO (the long cell starts
after everything else and extends the makespan by nearly its full
duration). Cell cost is dominated by a ``time.sleep`` proportional to
the cost model's own prefix-based heuristic (quadratic in training-set
size), so the comparison isolates scheduling policy from core count:
sleeps overlap across pool workers even on a single-core runner.

The same grid then exercises checkpoint shards end to end: a two-shard
split run and a one-shard steal-everything run must both merge into the
serial reference report cell-for-cell.

Like ``bench_perf.py``, this is a standalone script (CI's
``sched-smoke`` job runs it without pytest)::

    PYTHONPATH=src python benchmarks/bench_sched.py            # full
    PYTHONPATH=src python benchmarks/bench_sched.py --quick    # CI repeats
    PYTHONPATH=src python benchmarks/bench_sched.py --quick \
        --output /tmp/sched.json --check BENCH_SCHED.json      # gate

``--check`` gates on the LPT-vs-FIFO *speedup* (both measured in the
same process on the same machine, so the ratio survives CI runner
generations): it fails when the measured speedup falls below
``max(1.3, baseline / 1.5)`` — 1.3x is the absolute floor the skewed
grid must always clear at 4 workers — or when either shard run stopped
reproducing the serial report. It fails closed: a missing or unreadable
baseline, or one without the LPT row, is a failure, not a pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import (
    AlgorithmRegistry,
    BenchmarkRunner,
    DatasetRegistry,
    EarlyClassifier,
    EarlyPrediction,
    RunReport,
    merge_checkpoint_states,
)
from repro.core.sched import (
    CellEstimate,
    CostModel,
    load_shard_checkpoints,
    report_from_state,
)

sys.path.insert(0, str(Path(__file__).parent))
from _harness import make_benchmark_dataset  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_SCHED.json"

# Per-_train stall in seconds per (training instances)^2 — the same
# quadratic the cost model's prefix-based heuristic assumes, so the
# synthetic grid is exactly the workload LPT is calibrated for. With
# 2-fold CV a short dataset (25 instances, ~12 per training split)
# costs ~0.1 s per cell and the long dataset (75 instances) ~0.9 s.
_STALL_PER_SQUARED_INSTANCE = 3.2e-4

_N_SHORT_DATASETS = 27
_SHORT_INSTANCES = 25
_LONG_INSTANCES = 75
_WORKERS = 4


class _StalledMajority(EarlyClassifier):
    """Majority-class stub whose training stalls quadratically in size.

    The stall stands in for real training compute but is pure sleep, so
    four pool workers overlap fully even on one core and the measured
    makespan reflects the dispatch order alone.
    """

    supports_multivariate = True

    def _train(self, dataset):
        time.sleep(_STALL_PER_SQUARED_INSTANCE * dataset.n_instances**2)
        values, counts = np.unique(dataset.labels, return_counts=True)
        self._majority = int(values[counts.argmax()])

    def _predict(self, dataset):
        return [
            EarlyPrediction(self._majority, 1, dataset.length)
            for _ in range(dataset.n_instances)
        ]


def _skewed_registries() -> tuple[AlgorithmRegistry, DatasetRegistry]:
    """27 short datasets plus one long dataset registered last.

    Registration order is FIFO submission order, so putting the long
    dataset last makes FIFO start the dominant cell when every worker
    but one is already idle — the textbook LPT-vs-FIFO gap.
    """
    algorithms = AlgorithmRegistry()
    algorithms.register(
        "STALL", _StalledMajority, category="prefix-based"
    )
    datasets = DatasetRegistry()
    for index in range(_N_SHORT_DATASETS):
        datasets.register(
            f"short{index:02d}",
            lambda index=index: make_benchmark_dataset(
                n_instances=_SHORT_INSTANCES, length=30, seed=index
            ),
        )
    datasets.register(
        "long",
        lambda: make_benchmark_dataset(
            n_instances=_LONG_INSTANCES, length=30, seed=99
        ),
    )
    return algorithms, datasets


class _FlatCostModel(CostModel):
    """Estimates every cell alike: ``lpt_order`` then keeps canonical
    (FIFO) submission order, the baseline LPT is measured against."""

    def estimate(self, algorithm, dataset, shape=None, category="miscellaneous"):
        return CellEstimate(algorithm, dataset, 1.0, "heuristic")


def _run_grid(**runner_kwargs) -> tuple[float, RunReport]:
    algorithms, datasets = _skewed_registries()
    runner = BenchmarkRunner(
        algorithms,
        datasets,
        n_folds=2,
        seed=0,
        workers=_WORKERS,
        **runner_kwargs,
    )
    start = time.perf_counter()
    report = runner.run()
    elapsed = time.perf_counter() - start
    assert not report.failures, report.failures
    return elapsed, report


def _report_view(report: RunReport) -> dict:
    """Timing-stripped per-cell view (same shape CI's resume gate uses)."""
    cells = {
        f"{algorithm}/{dataset}": [
            (fold.accuracy, fold.f1, fold.earliness,
             fold.harmonic_mean, fold.n_test)
            for fold in result.folds
        ]
        for (algorithm, dataset), result in report.results.items()
    }
    failures = {
        f"{algorithm}/{dataset}": reason
        for (algorithm, dataset), reason in report.failures.items()
    }
    return {"cells": cells, "failures": failures}


# ---------------------------------------------------------------------------
# Makespan comparison.


def _makespan_benchmarks(repeats: int, ops: dict) -> None:
    fifo_samples, lpt_samples = [], []
    for _ in range(repeats):
        elapsed, _ = _run_grid(cost_model=_FlatCostModel())
        fifo_samples.append(elapsed)
        elapsed, _ = _run_grid()
        lpt_samples.append(elapsed)
    fifo = statistics.median(fifo_samples)
    lpt = statistics.median(lpt_samples)
    ops[f"sched_grid_fifo_workers_{_WORKERS}"] = {
        "median": fifo,
        "p90": max(fifo_samples),
    }
    ops[f"sched_grid_lpt_workers_{_WORKERS}"] = {
        "median": lpt,
        "p90": max(lpt_samples),
        "baseline_median": fifo,
        "speedup": fifo / lpt if lpt else float("inf"),
    }
    print(
        f"{'sched_grid_lpt':24s} median {lpt*1e3:9.3f} ms   "
        f"fifo {fifo*1e3:9.3f} ms   "
        f"speedup {fifo / lpt:6.2f}x"
    )


# ---------------------------------------------------------------------------
# Shard / steal equivalence.


def _merged_view(directory: Path) -> dict:
    states = load_shard_checkpoints(directory)
    merged = merge_checkpoint_states(states)
    return _report_view(report_from_state(merged))


def _run_shard(spec: str, directory: Path, steal: bool) -> BenchmarkRunner:
    algorithms, datasets = _skewed_registries()
    runner = BenchmarkRunner(
        algorithms,
        datasets,
        n_folds=2,
        seed=0,
        workers=_WORKERS,
        shard=spec,
        shard_steal=steal,
        checkpoint_path=directory,
    )
    runner.run()
    return runner


def _fresh_dir(path: Path) -> Path:
    """Shard runs resume implicitly from leftover shard-*.jsonl files, so
    a stale scratch directory would turn the whole phase into a no-op
    (and report zero steals). Always start from an empty directory."""
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _shard_benchmarks(work_dir: Path, results: dict) -> None:
    _, serial_report = _run_grid()
    reference = _report_view(serial_report)

    # Two cooperating shards, no stealing: each runs exactly its bin.
    split_dir = _fresh_dir(work_dir / "split")
    _run_shard("0/2", split_dir, steal=False)
    _run_shard("1/2", split_dir, steal=False)
    split_equal = _merged_view(split_dir) == reference

    # One shard left alone with stealing on: it must claim and finish
    # the sibling's entire bin, and the merged grid is still complete.
    steal_dir = _fresh_dir(work_dir / "steal")
    runner = _run_shard("0/2", steal_dir, steal=True)
    steals = int(runner.metrics.snapshot().get("sched.steals", 0))
    steal_equal = _merged_view(steal_dir) == reference

    results["shard"] = {
        "split_report_equal": split_equal,
        "steal_report_equal": steal_equal,
        "steals": steals,
    }
    print(
        f"{'shard_merge':24s} split == serial: {split_equal}   "
        f"steal == serial: {steal_equal} ({steals} cells stolen)"
    )


# ---------------------------------------------------------------------------
# Regression gate.

_SPEEDUP_FLOOR = 1.3
_GATE_FACTOR = 1.5


def _check(current: dict, baseline_path: Path) -> int:
    # Fail closed: an unreadable baseline, or one without the LPT row,
    # gates nothing and must not pass on the absolute floor alone.
    failures = []
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        baseline = {}
        failures.append(
            f"{baseline_path}: cannot read the committed baseline ({error}); "
            "regenerate it with `python benchmarks/bench_sched.py`"
        )
    lpt_op = f"sched_grid_lpt_workers_{_WORKERS}"
    reference = baseline.get("ops", {}).get(lpt_op, {}).get("speedup")
    measured = current["ops"].get(lpt_op, {}).get("speedup")
    if reference is None and not failures:
        failures.append(
            f"{lpt_op}: missing from the committed baseline "
            f"{baseline_path}; regenerate it with "
            "`python benchmarks/bench_sched.py`"
        )
    if measured is None:
        failures.append(f"{lpt_op}: missing from this run")
    elif reference is not None:
        floor = max(_SPEEDUP_FLOOR, reference / _GATE_FACTOR)
        if measured < floor:
            failures.append(
                f"{lpt_op}: LPT speedup {measured:.2f}x fell below "
                f"{floor:.2f}x (baseline "
                f"{reference:.2f}x / {_GATE_FACTOR:g}, absolute floor "
                f"{_SPEEDUP_FLOOR:g}x)"
            )
    shard = current.get("shard", {})
    for flag in ("split_report_equal", "steal_report_equal"):
        if not shard.get(flag):
            failures.append(
                f"shard.{flag}: merged shard report diverged from the "
                "serial reference"
            )
    if not shard.get("steals", 0):
        failures.append(
            "shard.steals: the lone stealing shard claimed no sibling "
            "cells"
        )
    if failures:
        print("\nSCHED REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"\nsched gate ok: LPT speedup {measured:.2f}x, "
        "shard merges reproduce the serial report"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI repeats (the grid itself is identical to the full run: "
        "the gate compares schedule quality, not machine speed)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="makespan repeats per scheduler (default 3, or 2 with --quick)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=str(DEFAULT_OUTPUT),
        help="where to write the JSON results (default: repo BENCH_SCHED.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help=(
            "compare against a committed BENCH_SCHED.json and exit "
            "non-zero if the LPT speedup fell below "
            f"max({_SPEEDUP_FLOOR:g}, baseline/{_GATE_FACTOR:g}) or a "
            "shard merge stopped matching the serial report"
        ),
    )
    parser.add_argument(
        "--skip-shards", action="store_true",
        help="makespan comparison only (skip the shard/steal equivalence)",
    )
    parser.add_argument(
        "--work-dir", metavar="DIR", default=None,
        help="scratch directory for shard checkpoints "
        "(default: a fresh temporary directory)",
    )
    arguments = parser.parse_args(argv)
    repeats = arguments.repeats or (2 if arguments.quick else 3)

    ops: dict[str, dict] = {}
    _makespan_benchmarks(repeats, ops)

    results = {
        "mode": "quick" if arguments.quick else "full",
        "repeats": repeats,
        "units": "seconds",
        "cpu_count": os.cpu_count(),
        "grid": {
            "datasets": _N_SHORT_DATASETS + 1,
            "short_instances": _SHORT_INSTANCES,
            "long_instances": _LONG_INSTANCES,
            "workers": _WORKERS,
        },
        "ops": ops,
    }
    if not arguments.skip_shards:
        if arguments.work_dir:
            work_dir = Path(arguments.work_dir)
            work_dir.mkdir(parents=True, exist_ok=True)
        else:
            work_dir = Path(tempfile.mkdtemp(prefix="bench_sched_"))
        _shard_benchmarks(work_dir, results)

    # Gate before writing: --output may be the baseline file itself.
    code = _check(results, Path(arguments.check)) if arguments.check else 0
    output = Path(arguments.output)
    output.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nresults written to {output}")

    return code


if __name__ == "__main__":
    raise SystemExit(main())
