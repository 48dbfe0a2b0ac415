#!/usr/bin/env python
"""Robustness trajectory bench: corrupted mini-grid, curves, and gate.

Runs a small, fixed corruption sweep (ECTS + TEASER on scaled PowerCons,
three operators at severities 1/3/5) through
:func:`repro.robustness.run_robustness` and writes the deterministic
portion of the report to ``BENCH_ROBUST.json``; the committed copy at
the repository root is the regression reference. Corruption is seeded
per (dataset, op, severity) via crc32, so the recorded degradation
curves are a pure function of code + config — identical on every
machine.

Like ``bench_serve.py``, this is a standalone script (CI's
``robustness-smoke`` job runs it without pytest)::

    PYTHONPATH=src python benchmarks/bench_robust.py               # run
    PYTHONPATH=src python benchmarks/bench_robust.py \
        --output /tmp/robust.json --check BENCH_ROBUST.json        # gate
    PYTHONPATH=src python benchmarks/bench_robust.py --determinism # 2x run

``--check`` fails when (a) a clean severity-0 cell moved beyond a small
epsilon against the committed baseline — corruption must never leak
into the clean cells — or (b) any robustness-AUC fell below half its
committed value (the factor-of-two philosophy of perf-smoke: loose
enough for cross-version numeric noise, tight enough to catch a broken
operator or a collapsed classifier). The gate fails closed: a baseline
with no clean cells or no AUC entries, or a clean cell or AUC entry
measured here that the baseline lacks, is a failure. ``--determinism``
runs the grid twice and fails on any byte-level difference.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from repro.core.registry import default_algorithms, default_datasets
from repro.robustness import CorruptionSpec, run_robustness

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_ROBUST.json"

# The fixed bench grid: small enough for CI, wide enough to cover a
# NaN-producing, a value-perturbing, and a label-space operator.
ALGORITHMS = ["ECTS", "TEASER"]
DATASETS = ["PowerCons"]
OPS = [
    CorruptionSpec(op="missing_blocks", severity=1),
    CorruptionSpec(op="additive_noise", severity=1),
    CorruptionSpec(op="label_noise", severity=1),
]
SEVERITIES = [1, 3, 5]
SCALE = 0.08
FOLDS = 2
SEED = 0

# Gate thresholds.
_CLEAN_EPSILON = 1e-9  # severity-0 cells must not move at all
_AUC_FACTOR = 0.5  # robustness-AUC may not fall below baseline/2
_AUC_EPSILON = 0.05  # absolute floor so tiny baselines stay gateable


def _run_grid():
    report = run_robustness(
        default_algorithms(fast=True),
        default_datasets(scale=SCALE, seed=SEED),
        ops=OPS,
        severities=SEVERITIES,
        algorithm_names=ALGORITHMS,
        dataset_names=DATASETS,
        n_folds=FOLDS,
        seed=SEED,
        wide_threshold=max(2, int(1300 * SCALE)),
        large_threshold=max(2, int(1000 * SCALE)),
    )
    print(report.render())
    return report.deterministic_dict()


def _check_determinism() -> int:
    first, second = _run_grid(), _run_grid()
    if json.dumps(first, sort_keys=True) != json.dumps(
        second, sort_keys=True
    ):
        print(
            "\nDETERMINISM FAILURE: robustness reports differed between "
            "identical runs",
            file=sys.stderr,
        )
        return 1
    print("\ndeterminism ok: the corrupted grid reproduced exactly")
    return 0


def _clean_cells(report: dict) -> set[tuple[str, str]]:
    return {
        (algorithm, dataset)
        for algorithm, per_dataset in report.get("clean", {}).items()
        for dataset in per_dataset
    }


def _auc_entries(report: dict) -> set[tuple[str, str, str]]:
    return {
        (op_label, algorithm, metric)
        for op_label, per_algorithm in report.get("robustness", {}).items()
        for algorithm, entry in per_algorithm.items()
        for metric in entry.get("auc", {})
    }


def _check(current: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = []
    # Fail closed: an empty baseline gates nothing, and a cell this run
    # measured but the baseline lacks would otherwise pass unchecked.
    baseline_cells = _clean_cells(baseline)
    baseline_aucs = _auc_entries(baseline)
    if not baseline_cells:
        failures.append(f"{baseline_path}: the baseline has no clean cells")
    if not baseline_aucs:
        failures.append(f"{baseline_path}: the baseline has no AUC entries")
    for algorithm, dataset in sorted(_clean_cells(current) - baseline_cells):
        failures.append(
            f"clean {algorithm}/{dataset}: missing from the committed "
            "baseline"
        )
    for op_label, algorithm, metric in sorted(
        _auc_entries(current) - baseline_aucs
    ):
        failures.append(
            f"auc {algorithm}/{op_label}/{metric}: missing from the "
            "committed baseline"
        )
    # (a) Severity-0 no-op gate: the clean cells are shared with the
    # plain grid and must be unmoved by the corruption machinery.
    for algorithm, per_dataset in baseline.get("clean", {}).items():
        for dataset, metrics in per_dataset.items():
            measured = current.get("clean", {}).get(algorithm, {}).get(
                dataset
            )
            if measured is None:
                failures.append(f"clean {algorithm}/{dataset}: missing")
                continue
            for metric, reference in metrics.items():
                if reference is None or measured.get(metric) is None:
                    continue
                if abs(measured[metric] - reference) > _CLEAN_EPSILON:
                    failures.append(
                        f"clean {algorithm}/{dataset}/{metric}: "
                        f"{measured[metric]:.9f} != baseline "
                        f"{reference:.9f} (severity-0 cells must be "
                        "bit-identical to the clean grid)"
                    )
    # (b) Robustness-AUC gate.
    for op_label, per_algorithm in baseline.get("robustness", {}).items():
        for algorithm, entry in per_algorithm.items():
            for metric, reference in entry.get("auc", {}).items():
                if reference is None:
                    continue
                measured = (
                    current.get("robustness", {})
                    .get(op_label, {})
                    .get(algorithm, {})
                    .get("auc", {})
                    .get(metric)
                )
                if measured is None:
                    failures.append(
                        f"auc {algorithm}/{op_label}/{metric}: missing"
                    )
                    continue
                floor = min(reference * _AUC_FACTOR, reference - _AUC_EPSILON)
                if measured < floor:
                    failures.append(
                        f"auc {algorithm}/{op_label}/{metric}: "
                        f"{measured:.4f} fell below {floor:.4f} "
                        f"(baseline {reference:.4f} x {_AUC_FACTOR:g})"
                    )
    if failures:
        print("\nROBUSTNESS REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"\nrobustness gate ok: severity-0 cells unmoved, no AUC below "
        f"{_AUC_FACTOR:g}x baseline"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", metavar="PATH", default=str(DEFAULT_OUTPUT),
        help=(
            "where to write the JSON results (default: repo "
            "BENCH_ROBUST.json)"
        ),
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help=(
            "compare against a committed BENCH_ROBUST.json and exit "
            "non-zero on moved severity-0 cells or a robustness-AUC "
            f"below {_AUC_FACTOR:g}x baseline"
        ),
    )
    parser.add_argument(
        "--determinism", action="store_true",
        help="run the corrupted grid twice and fail on any difference",
    )
    arguments = parser.parse_args(argv)

    if arguments.determinism:
        return _check_determinism()

    results = _run_grid()
    results["python"] = platform.python_version()
    # Gate before writing: --output may be the baseline file itself.
    code = _check(results, Path(arguments.check)) if arguments.check else 0
    output = Path(arguments.output)
    output.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"\nresults written to {output}")

    return code


if __name__ == "__main__":
    raise SystemExit(main())
