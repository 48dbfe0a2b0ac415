"""``etsc-bench robustness``: the degraded-data evaluation grid.

Sweeps corruption operators over severity levels for the selected
algorithms and datasets, printing per-operator degradation tables
(mean accuracy by severity plus robustness-AUC) and optionally writing
the full JSON report — the same shape ``benchmarks/bench_robust.py``
commits as ``BENCH_ROBUST.json``.

Examples
--------
List the operator catalog::

    etsc-bench robustness --list-ops

A quick corrupted mini-grid::

    etsc-bench robustness --ops missing_blocks additive_noise \
        --severities 1 3 5 --algorithms ECTS TEASER \
        --datasets PowerCons --scale 0.08 --folds 2
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..core.cli import add_grid_arguments, grid_runner_options
from ..core.registry import default_algorithms, default_datasets
from ..exceptions import CheckpointError, ConfigurationError, ReproError
from ..obs.events import traced_run
from ..obs.logging import configure_cli_logging
from .grid import run_robustness
from .operators import MAX_SEVERITY, operator_catalog
from .spec import CorruptionSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``robustness`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="etsc-bench robustness",
        description=(
            "Evaluate algorithms on deterministically corrupted datasets "
            "and report degradation curves over severity plus "
            "robustness-AUC (see docs/robustness.md)"
        ),
    )
    parser.add_argument(
        "--ops",
        nargs="+",
        default=["missing_blocks"],
        metavar="OP[@WHERE]",
        help=(
            "corruption operators to sweep, optionally placed "
            "(e.g. missing_blocks additive_noise@tail); see --list-ops"
        ),
    )
    parser.add_argument(
        "--severities",
        nargs="+",
        type=int,
        default=[1, 2, 3, 4, 5],
        metavar="S",
        help=(
            f"severity levels (1..{MAX_SEVERITY}) to evaluate; the clean "
            "severity-0 cells always run (default: 1 2 3 4 5)"
        ),
    )
    parser.add_argument(
        "--list-ops",
        action="store_true",
        help="print the operator catalog with severity parameters, then exit",
    )
    add_grid_arguments(parser)
    parser.add_argument(
        "--corruption-seed",
        type=int,
        default=None,
        metavar="N",
        help="seed of the corruption RNG streams (default: --seed)",
    )
    parser.add_argument(
        "--no-fill",
        action="store_true",
        help=(
            "keep NaNs produced by the operators instead of applying the "
            "paper's Section 5.1 gap filling before evaluation"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the full robustness report as JSON to PATH",
    )
    return parser


def _print_catalog(out) -> None:
    print("corruption operators (spec grammar: op:severity[@where]):", file=out)
    for name, entry in operator_catalog().items():
        print(f"  {name:20s} {entry['description']}", file=out)
        for severity, params in entry["severity_params"].items():
            rendered = ", ".join(
                f"{key}={value:g}" for key, value in params.items()
            )
            print(f"    s{severity}: {rendered}", file=out)
    print(
        "  placement: @head (first third), @mid, @tail, @all (default)",
        file=out,
    )


def _parse_ops(raw_ops: list[str]) -> list[CorruptionSpec]:
    """CLI op tokens (``op`` or ``op@where``) -> severity-1 placeholder
    specs; the sweep severities supersede the placeholder."""
    specs = []
    for token in raw_ops:
        op, _, where = token.partition("@")
        specs.append(
            CorruptionSpec(
                op=op.strip(), severity=1, where=where.strip() or "all"
            )
        )
    return specs


def main(argv: list[str] | None = None, out=None) -> int:
    """``robustness`` entry point; returns a process exit code."""
    out = out or sys.stdout
    arguments = build_parser().parse_args(argv)
    configure_cli_logging(arguments.log_level, arguments.progress)
    if arguments.list_ops:
        _print_catalog(out)
        return 0
    try:
        options = grid_runner_options(arguments, out)
        ops = _parse_ops(arguments.ops)
        for severity in arguments.severities:
            if not 0 <= severity <= MAX_SEVERITY:
                raise ConfigurationError(
                    f"severity must be in [0, {MAX_SEVERITY}], "
                    f"got {severity}"
                )
    except ConfigurationError as error:
        print(f"error: {error}", file=out)
        return 2
    algorithms = default_algorithms(fast=True)
    datasets = default_datasets(scale=arguments.scale, seed=arguments.seed)
    try:
        with traced_run(arguments.trace, out):
            report = run_robustness(
                algorithms,
                datasets,
                ops=ops,
                severities=arguments.severities,
                algorithm_names=arguments.algorithms,
                dataset_names=arguments.datasets,
                corruption_seed=arguments.corruption_seed,
                fill=not arguments.no_fill,
                **options,
            )
    except (ConfigurationError, CheckpointError) as error:
        print(f"error: {error}", file=out)
        return 2
    except ReproError as error:
        print(f"robustness grid failed: {error}", file=out)
        return 1
    print(report.render(), file=out)
    if arguments.output:
        Path(arguments.output).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nreport written to {arguments.output}", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
