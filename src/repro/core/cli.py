"""Command-line interface of the benchmarking framework.

Mirrors the paper repository's ``cli.py``: pick algorithms and datasets,
run the cross-validated comparison, and print per-pair scores plus the
per-category aggregates. Installed as the ``etsc-bench`` console script
(with ``repro-cli`` as an alias).

Observability: ``--trace PATH`` writes a JSONL span trace of the run,
``--log-level``/``--progress`` turn on logging and per-cell progress
telemetry (see ``docs/observability.md``).

Fault tolerance: ``--checkpoint PATH`` appends every cell outcome to a
JSONL checkpoint, ``--resume`` restarts a killed run from it (skipping
completed cells), and ``--retries N`` re-attempts transiently-failed
cells with exponential backoff (see ``docs/resilience.md``).

Parallelism: ``--workers N`` evaluates up to N grid cells concurrently
in forked worker processes; reports, checkpoints, and traces merge
deterministically (see ``docs/performance.md``).

Serving: ``etsc-bench serve-slo ...`` replays declarative scenario
configs (arrival process, stream mix, service model, deadline, faults)
through the resilient streaming endpoint — input guards, deadlines,
fallback degradation, circuit breakers — on a virtual or wall clock,
and reports latency quantiles to p99.9, jitter, throughput, and
deadline-miss/degraded-decision rates (see ``docs/slo.md``). With
``--shards N`` it serves the same scenarios through a multi-tenant
sharded fleet — bounded admission with load-shedding policies,
per-shard health tracking, automatic failover of SIGKILLed or hung
shard workers — and adds per-shard SLOs plus shed/degraded/failover
rates to the same report (see ``docs/serving.md``).

Robustness: ``etsc-bench robustness ...`` evaluates algorithms on
deterministically corrupted dataset variants (missing blocks, dropout,
noise, warp, label noise, concept drift, ...) and reports degradation
curves over severity plus a robustness-AUC per algorithm (see
``docs/robustness.md``).

Examples
--------
List what is available::

    etsc-bench --list

Run two algorithms on two datasets at reduced scale::

    etsc-bench --algorithms ECTS TEASER --datasets PowerCons Biological \
        --scale 0.2 --folds 3
"""

from __future__ import annotations

import argparse
import sys

from ..exceptions import CheckpointError, ConfigurationError
from ..obs.events import traced_run
from ..obs.logging import configure_cli_logging
from .categorization import category_names, scaled_thresholds
from .registry import default_algorithms, default_datasets
from .runner import BenchmarkRunner

__all__ = [
    "main",
    "build_parser",
    "add_grid_arguments",
    "grid_runner_options",
    "merge_checkpoints_main",
]


def _workers_argument(text: str):
    """``--workers`` accepts a positive integer or the literal ``auto``."""
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None


def add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the flags every cross-validated grid command shares.

    ``etsc-bench`` and ``etsc-bench robustness`` both drive a
    :class:`BenchmarkRunner`; :func:`grid_runner_options` turns these
    flags into its keywords.
    """
    parser.add_argument(
        "--algorithms",
        nargs="*",
        default=None,
        metavar="NAME",
        help="algorithms to run (default: all registered)",
    )
    parser.add_argument(
        "--datasets",
        nargs="*",
        default=None,
        metavar="NAME",
        help="datasets to run (default: all registered)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="dataset size scale factor (1.0 = published sizes)",
    )
    parser.add_argument(
        "--folds", type=int, default=5, help="cross-validation folds"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "write a JSONL trace of the run (nested grid/cell/fold/"
            "fit/predict spans); inspect with python -m repro.obs.summary"
        ),
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        help="enable repro logging at LEVEL (debug/info/warning/error)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "log per-cell progress lines (start/finish/timeout with "
            "elapsed time and grid completion %%); implies --log-level info"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help=(
            "append every cell outcome to a JSONL checkpoint at PATH as "
            "the grid runs, so a killed run can be resumed with --resume"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume the grid from the checkpoint at --checkpoint PATH, "
            "skipping completed cells (the checkpoint's grid fingerprint "
            "must match this invocation)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_workers_argument,
        default=1,
        metavar="N",
        help=(
            "evaluate up to N grid cells in parallel worker processes "
            "(default 1 = serial), or 'auto' to match the cores this "
            "process may actually use (sched_getaffinity; clamps to 1 "
            "on a 1-core box instead of oversubscribing); cells start "
            "largest dataset first, and results and checkpoints are "
            "committed in canonical order, identical to a serial run"
        ),
    )


def grid_runner_options(arguments: argparse.Namespace, out) -> dict:
    """:class:`BenchmarkRunner` keywords from the shared grid flags.

    Progress lines go to ``out``; the scale factor, which the runner
    cannot see, is folded into the checkpoint fingerprint so ``--resume``
    refuses a mismatched invocation. Raises
    :class:`~repro.exceptions.ConfigurationError` for ``--resume``
    without ``--checkpoint``.
    """
    if arguments.resume and not arguments.checkpoint:
        raise ConfigurationError(
            "--resume requires --checkpoint PATH (the file to resume from)"
        )
    wide_threshold, large_threshold = scaled_thresholds(arguments.scale)
    return {
        "n_folds": arguments.folds,
        "seed": arguments.seed,
        "wide_threshold": wide_threshold,
        "large_threshold": large_threshold,
        "progress": lambda line: print(line, file=out),
        "checkpoint_path": arguments.checkpoint,
        "resume_from": arguments.checkpoint if arguments.resume else None,
        "workers": arguments.workers,
        "fingerprint_extra": {"scale": arguments.scale},
    }


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="etsc-bench",
        description=(
            "Evaluate early time-series classification algorithms "
            "(EDBT 2024 framework reproduction)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered algorithms and datasets, then exit",
    )
    add_grid_arguments(parser)
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=float("inf"),
        help="per-pair time budget (the paper used 48 hours)",
    )
    parser.add_argument(
        "--paper-params",
        action="store_true",
        help="use the full Table 4 parameters instead of the fast profile",
    )
    parser.add_argument(
        "--save-report",
        metavar="PATH",
        default=None,
        help="write the raw campaign results to a JSON file",
    )
    parser.add_argument(
        "--significance",
        action="store_true",
        help="print Friedman/Nemenyi average-rank analysis of the run",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "retry transiently-failed cells up to N extra times with "
            "exponential backoff (timeouts and permanent failures are "
            "never retried)"
        ),
    )
    parser.add_argument(
        "--retry-delay",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="base backoff delay for --retries (doubles per attempt)",
    )
    parser.add_argument(
        "--shard",
        metavar="I/N",
        default=None,
        help=(
            "run only cells I, I+N, I+2N, ... of the canonical grid "
            "(0-based, e.g. 0/2); requires --checkpoint DIR, a directory "
            "shared by all shards — each writes shard-I.jsonl there, "
            "claims its whole bin before running it, and then steals the "
            "cells no sibling has claimed (the bin of a shard that never "
            "started); combine with 'etsc-bench merge-checkpoints DIR' "
            "for the canonical report"
        ),
    )
    parser.add_argument(
        "--no-steal",
        action="store_true",
        help=(
            "in --shard mode, never steal cells from sibling bins "
            "(strict partitioning)"
        ),
    )
    return parser


def _print_category_table(report, metric: str, out) -> None:
    table = report.metric_by_category(metric)
    if not table:
        return
    algorithms = report.algorithms()
    print(f"\n{metric} by dataset category:", file=out)
    header = f"{'category':14s}" + "".join(
        f"{name:>11s}" for name in algorithms
    )
    print(header, file=out)
    for category in category_names():
        row = table.get(category)
        if not row:
            continue
        cells = "".join(
            f"{row[name]:>11.3f}" if name in row else f"{'--':>11s}"
            for name in algorithms
        )
        print(f"{category:14s}{cells}", file=out)


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    # The historical interface is flag-only; subcommands dispatch on the
    # first positional token so existing ``etsc-bench --flags`` usage is
    # untouched.
    if argv and argv[0] == "serve-slo":
        from ..slo.cli import main as serve_slo_main

        return serve_slo_main(argv[1:], out)
    if argv and argv[0] == "robustness":
        from ..robustness.cli import main as robustness_main

        return robustness_main(argv[1:], out)
    if argv and argv[0] == "merge-checkpoints":
        return merge_checkpoints_main(argv[1:], out)
    arguments = build_parser().parse_args(argv)
    configure_cli_logging(arguments.log_level, arguments.progress)
    algorithms = default_algorithms(fast=not arguments.paper_params)
    datasets = default_datasets(scale=arguments.scale, seed=arguments.seed)

    if arguments.list:
        print("algorithms:", file=out)
        for info in algorithms:
            multivariate = "multivariate" if info.supports_multivariate else "univariate"
            print(f"  {info.name:10s} {info.category:22s} {multivariate}", file=out)
        print("datasets:", file=out)
        for name in datasets.names():
            print(f"  {name}", file=out)
        return 0

    retry_policy = None
    if arguments.retries > 0:
        from .resilience import RetryPolicy

        retry_policy = RetryPolicy(
            max_attempts=arguments.retries + 1,
            base_delay=arguments.retry_delay,
        )
    try:
        options = grid_runner_options(arguments, out)
        if arguments.shard is not None and not arguments.checkpoint:
            raise ConfigurationError(
                "--shard requires --checkpoint DIR (the directory all "
                "shards share)"
            )
        if arguments.shard is not None and arguments.resume:
            raise ConfigurationError(
                "--shard resumes implicitly from its own shard-<i>.jsonl; "
                "drop --resume"
            )
        # The registry profile changes the grid's contents too.
        options["fingerprint_extra"]["paper_params"] = arguments.paper_params
        runner = BenchmarkRunner(
            algorithms,
            datasets,
            time_budget_seconds=arguments.budget_seconds,
            retry_policy=retry_policy,
            shard=arguments.shard,
            shard_steal=not arguments.no_steal,
            **options,
        )
        with traced_run(arguments.trace, out, summary_hint=True):
            report = runner.run(arguments.algorithms, arguments.datasets)
    except (CheckpointError, ConfigurationError) as error:
        print(f"error: {error}", file=out)
        return 2
    if arguments.shard is not None:
        snapshot = runner.metrics.snapshot()
        print(
            f"\nshard {arguments.shard}: "
            f"{snapshot.get('sched.cells_scheduled', 0)} cells evaluated "
            f"({snapshot.get('sched.steals', 0)} stolen); merge the full "
            f"grid with: etsc-bench merge-checkpoints "
            f"{arguments.checkpoint}",
            file=out,
        )
    for metric in ("accuracy", "f1", "earliness", "harmonic_mean"):
        _print_category_table(report, metric, out)
    if report.failures:
        print("\nfailures:", file=out)
        for (algorithm, dataset), reason in report.failures.items():
            print(f"  {algorithm} on {dataset}: {reason}", file=out)
    if arguments.significance:
        from ..exceptions import ReproError
        from .significance import compare_algorithms

        try:
            analysis = compare_algorithms(report, metric="harmonic_mean")
        except ReproError as error:
            print(f"\nsignificance analysis unavailable: {error}", file=out)
        else:
            print("\naverage ranks (harmonic mean):", file=out)
            print(analysis.to_markdown(), file=out)
    if arguments.save_report:
        from .results import save_report

        save_report(report, arguments.save_report)
        print(f"\nreport saved to {arguments.save_report}", file=out)
    return 0


def merge_checkpoints_main(argv: list[str], out=None) -> int:
    """``etsc-bench merge-checkpoints DIR``: shard files -> one artifact.

    Loads every ``shard-*.jsonl`` in the directory, validates that all
    fingerprints describe the same grid, and rebuilds the canonical
    single checkpoint/report exactly as one uninterrupted run would have
    written them. Missing cells (a shard never ran, or died before
    finishing) are an error unless ``--allow-partial``.
    """
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        prog="etsc-bench merge-checkpoints",
        description=(
            "merge shard-*.jsonl checkpoints from a --shard grid run "
            "into the canonical single checkpoint and report"
        ),
    )
    parser.add_argument(
        "directory",
        help="the shared checkpoint directory the shards wrote into",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help=(
            "write the merged checkpoint (canonical dataset-major "
            "order, byte-compatible with a single-run checkpoint) here"
        ),
    )
    parser.add_argument(
        "--save-report",
        metavar="PATH",
        default=None,
        help="write the merged campaign report to a JSON file",
    )
    parser.add_argument(
        "--allow-partial",
        action="store_true",
        help=(
            "merge even if some grid cells have no outcome in any shard "
            "(default: error listing the missing cells)"
        ),
    )
    arguments = parser.parse_args(argv)
    from .sched import (
        grid_cells,
        load_shard_checkpoints,
        merge_checkpoint_states,
        missing_cells,
        report_from_state,
        write_canonical_checkpoint,
    )

    try:
        states = load_shard_checkpoints(arguments.directory)
        merged = merge_checkpoint_states(states)
    except CheckpointError as error:
        print(f"error: {error}", file=out)
        return 2
    missing = missing_cells(merged)
    total = len(grid_cells(merged.fingerprint))
    print(
        f"merged {len(states)} shard checkpoints: "
        f"{len(merged.results)} results, {len(merged.failures)} failures "
        f"({total - len(missing)}/{total} grid cells)",
        file=out,
    )
    if missing and not arguments.allow_partial:
        print(
            f"error: {len(missing)} cells have no outcome in any shard:",
            file=out,
        )
        for algorithm, dataset in missing[:20]:
            print(f"  {algorithm} on {dataset}", file=out)
        if len(missing) > 20:
            print(f"  ... and {len(missing) - 20} more", file=out)
        print(
            "re-run the missing shards, or pass --allow-partial to "
            "merge what completed",
            file=out,
        )
        return 1
    report = report_from_state(merged)
    for metric in ("accuracy", "f1", "earliness", "harmonic_mean"):
        _print_category_table(report, metric, out)
    if arguments.output:
        write_canonical_checkpoint(merged, arguments.output)
        print(f"\nmerged checkpoint written to {arguments.output}", file=out)
    if arguments.save_report:
        from .results import save_report

        save_report(report, arguments.save_report)
        print(f"report saved to {arguments.save_report}", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
