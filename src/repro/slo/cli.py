"""serve-slo: replay SLO scenarios in process or through the shard fleet.

``etsc-bench serve-slo`` loads one or more scenario configs (bundled
names or file paths) and replays each one. With ``--shards 0`` (the
default) it replays them through :func:`repro.slo.harness.run_scenario`
on the scenario's clock, as one in-process server. With ``--shards N``
it serves them through :func:`repro.fleet.coordinator.run_fleet`: N
forked shard workers behind bounded admission, with planned shard
faults and failover. Either way it prints one scenario report per
scenario and can write the combined JSON, ``{"scenarios": {...}}``,
the shape ``benchmarks/bench_serve.py`` commits as ``BENCH_SERVE.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ..exceptions import ConfigurationError, ReproError
from ..fleet import (
    SHED_POLICIES,
    SHED_REJECT_NEW,
    FleetConfig,
    parse_fleet_fault_specs,
    run_fleet,
)
from .harness import run_scenario
from .scenario import (
    CorruptionBlock,
    bundled_scenarios,
    replicate_scenario,
    resolve_scenario,
)

__all__ = ["main", "build_parser"]


def _shards_argument(text: str) -> int:
    """``--shards`` accepts a non-negative integer or the literal ``auto``.

    ``auto`` resolves through :func:`repro.core.pool.available_cores`
    (the scheduling-affinity mask, not ``os.cpu_count()``), so a 1-core
    container gets 1 shard instead of an oversubscribed fleet.
    """
    if text == "auto":
        from ..core.pool import available_cores

        return available_cores()
    try:
        shards = int(text)
    except ValueError:
        shards = -1
    if shards < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'auto', got {text!r}"
        )
    return shards


def build_parser() -> argparse.ArgumentParser:
    """The ``serve-slo`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="etsc-bench serve-slo",
        description=(
            "Replay scenario-driven serve workloads, in process or "
            "through a sharded fleet, and report latency/jitter/"
            "deadline-miss SLOs (see docs/slo.md and docs/serving.md)"
        ),
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="NAME-OR-PATH",
        help=(
            "scenario to run: a bundled name (see --list) or a YAML/JSON "
            "file path; repeatable (default: all bundled scenarios)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list bundled scenarios, then exit",
    )
    parser.add_argument(
        "--corrupt",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "override every scenario's corruption block with this "
            "push-time pipeline: op:severity[@where], repeatable (see "
            "'etsc-bench robustness --list-ops' and docs/robustness.md)"
        ),
    )
    parser.add_argument(
        "--corruption-seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "seed of the --corrupt RNG streams (default: each "
            "scenario's own seed); needs --corrupt"
        ),
    )
    parser.add_argument(
        "--replicate", type=int, default=1, metavar="N",
        help=(
            "multiply every stream spec's count by N (scale a bundled "
            "scenario to thousands of streams)"
        ),
    )
    fleet = parser.add_argument_group(
        "fleet", "serve through N forked shard workers (--shards N >= 1)"
    )
    fleet.add_argument(
        "--shards", type=_shards_argument, default=0, metavar="N",
        help=(
            "shard workers; 0 (default) replays in process on one "
            "simulated server, 'auto' matches the cores this process "
            "may actually use (sched_getaffinity; 1 on a 1-core box)"
        ),
    )
    fleet.add_argument(
        "--max-active", type=int, default=64, metavar="N",
        help="in-flight session cap per shard (default 64)",
    )
    fleet.add_argument(
        "--admission-capacity", type=int, default=256, metavar="N",
        help="bound on the admission backlog (default 256)",
    )
    fleet.add_argument(
        "--policy",
        choices=SHED_POLICIES,
        default=SHED_REJECT_NEW,
        help="load-shedding policy when the backlog is full",
    )
    fleet.add_argument(
        "--tick-events", type=int, default=256, metavar="N",
        help=(
            "arrival events each shard advances per coordinator tick; "
            "part of the deterministic contract (fault plans name ticks)"
        ),
    )
    fleet.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="real-time budget for a shard's tick reply (default 30)",
    )
    fleet.add_argument(
        "--failover-limit", type=int, default=2, metavar="N",
        help=(
            "re-admissions one stream gets after losing its shard before "
            "it is degraded instead (default 2)"
        ),
    )
    fleet.add_argument(
        "--kill-shard",
        action="append",
        default=[],
        metavar="SHARD@TICK",
        help=(
            "SIGKILL a shard worker at a tick boundary, e.g. 1@3; "
            "repeatable — failover must recover every in-flight stream"
        ),
    )
    fleet.add_argument(
        "--hang-shard",
        action="append",
        default=[],
        metavar="SHARD@TICK",
        help=(
            "hang a shard worker at a tick boundary so only the "
            "heartbeat timeout catches it; repeatable"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the combined scenario reports as JSON to PATH",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "write a JSONL span trace of the replays; serve.*, slo.* and "
            "fleet.* counters are recomputable from it via "
            "python -m repro.obs.summary"
        ),
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        help="enable repro logging at LEVEL (debug/info/warning/error)",
    )
    return parser


def _fault_specs(arguments) -> list[str]:
    return [f"kill:{spec}" for spec in arguments.kill_shard] + [
        f"hang:{spec}" for spec in arguments.hang_shard
    ]


def _run_all(names: list[str], arguments, out) -> dict:
    corruption = None
    if arguments.corrupt:
        corruption = CorruptionBlock(
            ops=tuple(arguments.corrupt), seed=arguments.corruption_seed
        )
    config = None
    if arguments.shards:
        config = FleetConfig(
            n_shards=arguments.shards,
            max_active_per_shard=arguments.max_active,
            admission_capacity=arguments.admission_capacity,
            shed_policy=arguments.policy,
            tick_events=arguments.tick_events,
            heartbeat_timeout_seconds=arguments.heartbeat_timeout,
            failover_limit=arguments.failover_limit,
        )
    reports = {}
    for name in names:
        scenario = replicate_scenario(
            resolve_scenario(name), arguments.replicate
        )
        if corruption is not None:
            scenario = replace(scenario, corruption=corruption)
        if config is None:
            report = run_scenario(scenario)
        else:
            # A fresh fault plan per scenario: plans record fired directives.
            fault_plan = parse_fleet_fault_specs(_fault_specs(arguments))
            report = run_fleet(scenario, config, fault_plan)
        print(report.render(), file=out)
        print("", file=out)
        reports[scenario.name] = report.as_dict()
    return reports


def main(argv: list[str] | None = None, out=None) -> int:
    """``serve-slo`` entry point; returns a process exit code."""
    out = out or sys.stdout
    arguments = build_parser().parse_args(argv)
    if arguments.log_level:
        from ..obs.logging import configure_logging

        configure_logging(arguments.log_level)
    bundled = bundled_scenarios()
    if arguments.list:
        print("bundled scenarios:", file=out)
        for name, path in bundled.items():
            print(f"  {name:12s} {path}", file=out)
        return 0
    names = arguments.scenario or sorted(bundled)
    if not names:
        print("error: no scenarios bundled and none given", file=out)
        return 2
    if arguments.corruption_seed is not None and not arguments.corrupt:
        print(
            "error: --corruption-seed seeds the --corrupt pipeline; "
            "pass --corrupt too",
            file=out,
        )
        return 2
    try:
        # Fault directives must name a shard that exists; with
        # --shards 0 none does, so they fail here instead of never firing.
        parse_fleet_fault_specs(_fault_specs(arguments)).validate_for(
            arguments.shards
        )
        if arguments.trace:
            from ..obs.events import TraceWriter
            from ..obs.trace import Tracer, use_tracer

            with TraceWriter(arguments.trace) as writer:
                with use_tracer(Tracer(on_finish=writer.write_span)):
                    reports = _run_all(names, arguments, out)
            print(
                f"trace written to {arguments.trace} "
                f"({writer.n_spans} spans)",
                file=out,
            )
        else:
            reports = _run_all(names, arguments, out)
    except ConfigurationError as error:
        print(f"error: {error}", file=out)
        return 2
    except ReproError as error:
        print(f"serve-slo failed: {error}", file=out)
        return 1
    if arguments.output:
        payload = {"scenarios": reports}
        Path(arguments.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"reports written to {arguments.output}", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
