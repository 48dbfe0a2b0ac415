"""serve-fleet: drive SLO scenarios through the sharded serving fleet.

``etsc-bench serve-fleet`` loads a scenario (bundled name or file path),
replays it through :func:`repro.fleet.coordinator.run_fleet` with the
configured shard count, admission bounds, shedding policy, and planned
faults, prints the fleet report, and optionally writes the JSON payload
(the same shape ``benchmarks/bench_fleet.py`` commits as
``BENCH_FLEET.json``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ..exceptions import ConfigurationError, ReproError
from ..slo.scenario import Scenario, bundled_scenarios, resolve_scenario
from .config import SHED_POLICIES, SHED_REJECT_NEW, FleetConfig
from .coordinator import run_fleet
from .faults import parse_fleet_fault_specs

__all__ = ["main", "build_parser", "replicate_scenario"]


def _shards_argument(text: str) -> int:
    """``--shards`` accepts a positive integer or the literal ``auto``.

    ``auto`` resolves through :func:`repro.core.pool.available_cores`
    (the scheduling-affinity mask, not ``os.cpu_count()``), so a 1-core
    container gets 1 shard instead of an oversubscribed fleet.
    """
    if text == "auto":
        from ..core.pool import available_cores

        return available_cores()
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """The ``serve-fleet`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="etsc-bench serve-fleet",
        description=(
            "Serve scenario workloads through a sharded multi-tenant "
            "fleet with admission control, load shedding, and shard "
            "failover (see docs/serving.md)"
        ),
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="NAME-OR-PATH",
        help=(
            "scenario to serve: a bundled name (see --list) or a "
            "YAML/JSON file path; repeatable (default: all bundled)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list bundled scenarios, then exit",
    )
    parser.add_argument(
        "--shards", type=_shards_argument, default=2, metavar="N",
        help=(
            "shard workers in the fleet (default 2), or 'auto' to match "
            "the cores this process may actually use (sched_getaffinity; "
            "clamps to 1 on a 1-core box)"
        ),
    )
    parser.add_argument(
        "--max-active", type=int, default=64, metavar="N",
        help="in-flight session cap per shard (default 64)",
    )
    parser.add_argument(
        "--admission-capacity", type=int, default=256, metavar="N",
        help="bound on the admission backlog (default 256)",
    )
    parser.add_argument(
        "--policy",
        choices=SHED_POLICIES,
        default=SHED_REJECT_NEW,
        help="load-shedding policy when the backlog is full",
    )
    parser.add_argument(
        "--tick-events", type=int, default=256, metavar="N",
        help=(
            "arrival events each shard advances per coordinator tick; "
            "part of the deterministic contract (fault plans name ticks)"
        ),
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="real-time budget for a shard's tick reply (default 30)",
    )
    parser.add_argument(
        "--failover-limit", type=int, default=2, metavar="N",
        help=(
            "re-admissions one stream gets after losing its shard before "
            "it is degraded instead (default 2)"
        ),
    )
    parser.add_argument(
        "--kill-shard",
        action="append",
        default=[],
        metavar="SHARD@TICK",
        help=(
            "SIGKILL a shard worker at a tick boundary, e.g. 1@3; "
            "repeatable — failover must recover every in-flight stream"
        ),
    )
    parser.add_argument(
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
        "--replicate", type=int, default=1, metavar="N",
        help=(
            "multiply every stream spec's count by N (scale a bundled "
            "scenario to thousands of streams)"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the combined fleet reports as JSON to PATH",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "write a JSONL span trace; fleet.* counters are recomputable "
            "from it via python -m repro.obs.summary"
        ),
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        help="enable repro logging at LEVEL (debug/info/warning/error)",
    )
    return parser


def replicate_scenario(scenario: Scenario, factor: int) -> Scenario:
    """Scale a scenario's stream mix by ``factor`` (validated copy)."""
    if factor < 1:
        raise ConfigurationError(
            f"--replicate must be >= 1, got {factor}"
        )
    if factor == 1:
        return scenario
    return dataclasses.replace(
        scenario,
        streams=tuple(
            dataclasses.replace(spec, count=spec.count * factor)
            for spec in scenario.streams
        ),
    )


def _fault_specs(arguments) -> list[str]:
    return [f"kill:{spec}" for spec in arguments.kill_shard] + [
        f"hang:{spec}" for spec in arguments.hang_shard
    ]


def _run_all(names: list[str], arguments, out) -> dict:
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
        # A fresh fault plan per scenario: plans record fired directives.
        fault_plan = parse_fleet_fault_specs(_fault_specs(arguments))
        report = run_fleet(scenario, config, fault_plan)
        print(report.render(), file=out)
        print("", file=out)
        reports[scenario.name] = report.as_dict()
    return reports


def main(argv: list[str] | None = None, out=None) -> int:
    """``serve-fleet`` entry point; returns a process exit code."""
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
    try:
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
        print(f"serve-fleet failed: {error}", file=out)
        return 1
    if arguments.output:
        payload = {"fleets": reports}
        Path(arguments.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"reports written to {arguments.output}", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
