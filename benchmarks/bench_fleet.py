#!/usr/bin/env python
"""Fleet-scale serving bench: replicated scenarios through the shard fleet.

Scales the bundled SLO scenarios to fleet size with ``--replicate``
semantics (every stream spec's count multiplied) and replays them
through :func:`repro.fleet.run_fleet`, writing the deterministic portion
of each report to ``BENCH_FLEET.json``; the committed copy at the
repository root is the regression reference. Virtual-clock replays are a
pure function of (scenario, fleet config), so the committed numbers are
a *trajectory*, not a measurement — identical on every machine.

Entries:

* ``bursty-1k``  — 1002 streams over 4 shards (throughput / p99 gate);
* ``bursty-10k`` — 10002 streams, same config (skipped by ``--quick``;
  demonstrates bounded memory at 10k concurrent admitted streams);
* ``overload-shed`` — 200 overload streams against a 64-slot admission
  queue under ``reject-new`` (the shed-rate gate: admission control must
  keep turning the overflow away, explicitly).

Like ``bench_serve.py``, this is a standalone script (CI's
``fleet-chaos-smoke`` job runs it without pytest)::

    PYTHONPATH=src python benchmarks/bench_fleet.py               # run all
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick \
        --output /tmp/fleet.json --check BENCH_FLEET.json         # CI gate
    PYTHONPATH=src python benchmarks/bench_fleet.py --determinism # 2x run

``--check`` fails when any entry's p99 response latency exceeds 1.5x the
committed baseline, its consult throughput (virtual-clock, so
deterministic) falls below half the baseline's, or its shed rate drifts
outside [0.5x, 1.5x] of the baseline — a shed rate *below* the band
means admission control quietly stopped bounding the backlog.
``--determinism`` replays every entry twice and fails on any byte-level
difference.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from repro.fleet import FleetConfig, SHED_REJECT_NEW, run_fleet
from repro.slo import bundled_scenarios, load_scenario
from repro.slo.scenario import replicate_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_FLEET.json"

_P99_FACTOR = 1.5
_P99_EPSILON_SECONDS = 0.001
_THROUGHPUT_FACTOR = 0.5
_SHED_BAND = (0.5, 1.5)
_SHED_EPSILON = 0.005

#: name -> (scenario, replicate factor, fleet config). Admission capacity
#: covers the full request burst for the throughput entries (the whole
#: workload is offered up front); the shed entry deliberately starves it.
_ENTRIES: dict[str, tuple[str, int, FleetConfig]] = {
    "bursty-1k": (
        "bursty",
        167,  # 6 streams/replica -> 1002
        FleetConfig(
            n_shards=4,
            max_active_per_shard=64,
            admission_capacity=1024,
            tick_events=512,
        ),
    ),
    "bursty-10k": (
        "bursty",
        1667,  # -> 10002
        FleetConfig(
            n_shards=4,
            max_active_per_shard=64,
            admission_capacity=10240,
            tick_events=512,
        ),
    ),
    "overload-shed": (
        "overload",
        50,  # 4 streams/replica -> 200
        FleetConfig(
            n_shards=2,
            max_active_per_shard=64,
            admission_capacity=64,
            shed_policy=SHED_REJECT_NEW,
            tick_events=256,
        ),
    ),
}


def _selected(quick: bool, names: list[str] | None) -> list[str]:
    if names:
        unknown = [n for n in names if n not in _ENTRIES]
        if unknown:
            known = ", ".join(_ENTRIES)
            raise SystemExit(f"unknown entries {unknown} (known: {known})")
        return names
    if quick:
        return [n for n in _ENTRIES if n != "bursty-10k"]
    return list(_ENTRIES)


def _run_entries(names: list[str]) -> dict[str, dict]:
    available = bundled_scenarios()
    reports: dict[str, dict] = {}
    for name in names:
        scenario_name, factor, config = _ENTRIES[name]
        scenario = replicate_scenario(
            load_scenario(available[scenario_name]), factor
        )
        report = run_fleet(scenario, config)
        full = report.as_dict()
        environment = full.pop("environment")
        reports[name] = full
        streams = full["streams"]
        print(
            f"{name:14s} {streams['requested']:6d} requested  "
            f"{streams['decided']:6d} decided  "
            f"{streams['shed']:5d} shed  "
            f"p99 {full['latency']['p99'] * 1e3:8.2f} ms  "
            f"{full['load']['throughput_per_second']:9.1f} consults/s  "
            f"peak RSS {environment.get('peak_rss_kb', 0) / 1024.0:7.1f} MiB  "
            f"wall {environment.get('wall_seconds', 0.0):6.1f} s"
        )
    return reports


def _check_determinism(names: list[str]) -> int:
    first = _run_entries(names)
    second = _run_entries(names)
    failures = [
        name
        for name in first
        if json.dumps(first[name], sort_keys=True)
        != json.dumps(second[name], sort_keys=True)
    ]
    if failures:
        print(
            "\nDETERMINISM FAILURE: fleet reports differed between "
            "identical runs: " + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    print(f"\ndeterminism ok: {len(first)} entry(ies) reproduced exactly")
    return 0


def _check(current: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = []
    for name, measured in current["fleets"].items():
        reference = baseline["fleets"].get(name)
        if reference is None:
            failures.append(f"{name}: missing from the committed baseline")
            continue
        p99 = measured["latency"]["p99"]
        p99_ceiling = max(
            reference["latency"]["p99"] * _P99_FACTOR, _P99_EPSILON_SECONDS
        )
        if p99 > p99_ceiling:
            failures.append(
                f"{name}: p99 {p99 * 1e3:.2f} ms exceeded "
                f"{p99_ceiling * 1e3:.2f} ms (baseline "
                f"{reference['latency']['p99'] * 1e3:.2f} ms x "
                f"{_P99_FACTOR:g})"
            )
        throughput = measured["load"]["throughput_per_second"]
        floor = reference["load"]["throughput_per_second"] * _THROUGHPUT_FACTOR
        if throughput < floor:
            failures.append(
                f"{name}: throughput {throughput:.1f} consults/s fell below "
                f"{floor:.1f} (baseline "
                f"{reference['load']['throughput_per_second']:.1f} x "
                f"{_THROUGHPUT_FACTOR:g})"
            )
        shed = measured["slo"]["shed_rate"]
        shed_baseline = reference["slo"]["shed_rate"]
        shed_floor = shed_baseline * _SHED_BAND[0] - _SHED_EPSILON
        shed_ceiling = max(shed_baseline * _SHED_BAND[1], _SHED_EPSILON)
        if not shed_floor <= shed <= shed_ceiling:
            failures.append(
                f"{name}: shed rate {shed:.3f} outside "
                f"[{max(shed_floor, 0.0):.3f}, {shed_ceiling:.3f}] "
                f"(baseline {shed_baseline:.3f}); below the band means "
                f"admission control stopped bounding the backlog"
            )
    if failures:
        print("\nFLEET REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"\nfleet gate ok: no entry regressed beyond {_P99_FACTOR:g}x p99, "
        f"{_THROUGHPUT_FACTOR:g}x throughput, or the shed-rate band"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--entry", action="append", metavar="NAME", default=None,
        help=f"entry to run (repeatable; known: {', '.join(_ENTRIES)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the 10k-stream entry (CI profile)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=str(DEFAULT_OUTPUT),
        help="where to write the JSON results (default: repo BENCH_FLEET.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help=(
            "compare against a committed BENCH_FLEET.json and exit non-zero "
            "on p99/throughput/shed-rate regressions"
        ),
    )
    parser.add_argument(
        "--determinism", action="store_true",
        help="replay every entry twice and fail on any report difference",
    )
    arguments = parser.parse_args(argv)
    names = _selected(arguments.quick, arguments.entry)

    if arguments.determinism:
        return _check_determinism(names)

    reports = _run_entries(names)
    results = {
        "clock": "virtual",
        "units": "seconds",
        "python": platform.python_version(),
        "fleets": reports,
    }
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
