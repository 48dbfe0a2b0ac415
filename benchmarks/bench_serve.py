#!/usr/bin/env python
"""Serving-SLO trajectory bench: replay the bundled scenarios and gate.

Runs every bundled SLO scenario (``src/repro/slo/scenarios/``) through
:func:`repro.slo.run_scenario` and writes the deterministic portion of
each report to ``BENCH_SERVE.json``; the committed copy at the
repository root is the regression reference. Because the scenarios run
under the virtual clock, the recorded numbers are a pure function of
scenario config + seed — identical on every machine — so the committed
file is a *trajectory*, not a measurement.

Like ``bench_perf.py``, this is a standalone script (CI's
``serve-slo-smoke`` job runs it without pytest)::

    PYTHONPATH=src python benchmarks/bench_serve.py               # run all
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --check BENCH_SERVE.json                                  # gate
    PYTHONPATH=src python benchmarks/bench_serve.py --determinism # 2x run

``--check`` fails when a scenario is missing from either side, when
any scenario's deadline-miss rate exceeds twice the committed baseline
(plus a small absolute epsilon so a zero baseline stays gateable), or
when its p99 response latency regressed beyond 1.5x.
``--determinism`` replays every scenario twice and fails on any
byte-level difference between the two deterministic reports.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from repro.slo import bundled_scenarios, load_scenario, run_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_SERVE.json"

# Gate thresholds: deterministic virtual-clock replays should reproduce
# the committed numbers exactly, but cross-version BLAS differences can
# nudge a classifier's decision point, so the gate allows headroom
# before failing — mirroring perf-smoke's factor-of-two philosophy.
_MISS_RATE_FACTOR = 2.0
_MISS_RATE_EPSILON = 0.005  # absolute floor so zero baselines stay gateable
_P99_FACTOR = 1.5
_P99_EPSILON_SECONDS = 0.001


def _run_scenarios(names: list[str] | None) -> dict[str, dict]:
    available = bundled_scenarios()
    selected = names or sorted(available)
    reports: dict[str, dict] = {}
    for name in selected:
        if name not in available:
            known = ", ".join(sorted(available))
            raise SystemExit(f"unknown scenario {name!r} (bundled: {known})")
        scenario = load_scenario(available[name])
        report = run_scenario(scenario)
        reports[name] = report.deterministic_dict()
        slo = reports[name]["slo"]
        print(
            f"{name:12s} consults {reports[name]['load']['consults']:5d}   "
            f"p99 {reports[name]['latency']['p99'] * 1e3:8.2f} ms   "
            f"miss rate {slo['deadline_miss_rate']:.3f}   "
            f"degraded {slo['degraded_decision_rate']:.3f}"
        )
    return reports


def _check_determinism(names: list[str] | None) -> int:
    first = _run_scenarios(names)
    second = _run_scenarios(names)
    failures = [
        name
        for name in first
        if json.dumps(first[name], sort_keys=True)
        != json.dumps(second[name], sort_keys=True)
    ]
    if failures:
        print(
            "\nDETERMINISM FAILURE: reports differed between identical runs: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    print(f"\ndeterminism ok: {len(first)} scenario(s) reproduced exactly")
    return 0


def _check(current: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    # Fail closed: a scenario this run measured must have a reference.
    failures = [
        f"{name}: missing from the committed baseline"
        for name in current["scenarios"]
        if name not in baseline["scenarios"]
    ]
    for name, reference in baseline["scenarios"].items():
        measured = current["scenarios"].get(name)
        if measured is None:
            failures.append(f"{name}: missing from this run")
            continue
        miss_rate = measured["slo"]["deadline_miss_rate"]
        miss_ceiling = max(
            reference["slo"]["deadline_miss_rate"] * _MISS_RATE_FACTOR,
            _MISS_RATE_EPSILON,
        )
        if miss_rate > miss_ceiling:
            failures.append(
                f"{name}: deadline-miss rate {miss_rate:.4f} exceeded "
                f"{miss_ceiling:.4f} (baseline "
                f"{reference['slo']['deadline_miss_rate']:.4f} x "
                f"{_MISS_RATE_FACTOR:g})"
            )
        p99 = measured["latency"]["p99"]
        p99_ceiling = max(
            reference["latency"]["p99"] * _P99_FACTOR, _P99_EPSILON_SECONDS
        )
        if p99 > p99_ceiling:
            failures.append(
                f"{name}: p99 {p99 * 1e3:.2f} ms exceeded "
                f"{p99_ceiling * 1e3:.2f} ms (baseline "
                f"{reference['latency']['p99'] * 1e3:.2f} ms x {_P99_FACTOR:g})"
            )
    if failures:
        print("\nSLO REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"\nslo gate ok: no scenario regressed beyond "
        f"{_MISS_RATE_FACTOR:g}x miss rate / {_P99_FACTOR:g}x p99 vs baseline"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario", action="append", metavar="NAME", default=None,
        help="bundled scenario to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=str(DEFAULT_OUTPUT),
        help="where to write the JSON results (default: repo BENCH_SERVE.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help=(
            "compare against a committed BENCH_SERVE.json and exit non-zero "
            f"on >{_MISS_RATE_FACTOR:g}x deadline-miss rate or "
            f">{_P99_FACTOR:g}x p99 latency"
        ),
    )
    parser.add_argument(
        "--determinism", action="store_true",
        help="replay every scenario twice and fail on any report difference",
    )
    arguments = parser.parse_args(argv)

    if arguments.determinism:
        return _check_determinism(arguments.scenario)

    reports = _run_scenarios(arguments.scenario)
    results = {
        "clock": "virtual",
        "units": "seconds",
        "python": platform.python_version(),
        "scenarios": reports,
    }
    output = Path(arguments.output)
    output.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nresults written to {output}")

    if arguments.check:
        return _check(results, Path(arguments.check))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
