"""End-to-end and per-layer benchmark of the ETSC evaluation framework.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py
    python3 benchmarks/e2e/run.py --workload grid-weasel --seed 0
    python3 benchmarks/e2e/run.py --workload serve-weasel --trace 1
    python3 benchmarks/e2e/run.py --repeat 5
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --profile-full-grid
    python3 benchmarks/e2e/run.py --workload grid-weasel --update-reference

Without ``--workload`` every workload runs once, each in its own
process; ``--repeat N`` runs each N times on successive seeds and prints
the spread of every metric; ``--smoke`` is a seconds-long self-check;
``--profile-full-grid`` traces the whole 8x12 default grid (~15 min);
``--update-reference`` records the run's decision digests for its seed.

One workload run sets up at least ``SETUP_REPEATS`` times and for at
least ``SETUP_MIN_SECONDS`` (the median is ``setup_s``), then measures
for ``--seconds`` seconds and prints every metric by name and unit. Its
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. An untraced run
repeats its passes in ``ROUNDS`` rounds; a traced run pairs each pass
with a traced twin, and ``trace_overhead_pct`` compares the two. See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
#: A grid's set-up is a sub-millisecond data generation; many repeats make
#: its median steady.
SETUP_MIN_SECONDS = 0.5
#: Untraced runs repeat their passes in this many rounds.
ROUNDS = 3
#: One BLAS thread: on the 2-core reference box a second thread gave no
#: speed-up on these small matrices, only run-to-run noise.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _median(values):
    return float(statistics.median(values))


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def environment() -> dict[str, str]:
    """What decisions may legitimately depend on besides the code."""
    import numpy as np

    return {"numpy": np.__version__, "machine": platform.machine()}


# ----------------------------------------------------------------------
# One workload, in this process.


def _traced_pass(workload, index: int, keep: list | None):
    from layers import ROOT as ROOT_SPAN
    from layers import BenchTracer, Instrumentation, layer_totals
    from repro.obs.trace import use_tracer

    tracer = BenchTracer()
    with use_tracer(tracer), Instrumentation(tracer), tracer.span(ROOT_SPAN):
        result = workload.run_pass(index)
    spans = tracer.finished_spans()
    if keep is not None:
        keep.extend(spans)
    return result, layer_totals(spans), spans[-1].duration


def _layer_metrics(passes, traced, totals, traced_seconds) -> dict[str, float]:
    from layers import LAYERS
    from layers import ROOT as ROOT_SPAN

    n_traced = len(traced)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_seconds = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls / n_traced
        metrics[f"{layer}.self_pct"] = 100.0 * self_seconds / traced_seconds
    metrics[f"{ROOT_SPAN}.self_pct"] = (
        100.0 * totals.get(ROOT_SPAN, (0, 0.0))[1] / traced_seconds
    )
    metrics["trace_overhead_pct"] = 100.0 * (
        _median([result.seconds for result in traced])
        / _median([result.seconds for result in passes])
        - 1.0
    )
    streams = sum(result.attempted for result in passes)
    consults = sum(result.consults for result in passes)
    traced_consults = sum(result.consults for result in traced)
    weasel_calls = totals.get("tsc.weasel.predict_proba", (0, 0.0))[0]
    metrics["serve.consults_per_stream"] = (
        consults / streams if consults else 0.0
    )
    metrics["tsc.weasel.predict_proba.per_consult"] = (
        weasel_calls / traced_consults if traced_consults else 0.0
    )
    return metrics


def _reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _compare_reference(name: str, seed: int, got: dict[str, str]):
    """``(problems, message)`` from the committed reference digests."""
    reference = _reference()
    recorded = reference.get("environment")
    if recorded != environment():
        return [], (
            f"reference skipped: recorded on {recorded}, "
            f"running on {environment()}"
        )
    expected = reference.get("seeds", {}).get(str(seed), {}).get(name)
    if expected is None:
        return [], f"no reference for seed {seed}"
    keys = sorted(set(expected) | set(got))
    mismatched = [key for key in keys if expected.get(key) != got.get(key)]
    problems = [
        f"{key}: digest {got.get(key)} differs from reference "
        f"{expected.get(key)}"
        for key in mismatched
    ]
    return problems, (
        f"reference seed {seed}: mismatch_frac "
        f"{len(mismatched) / len(keys):.3f} ({len(mismatched)}/{len(keys)})"
    )


def update_reference(name: str, seed: int, got: dict[str, str]) -> None:
    """Record ``got`` as the reference digests of ``name`` at ``seed``."""
    reference = _reference()
    if reference.get("environment") != environment():
        reference = {"environment": environment(), "seeds": {}}
    reference["seeds"].setdefault(str(seed), {})[name] = got
    text = json.dumps(reference, indent=2, sort_keys=True)
    REFERENCE.write_text(text + "\n", encoding="utf-8")


def _rounds(workload, seconds: float, smoke: bool) -> list[list]:
    """Run the workload's passes in ``ROUNDS`` rounds over the same inputs.

    The first round runs passes until a third of the window is used; the
    other rounds repeat exactly those passes, seconds apart.
    """
    first: list = []
    start = time.perf_counter()
    while len(first) < workload.min_passes or not smoke and (
        time.perf_counter() - start + _median([p.seconds for p in first])
        <= seconds / ROUNDS
    ):
        first.append(workload.run_pass(len(first)))
    rounds = [first]
    for _ in range(0 if smoke else ROUNDS - 1):
        rounds.append([workload.run_pass(i) for i in range(len(first))])
    return rounds


def _fastest_of_rounds(rounds: list[list], problems: list[str]):
    """``(unit latencies, pass seconds)``, each the fastest of the rounds.

    Host interference on a shared box only slows work down, in bursts of a
    few seconds; a unit of work repeated in rounds seconds apart counts its
    fastest run, as ``timeit`` does. A pass's time is its units' fastest
    times plus its fastest remaining overhead.
    """
    latencies: list[float] = []
    pass_seconds: list[float] = []
    for index, runs in enumerate(zip(*rounds)):
        if len({len(run.latencies_ms) for run in runs}) != 1:
            problems.append(f"pass {index} did different work across rounds")
            continue
        fastest = [min(unit) for unit in zip(*(r.latencies_ms for r in runs))]
        overhead = min(r.seconds - sum(r.latencies_ms) / 1e3 for r in runs)
        latencies.extend(fastest)
        pass_seconds.append(sum(fastest) / 1e3 + overhead)
    return latencies, pass_seconds


def _traced_passes(workload, seconds: float, smoke: bool, keep: bool):
    """Pairs of an untraced and a traced pass over the same inputs, so
    ``trace_overhead_pct`` compares equal work."""
    passes, traced = [], []
    totals: dict[str, list[float]] = {}
    traced_seconds = 0.0
    kept: list | None = [] if keep else None
    pairs = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(workload.run_pass(len(passes)))
        result, pass_totals, root_seconds = _traced_pass(
            workload, len(passes) - 1, kept
        )
        traced.append(result)
        traced_seconds += root_seconds
        for layer, (calls, self_seconds) in pass_totals.items():
            entry = totals.setdefault(layer, [0, 0.0])
            entry[0] += calls
            entry[1] += self_seconds
        pairs.append(time.perf_counter() - began)
        if len(passes) >= workload.min_passes and (
            smoke or time.perf_counter() - start + _median(pairs) > seconds
        ):
            return passes, traced, totals, traced_seconds, kept


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    trace_dir: str | None = None,
    smoke: bool = False,
    update: bool = False,
) -> dict:
    """Run one workload in this process and return its result object."""
    from workloads import make_workload, quality

    workload = make_workload(name, seed, smoke)
    setups = []
    while not setups or not smoke and (
        len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_SECONDS
    ):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    start = time.perf_counter()
    if trace:
        passes, traced, totals, traced_seconds, kept = _traced_passes(
            workload, seconds, smoke, bool(trace_dir)
        )
    else:
        rounds = _rounds(workload, seconds, smoke)
        passes = [result for round_ in rounds for result in round_]
        traced = []
    window = time.perf_counter() - start

    problems = workload.check(passes)
    problems += [
        f"traced pass {index} decided differently from its untraced twin"
        for index, (result, twin) in enumerate(zip(traced, passes))
        if result.decisions != twin.decisions
    ]
    got = workload.digests(passes)
    if smoke:
        reference_line = "smoke run: reference not applicable"
    else:
        found, reference_line = _compare_reference(name, seed, got)
        problems.extend(found)
    if update and not smoke:
        update_reference(name, seed, got)
        reference_line += f"; reference updated for seed {seed}"

    if trace:
        values = _layer_metrics(passes, traced, totals, traced_seconds)
        declared = SPEC["per_layer"]
        latencies = [ms for result in passes for ms in result.latencies_ms]
    else:
        latencies, block_seconds = _fastest_of_rounds(rounds, problems)
        values = {
            "setup_s": _median(setups),
            "wall_s": _median(block_seconds),
            "latency_p50_ms": _percentile(latencies, 50),
            "latency_p95_ms": _percentile(latencies, 95),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        declared = SPEC["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(values) ^ set(units))} are not both "
            "computed and declared in BENCHMARK.json"
        )
    if trace and kept:
        from repro.obs.events import TraceWriter

        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        with TraceWriter(Path(trace_dir) / f"{name}.jsonl") as writer:
            for span in kept:
                writer.write_span(span)

    info = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "window_s": window,
        "samples": len(latencies),
        "quality": quality(passes),
        "digests": got,
        "reference": reference_line,
        "problems": problems,
    }
    return {
        "info": info,
        "result": {
            "correct": not problems,
            "attempted": sum(result.attempted for result in passes),
            "failed": sum(result.failed for result in passes),
            "metrics": {
                metric: {"value": values[metric], "unit": units[metric]}
                for metric in units
            },
        },
    }


def report(outcome: dict) -> None:
    """Print a measured run: readable lines, then the JSON result line."""
    info, result = outcome["info"], outcome["result"]
    print(
        f"workload {info['workload']} seed {info['seed']}: "
        f"{info['passes']} passes ({info['traced_passes']} traced) in "
        f"{info['window_s']:.1f} s, {info['samples']} latency samples, "
        f"{result['failed']}/{result['attempted']} failed"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    q = info["quality"]
    print(
        f"  accuracy {q['accuracy']:.4f}  earliness {q['earliness']:.4f}  "
        f"harmonic_mean {q['harmonic_mean']:.4f}"
    )
    for key, value in info["digests"].items():
        print(f"  digest {key} {value}")
    print(f"  {info['reference']}")
    for problem in info["problems"]:
        print(f"  INCORRECT: {problem}")
    print(json.dumps(result))


# ----------------------------------------------------------------------
# Several workloads, one child process each.


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    trace_dir: str | None = None,
) -> tuple[int, str, dict | None]:
    """Run one workload in a fresh process: ``(exit code, stdout, result)``."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    if smoke:
        command.append("--smoke")
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    process = subprocess.run(
        command, capture_output=True, text=True, timeout=900, cwd=ROOT
    )
    lines = process.stdout.strip().splitlines()
    result = None
    if process.returncode == 0 and lines:
        result = json.loads(lines[-1])
    if process.returncode != 0:
        sys.stderr.write(process.stderr)
    return process.returncode, process.stdout, result


def run_all(args) -> int:
    """Every workload once, each in its own process."""
    ok = True
    for workload in WORKLOAD_NAMES:
        code, stdout, result = run_child(
            workload, args.seed, args.seconds, args.trace == 1, args.smoke,
            args.trace_dir,
        )
        sys.stdout.write(stdout)
        ok = ok and result is not None
        ok = ok and result["correct"] and result["failed"] == 0
    print("all workloads correct" if ok else "SOME WORKLOADS FAILED")
    return 0 if ok else 1


def run_repeat(args) -> int:
    """``--repeat N``: N runs per workload on successive seeds.

    Prints each metric's median, quartiles and spread (quartile distance
    over median, as ``statistics.quantiles`` gives them) and flags a spread
    above the metric's bound. The last line is the JSON baseline.
    """
    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    bounds = {metric["name"]: metric.get("bound") for metric in declared}
    seeds = [args.seed + i for i in range(args.repeat)]
    summary: dict[str, dict] = {}
    ok = True
    for workload in WORKLOAD_NAMES:
        runs = []
        for seed in seeds:
            code, _, result = run_child(
                workload, seed, args.seconds, args.trace == 1
            )
            if code != 0 or result is None:
                print(f"{workload} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append(result)
        if len(runs) < 2:
            continue
        summary[workload] = {}
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            flag = ""
            if bound is not None and spread > bound:
                flag = f"  SPREAD ABOVE BOUND {bound}"
            elif bound is not None and spread > bound / 3:
                flag = f"  spread above a third of bound {bound}"
            unit = runs[0]["metrics"][metric]["unit"]
            print(
                f"  {metric:<44} median {median:>12.6g} q1 {q1:>12.6g} "
                f"q3 {q3:>12.6g} {unit:<6} spread {spread:6.3f}{flag}"
            )
            print("    runs: " + " ".join(f"{value:.4g}" for value in values))
            summary[workload][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "unit": unit,
            }
    import numpy as np

    print(json.dumps({
        "runs_per_workload": args.repeat,
        "seeds": seeds,
        "run_seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workloads": summary,
    }))
    return 0 if ok else 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ----------------------------------------------------------------------
# The one-off profile of the full default grid.


def _top_layers(shares: dict[str, float], n: int = 3) -> list[str]:
    return sorted(shares, key=shares.get, reverse=True)[:n]


def profile_full_grid(args) -> int:
    """Traced pass over every default cell: per-algorithm x layer shares.

    Cells run one at a time so their spans can be folded into totals and
    dropped as the grid advances. The last line is a JSON document.
    """
    import numpy as np

    from layers import ROOT as ROOT_SPAN
    from layers import BenchTracer, Instrumentation, layer_totals
    from repro.core.registry import default_algorithms, default_datasets
    from repro.core.runner import BenchmarkRunner
    from repro.obs.trace import use_tracer
    from workloads import (
        GRID_FOLDS,
        GRID_SCALE,
        WORKLOADS,
        GridSpec,
        make_workload,
    )

    algorithms = default_algorithms()
    datasets = default_datasets(scale=GRID_SCALE, seed=args.seed)
    per_algorithm: dict[str, dict[str, float]] = {}
    per_layer: dict[str, float] = {}
    failures = {}
    total = 0.0
    for dataset in datasets.names():
        for algorithm in algorithms.names():
            tracer = BenchTracer()
            runner = BenchmarkRunner(
                algorithms, datasets, n_folds=GRID_FOLDS, seed=args.seed
            )
            with use_tracer(tracer), Instrumentation(tracer), tracer.span(
                ROOT_SPAN
            ):
                cell = runner.run([algorithm], [dataset])
            for (failed, on), reason in cell.failures.items():
                failures[f"{failed}/{on}"] = reason
            spans = tracer.finished_spans()
            total += spans[-1].duration
            row = per_algorithm.setdefault(algorithm, {})
            for layer, (_, self_seconds) in layer_totals(spans).items():
                row[layer] = row.get(layer, 0.0) + self_seconds
                per_layer[layer] = per_layer.get(layer, 0.0) + self_seconds
            print(
                f"{algorithm} on {dataset}: {spans[-1].duration:.2f} s",
                flush=True,
            )
    layer_shares = {layer: s / total for layer, s in per_layer.items()}
    full_top = _top_layers(
        {k: v for k, v in layer_shares.items() if k != ROOT_SPAN}
    )
    comparison = {}
    for name, spec in WORKLOADS.items():
        if not isinstance(spec, GridSpec):
            continue
        workload = make_workload(name, args.seed)
        workload.setup()
        _, totals, seconds = _traced_pass(workload, 0, None)
        shares = {
            layer: s / seconds for layer, (_, s) in totals.items()
            if layer != ROOT_SPAN
        }
        top = _top_layers(shares)
        comparison[name] = {
            "top_layers": top,
            "shares": {layer: round(shares[layer], 4) for layer in top},
            "same_top_layers_as_full_grid": set(top) == set(full_top),
            "shared_top_layers": [layer for layer in top if layer in full_top],
        }
    document = {
        "scale": GRID_SCALE,
        "folds": GRID_FOLDS,
        "seed": args.seed,
        "cells": len(datasets) * len(algorithms),
        "failed_cells": failures,
        "traced_grid_s": round(total, 3),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "numpy": np.__version__,
        "top_layers": full_top,
        "layer_shares": {
            layer: round(share, 4)
            for layer, share in sorted(
                layer_shares.items(), key=lambda item: -item[1]
            )
        },
        "algorithm_layer_shares": {
            algorithm: {
                layer: round(s / total, 4)
                for layer, s in sorted(row.items(), key=lambda item: -item[1])
                if s / total >= 0.0001
            }
            for algorithm, row in per_algorithm.items()
        },
        "grid_workloads": comparison,
    }
    print(json.dumps(document))
    return 0


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark (see README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-dir", help="with --trace 1, write <workload>.jsonl spans here"
    )
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--profile-full-grid", action="store_true")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    for variable in PINNED_THREADS:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fail before printing anything without src/)

    if args.profile_full_grid:
        return profile_full_grid(args)
    if args.repeat:
        return run_repeat(args)
    if args.workload is None:
        return run_all(args)
    report(
        measure(
            args.workload, args.seed, args.seconds, args.trace == 1,
            args.trace_dir, args.smoke, args.update_reference,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
