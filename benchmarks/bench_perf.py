#!/usr/bin/env python
"""Performance harness for the vectorised kernels and the parallel grid.

Times each rewritten kernel against an in-file reimplementation of the
historical loop it replaced, plus a small end-to-end evaluation grid at
``--workers 1`` and ``--workers 4``. Results go to ``BENCH_PERF.json``
(op -> median/p90 seconds and speedup vs the naive baseline); the
committed copy at the repository root is the regression reference.

Unlike the ``bench_*`` figure benches, this file is a standalone script
(CI's ``perf-smoke`` job runs it without pytest)::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full
    PYTHONPATH=src python benchmarks/bench_perf.py --quick    # CI sizes
    PYTHONPATH=src python benchmarks/bench_perf.py --quick \
        --output /tmp/perf.json --check BENCH_PERF.json       # gate

``--check`` compares *speedups* (vectorised vs naive, both measured in
the same process on the same machine) rather than absolute seconds, so
the gate is meaningful across CI runner generations: it fails when any
kernel's speedup fell below half of the committed baseline's. It fails
closed: a baseline that gates no kernel, or a kernel measured here that
has no baseline row, is a failure, not a pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import AlgorithmRegistry, BenchmarkRunner, DatasetRegistry
from repro.etsc import ECTS
from repro.etsc.edsc import _best_match_distances
from repro.stats.backends import (
    OpTolerance,
    assert_conformant,
    get_backend,
    tolerance_for,
)
from repro.stats.distance import PrefixDistanceCache, pairwise_squared_euclidean

sys.path.insert(0, str(Path(__file__).parent))
from _harness import make_benchmark_dataset  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PERF.json"


# ---------------------------------------------------------------------------
# Naive baselines: faithful reimplementations of the historical loops.


def _naive_prefix_scan(references: np.ndarray, query: np.ndarray) -> np.ndarray:
    """From-scratch squared prefix distances recomputed at every length."""
    length = query.shape[-1]
    out = np.empty(len(references))
    for t in range(1, length + 1):
        differences = references[:, :t] - query[:t]
        out = np.einsum("ij,ij->i", differences, differences)
    return out


def _cached_prefix_scan(references: np.ndarray, query: np.ndarray) -> np.ndarray:
    cache = PrefixDistanceCache(references)
    out = None
    for t in range(query.shape[-1]):
        out = cache.advance(query[t])
    return out


def _naive_window_match(pattern: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Per-row, per-offset EDSC matching loop."""
    width = len(pattern)
    n_offsets = matrix.shape[1] - width + 1
    best = np.empty(matrix.shape[0])
    for i, row in enumerate(matrix):
        best[i] = min(
            float(np.sqrt(((row[s : s + width] - pattern) ** 2).sum()))
            for s in range(n_offsets)
        )
    return best


def _naive_kmeans_update(
    rows: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """The historical per-centroid Lloyd update."""
    distances = pairwise_squared_euclidean(rows, centroids)
    assignment = distances.argmin(axis=1)
    new_centroids = centroids.copy()
    for cluster in range(len(centroids)):
        members = rows[assignment == cluster]
        if len(members):
            new_centroids[cluster] = members.mean(axis=0)
        else:
            new_centroids[cluster] = rows[distances.min(axis=1).argmax()]
    return new_centroids


def _vector_kmeans_update(
    rows: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """One Lloyd step through the shipped ``kmeans_update`` kernel op."""
    return get_backend("numpy").kmeans_update(rows, centroids)[0]


# Correctness tolerances come from the same per-op conformance policy the
# backend test suite asserts through (``tolerance_for``), so "equivalent"
# cannot mean one thing in tests and another in benchmarks. The prefix
# scan is the one exception: its in-file baseline recomputes each prefix
# from scratch with an einsum reduction rather than accumulating
# sequentially, so exactness is structurally impossible and it carries
# its own reordered-reduction bound over squared quantities.
_PREFIX_RESCAN_TOLERANCE = OpTolerance(
    rtol=1e-12,
    atol=1e-12,
    scale_power=2,
    note="from-scratch einsum rescan vs sequential accumulation",
)


def _conformance_check(tolerance, inputs=()):
    """A ``check_close`` callback asserting the shared tolerance policy."""
    return lambda fast, naive: assert_conformant(
        fast, naive, tolerance, inputs=inputs
    )


# ---------------------------------------------------------------------------
# Timing machinery.


def _time(function, repeats: int) -> dict:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    samples.sort()
    p90_index = min(len(samples) - 1, int(round(0.9 * (len(samples) - 1))))
    return {
        "median": statistics.median(samples),
        "p90": samples[p90_index],
    }


def _bench_op(name, fast, naive, repeats, ops, check_close=None):
    fast_result, naive_result = fast(), naive()  # warm-up + correctness
    if check_close is not None:
        check_close(fast_result, naive_result)
    timing = _time(fast, repeats)
    baseline = _time(naive, max(2, repeats // 3))
    timing["baseline_median"] = baseline["median"]
    timing["speedup"] = (
        baseline["median"] / timing["median"] if timing["median"] else float("inf")
    )
    ops[name] = timing
    print(
        f"{name:24s} median {timing['median']*1e3:9.3f} ms   "
        f"naive {baseline['median']*1e3:9.3f} ms   "
        f"speedup {timing['speedup']:6.1f}x"
    )


def _kernel_benchmarks(quick: bool, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    ops: dict[str, dict] = {}

    # Near full sizes even in quick mode: the cache's advantage grows
    # with stream length, so a smaller scan would make the CI gate's
    # speedup comparison against the committed baseline meaningless.
    n_references, series_length = (160, 220) if quick else (200, 250)
    references = rng.normal(size=(n_references, series_length))
    query = rng.normal(size=series_length)
    _bench_op(
        "prefix_cache_scan",
        lambda: _cached_prefix_scan(references, query),
        lambda: _naive_prefix_scan(references, query),
        repeats,
        ops,
        check_close=_conformance_check(
            _PREFIX_RESCAN_TOLERANCE, inputs=(references, query)
        ),
    )

    n_series, match_length, width = (60, 150, 20) if quick else (120, 300, 30)
    match_matrix = rng.normal(size=(n_series, match_length))
    pattern = rng.normal(size=width)
    _bench_op(
        "edsc_window_match",
        lambda: _best_match_distances(pattern, match_matrix),
        lambda: _naive_window_match(pattern, match_matrix),
        repeats,
        ops,
        check_close=_conformance_check(
            tolerance_for("numpy", "shapelet_match"),
            inputs=(pattern, match_matrix),
        ),
    )

    n_points, n_features, k = (800, 12, 10) if quick else (3000, 16, 16)
    points = rng.normal(size=(n_points, n_features))
    centroids = points[rng.choice(n_points, size=k, replace=False)].copy()
    _bench_op(
        "kmeans_update",
        lambda: _vector_kmeans_update(points, centroids),
        lambda: _naive_kmeans_update(points, centroids),
        repeats,
        ops,
        check_close=_conformance_check(
            tolerance_for("numpy", "kmeans_update"),
            inputs=(points, centroids),
        ),
    )
    return ops


# ---------------------------------------------------------------------------
# End-to-end grid: serial vs 4 workers.
#
# Two grids are timed. The ECTS grid is pure CPU work, so its speedup
# tracks the physical core count of the machine generating the file (1.0x
# on a single-core box — see the recorded ``cpu_count``). The stalled
# grid's cells block on a fixed per-cell stall, the shape of budget waits
# and dataset I/O in real campaigns; its speedup isolates what the worker
# pool itself contributes — overlap of cell latency — independent of cores.

_STALL_SECONDS = 0.15


class _StalledECTS(ECTS):
    """ECTS whose training additionally blocks, emulating per-cell I/O."""

    def _train(self, dataset):
        time.sleep(_STALL_SECONDS)
        super()._train(dataset)


def _grid_registries(quick: bool, stalled: bool = False):
    algorithms = AlgorithmRegistry()
    if stalled:
        algorithms.register("ECTS", lambda: _StalledECTS(support=0.0))
    else:
        algorithms.register("ECTS", lambda: ECTS(support=0.0))
    datasets = DatasetRegistry()
    n_datasets = 6 if quick else 8
    if stalled:
        n_instances, length = 40, 30
    else:
        n_instances, length = (200, 80) if quick else (300, 100)
    for index in range(n_datasets):
        name = f"bench{index}"
        datasets.register(
            name,
            lambda index=index: make_benchmark_dataset(
                n_instances=n_instances, length=length, seed=index
            ),
        )
    return algorithms, datasets


def _run_grid(quick: bool, workers: int, stalled: bool = False) -> float:
    algorithms, datasets = _grid_registries(quick, stalled=stalled)
    runner = BenchmarkRunner(
        algorithms, datasets, n_folds=2, seed=0, workers=workers
    )
    start = time.perf_counter()
    report = runner.run()
    elapsed = time.perf_counter() - start
    assert not report.failures, report.failures
    return elapsed


def _grid_pair(quick: bool, name: str, ops: dict, stalled: bool) -> None:
    serial = _run_grid(quick, workers=1, stalled=stalled)
    parallel = _run_grid(quick, workers=4, stalled=stalled)
    ops[f"{name}_workers_1"] = {"median": serial, "p90": serial}
    ops[f"{name}_workers_4"] = {
        "median": parallel,
        "p90": parallel,
        "baseline_median": serial,
        "speedup": serial / parallel if parallel else float("inf"),
    }
    print(
        f"{name + '_workers_4':24s} median {parallel*1e3:9.3f} ms   "
        f"serial {serial*1e3:9.3f} ms   "
        f"speedup {serial / parallel:6.1f}x"
    )


def _grid_benchmarks(quick: bool, ops: dict) -> None:
    _grid_pair(quick, "grid", ops, stalled=False)
    _grid_pair(quick, "grid_stalled", ops, stalled=True)


# ---------------------------------------------------------------------------
# Regression gate.

_GATE_FACTOR = 2.0


def _gated(ops: dict) -> set[str]:
    # Wall-clock of forked workers is too noisy to gate.
    return {op for op in ops if not op.startswith("grid_")}


def _check(current: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    gated = _gated(baseline.get("ops", {}))
    failures = []
    if not gated:
        failures.append(f"{baseline_path}: the baseline gates no kernel")
    for op in sorted(_gated(current["ops"]) - gated):
        failures.append(f"{op}: missing from the committed baseline")
    for op in sorted(gated):
        reference = baseline["ops"][op]
        measured = current["ops"].get(op)
        if measured is None:
            failures.append(f"{op}: missing from this run")
            continue
        floor = reference["speedup"] / _GATE_FACTOR
        if measured["speedup"] < floor:
            failures.append(
                f"{op}: speedup {measured['speedup']:.1f}x fell below "
                f"{floor:.1f}x (baseline {reference['speedup']:.1f}x / "
                f"{_GATE_FACTOR:g})"
            )
    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nperf gate ok: no kernel regressed >{_GATE_FACTOR:g}x vs baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI sizes: smaller inputs, fewer repeats",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per op (default 7, or 5 with --quick)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=str(DEFAULT_OUTPUT),
        help="where to write the JSON results (default: repo BENCH_PERF.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help=(
            "compare against a committed BENCH_PERF.json and exit non-zero "
            f"if any kernel's speedup fell below baseline/{_GATE_FACTOR:g}"
        ),
    )
    parser.add_argument(
        "--skip-grid", action="store_true",
        help="kernels only (skip the end-to-end worker-pool comparison)",
    )
    arguments = parser.parse_args(argv)
    repeats = arguments.repeats or (5 if arguments.quick else 7)

    ops = _kernel_benchmarks(arguments.quick, repeats)
    if not arguments.skip_grid:
        _grid_benchmarks(arguments.quick, ops)

    results = {
        "mode": "quick" if arguments.quick else "full",
        "repeats": repeats,
        "units": "seconds",
        "cpu_count": os.cpu_count(),
        "ops": ops,
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
