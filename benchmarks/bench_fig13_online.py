"""Figure 13 — online-feasibility heatmap.

For every (algorithm, dataset) pair the cell is the per-instance test
latency divided by the dataset's observation period; below 1 the algorithm
keeps up with the stream (blue in the paper), failures to train are the
hatched cells. Prints the heatmap as a markdown matrix with FEASIBLE /
TOO-SLOW / FAILED markers and asserts the structural properties: cells
exist for every dataset with a known frequency, and slow-frequency
datasets (HouseTwenty at 8 s, Maritime at 60 s) are feasible for the
fast-inference algorithms.
"""

from _harness import (
    ALGORITHM_ORDER,
    make_benchmark_dataset,
    run_grid,
    write_report,
)

from repro.core import (
    AlgorithmRegistry,
    DatasetRegistry,
    StreamingSession,
    default_algorithms,
    wrap_for_dataset,
)
from repro.core.charts import heatmap
from repro.slo import parse_scenario, run_scenario


def test_fig13_online(benchmark):
    """Online feasibility cells (Figure 13)."""
    report = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    cells = report.online_feasibility()
    datasets = sorted({dataset for _, dataset in cells})
    algorithms = [
        name
        for name in ALGORITHM_ORDER
        if any(algorithm == name for algorithm, _ in cells)
    ]

    lines = [
        "# Figure 13 — online feasibility "
        "(test latency / observation period; <1 is feasible)",
        "",
        "| dataset | " + " | ".join(algorithms) + " |",
        "|" + "---|" * (len(algorithms) + 1),
    ]
    feasible_count = 0
    for dataset in datasets:
        row = []
        for algorithm in algorithms:
            value = cells.get((algorithm, dataset), "absent")
            if value == "absent":
                row.append("--")
            elif value is None:
                row.append("FAILED")
            else:
                marker = "ok" if value < 1.0 else "SLOW"
                feasible_count += value < 1.0
                row.append(f"{value:.3g} {marker}")
        lines.append(f"| {dataset} | " + " | ".join(row) + " |")
    # Compact marker heatmap, rows = datasets (swap the cell key order).
    marker_cells = {
        (dataset, algorithm): value
        for (algorithm, dataset), value in cells.items()
    }
    lines.extend(["", "```", heatmap(marker_cells), "```"])

    # True point-by-point latency distribution for one fast algorithm —
    # the session's latency_summary() is the same order-statistics code
    # the metrics layer aggregates, so these quantiles match a traced run.
    bench_dataset = make_benchmark_dataset(n_instances=20, length=30)
    info = default_algorithms(fast=True).get("ECTS")
    classifier = wrap_for_dataset(info.factory, bench_dataset)
    classifier.train(bench_dataset)
    session = StreamingSession(classifier, bench_dataset.length)
    session.run(bench_dataset.values[0])
    # The feasibility budget is the sampling period: over_budget_count is
    # how many consultations would have dropped an observation, and p99
    # is the tail the online criterion is really about (a feasible mean
    # with an over-budget p99 still loses data).
    budget = bench_dataset.frequency_seconds or 1.0
    latency = session.latency_summary(budget_seconds=budget)
    lines.extend(
        [
            "",
            "## Streaming push latency (ECTS, point-by-point, "
            f"budget = {budget:g}s sampling period)",
            "",
            "| count | mean | p50 | p95 | p99 | max | over budget |",
            "|---|---|---|---|---|---|---|",
            (
                f"| {latency.count} | {latency.mean * 1000:.2f}ms "
                f"| {latency.p50 * 1000:.2f}ms | {latency.p95 * 1000:.2f}ms "
                f"| {latency.p99 * 1000:.2f}ms | {latency.max * 1000:.2f}ms "
                f"| {latency.over_budget_count} |"
            ),
        ]
    )

    # Degraded-decision rate under consultation faults: replay the bench
    # dataset as a wall-clock scenario with every consultation timing
    # out (injected, zero real delay). Every stream must still decide,
    # with all decisions fallback-sourced; the same replay with no
    # faults must stay entirely model-sourced.
    algorithms = AlgorithmRegistry()
    algorithms.register(info.name, info.factory)
    datasets = DatasetRegistry()
    datasets.register(bench_dataset.name, lambda: bench_dataset)

    def replay(**overrides):
        scenario = parse_scenario(
            {
                "name": "fig13-serve",
                "clock": "wall",
                "streams": [
                    {
                        "algorithm": info.name,
                        "dataset": bench_dataset.name,
                        "count": 5,
                    }
                ],
                **overrides,
            }
        )
        return run_scenario(scenario, algorithms=algorithms, datasets=datasets)

    chaos = replay(faults=["consult:timeout"], deadline_ms=60000)
    clean = replay()
    lines.extend(
        [
            "",
            "## Degraded-decision rate (guarded serving replay)",
            "",
            "| replay | streams decided | degraded rate | breaker trips |",
            "|---|---|---|---|",
            (
                f"| all consults time out | {chaos.n_decided}/"
                f"{chaos.n_streams} | {chaos.degraded_decision_rate:.0%} "
                f"| {chaos.breaker_trips} |"
            ),
            (
                f"| no faults | {clean.n_decided}/{clean.n_streams} "
                f"| {clean.degraded_decision_rate:.0%} "
                f"| {clean.breaker_trips} |"
            ),
        ]
    )
    write_report("fig13_online", "\n".join(lines))
    assert latency.count > 0
    assert latency.p50 <= latency.p95 <= latency.p99 <= latency.max
    assert chaos.n_decided == chaos.n_streams
    assert chaos.degraded_decision_rate == 1.0
    assert chaos.breaker_trips > 0
    assert clean.degraded_decision_rate == 0.0

    assert cells, "no feasibility cells computed"
    assert feasible_count > 0
    # Every successfully evaluated pair on a frequency-carrying dataset
    # must have a numeric cell.
    for (algorithm, dataset), result in report.results.items():
        if dataset in datasets:
            assert (algorithm, dataset) in cells
