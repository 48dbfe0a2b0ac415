"""Real-time SLO harness: scenario-driven serve workloads.

The paper frames evaluation of early time-series classifiers as a
*framework* question; this package extends that framing to the serving
layer's real-time behaviour. A **scenario** is a declarative YAML/JSON
config — arrival process, stream mix across datasets/algorithms, service
model, consult deadline, fault spec — and the harness replays it through
:class:`~repro.serve.session.GuardedStreamingSession` on a virtual (or
wall) clock, reporting throughput, latency quantiles up to p99.9,
jitter, deadline-miss rate, degraded-decision rate, and breaker
behaviour per scenario (``docs/slo.md``).

Scenario diversity is *data*, not code: the bundled ``scenarios/``
directory ships baseline / bursty / faulty configs, ``etsc-bench
serve-slo --scenario <file-or-name>`` runs any of them, and
``benchmarks/bench_serve.py`` maintains the committed, CI-gated
``BENCH_SERVE.json`` trajectory alongside ``BENCH_PERF.json``.

``serve-slo --shards N`` serves the same scenarios through the sharded
fleet (:mod:`repro.fleet`); both drivers return one
:class:`ScenarioReport`, whose optional fleet section holds admission,
failover and per-shard data.

Virtual-clock replays are fully deterministic: arrival times and
simulated service times come from seeded generators, deadlines are
enforced on the session's injected clock (never SIGALRM), and two runs
of the same scenario produce identical reports byte for byte.
"""

from .arrival import ARRIVAL_PROCESSES, ArrivalSpec
from .clock import VirtualClock
from .harness import (
    ScenarioBundle,
    SimulatedClassifier,
    derive_seed,
    run_scenario,
    train_scenario_bundles,
)
from .report import FleetSection, ScenarioReport, ShardSummary
from .scenario import (
    CLOCK_MODES,
    BreakerSpec,
    Scenario,
    ServiceModel,
    StreamSpec,
    bundled_scenarios,
    load_scenario,
    parse_scenario,
    resolve_scenario,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalSpec",
    "VirtualClock",
    "run_scenario",
    "derive_seed",
    "SimulatedClassifier",
    "ScenarioBundle",
    "train_scenario_bundles",
    "ScenarioReport",
    "FleetSection",
    "ShardSummary",
    "CLOCK_MODES",
    "BreakerSpec",
    "Scenario",
    "ServiceModel",
    "StreamSpec",
    "bundled_scenarios",
    "load_scenario",
    "parse_scenario",
    "resolve_scenario",
]
