"""Multi-tenant serving fleet: sharded workers above the guarded sessions.

The paper's framework evaluates early classifiers one stream at a time;
the serving layer (PR 4) hardened one stream, and the SLO harness
(PR 6) replayed declarative workloads through one simulated server.
This package scales that to a **fleet**: a front-end multiplexing
thousands of concurrent guarded streams across forked shard workers,
with the robustness concerns a real multi-tenant deployment has *above*
any single session's guard/deadline/breaker/fallback stack:

* bounded **admission** with explicit load-shedding policies
  (reject-new / shed-oldest / degrade-to-fallback);
* per-shard **health tracking** — a worker that is SIGKILLed, crashes,
  or hangs is detected (pipe EOF or heartbeat timeout) and its in-flight
  streams **fail over**: re-admitted in deterministic order or answered
  by the batched fallback, never silently dropped;
* **batched degradation** through the all-pairs prefix-distance kernels
  (:meth:`~repro.serve.fallback.FallbackPredictor.predict_prefix_batch`);
* deterministic **commitment**: shards execute, the parent commits in
  ``global_index`` order, so the fleet report is byte-identical across
  runs given the same scenario, config, and fault plan — even when the
  fault plan delivers real ``SIGKILL``\\ s mid-replay.

``etsc-bench serve-slo --shards N`` drives SLO scenarios
(:mod:`repro.slo`) against the fleet. :func:`run_fleet` returns the
same :class:`~repro.slo.report.ScenarioReport` as the in-process
replay, with a fleet section on top: per-shard latency quantiles to
p99.9, shed/degraded/failover rates, and ``fleet.*`` counters
(``docs/serving.md``).
"""

from ..slo.harness import ShardRuntime, StreamDescriptor
from .admission import AdmissionDecision, AdmissionQueue
from .config import (
    SHED_DEGRADE,
    SHED_OLDEST,
    SHED_POLICIES,
    SHED_REJECT_NEW,
    FleetConfig,
)
from .coordinator import run_fleet
from .faults import FleetFaultPlan, parse_fleet_fault_specs

__all__ = [
    "AdmissionDecision",
    "AdmissionQueue",
    "FleetConfig",
    "SHED_POLICIES",
    "SHED_REJECT_NEW",
    "SHED_OLDEST",
    "SHED_DEGRADE",
    "run_fleet",
    "FleetFaultPlan",
    "parse_fleet_fault_specs",
    "ShardRuntime",
    "StreamDescriptor",
]
