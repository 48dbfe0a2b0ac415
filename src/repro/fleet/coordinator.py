"""The fleet coordinator: admission, dispatch, failover, commitment.

``run_fleet`` multiplexes a scenario's streams across a pool of forked
shard workers and commits their outcomes deterministically, extending
the runner's execution/commitment split (PR 5) from one-shot grid cells
to long-lived serving sessions:

* **Execution** happens in shard workers, each driving one
  :class:`~repro.slo.harness.ShardRuntime` — the same runtime
  :func:`repro.slo.harness.run_scenario` drives in-process over all
  streams. Each shard is one simulated server (its own virtual clock),
  so a one-shard fleet reproduces ``run_scenario`` stream for stream:
  same decisions, consultations, deadline misses and ``serve.*``
  counters. Both return a :class:`~repro.slo.report.ScenarioReport`;
  the fleet's carries a :class:`~repro.slo.report.FleetSection` and
  measures makespan as its largest shard clock.
* **Commitment** happens here. A stream's records leave its shard only
  together with its final decision, so the parent can aggregate every
  total in ``global_index`` order regardless of which worker — or which
  *replacement* worker — ran the stream.

The robustness layering above the per-session defences (guard →
deadline → breaker → fallback) is:

1. **Admission** — every requested stream passes the bounded
   :class:`~repro.fleet.admission.AdmissionQueue`; overflow triggers the
   configured shedding policy (reject-new / shed-oldest / degrade).
2. **Dispatch** — waiting streams fill shard slots up to
   ``max_active_per_shard``; shards advance ``tick_events`` arrival
   events per coordinator tick, all shards in parallel.
3. **Failover** — a shard that dies (planned SIGKILL from the fault
   plan, an external kill, a crash, or a hang caught by the heartbeat
   timeout) has its in-flight streams re-admitted at the front of the
   queue in ``global_index`` order — or degraded, past the per-stream
   failover limit — and its slot restarted with a fresh worker. Nothing
   is ever silently dropped: the report's accounting invariant
   ``requested == decided + no_decision + degraded + shed`` is enforced.
4. **Batched degradation** — streams the fleet answers without a model
   (admission overflow under the ``degrade`` policy, failover-limit
   exhaustion) are grouped per (algorithm, dataset) bundle and answered
   through one :meth:`FallbackPredictor.predict_prefix_batch` call —
   the all-pairs prefix-distance kernels — per group per tick.

Planned faults make chaos reproducible: ``kill:1@3`` delivers a *real*
``SIGKILL`` to shard 1's worker at tick 3, so the failure mode is the
genuine article while the final report stays a pure function of
(scenario, config, fault plan). Pass a **fresh** fault plan per run —
plans record which directives already fired.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core.pool import WorkerDied, fork_available, spawn_worker
from ..core.streaming import LatencySummary, StreamingDecision
from ..exceptions import ConfigurationError, ReproError
from ..obs.logging import get_logger
from ..obs.trace import get_tracer
from ..slo.harness import (
    ShardRuntime,
    StreamDescriptor,
    _environment,
    scenario_streams,
    train_scenario_bundles,
)
from ..slo.report import FleetSection, ScenarioReport, ShardSummary
from ..slo.scenario import CLOCK_VIRTUAL, Scenario
from .admission import ADMITTED, DEGRADED, SHED, AdmissionQueue
from .config import FleetConfig
from .faults import FAULT_KILL, FleetFaultPlan
from .shard import set_shard_state, shard_main

__all__ = ["run_fleet"]

_logger = get_logger("fleet")

#: Stream outcome kinds, as committed by the coordinator.
OUTCOME_DECIDED = "decided"
OUTCOME_NO_DECISION = "no_decision"
OUTCOME_DEGRADED = "degraded"
OUTCOME_SHED = "shed"


class _ShardSlot:
    """One shard slot: the current worker plus slot-lifetime aggregates."""

    def __init__(self, index: int, use_fork: bool) -> None:
        self.index = index
        self.use_fork = use_fork
        self.handle = None
        self.runtime: ShardRuntime | None = None
        self._inbox: list[dict] = []
        self.assigned: dict[int, StreamDescriptor] = {}
        self.generations = 0
        self.deaths = 0
        self.dead = False
        self.streams_completed = 0
        self.n_consults = 0
        self.misses = 0
        self.responses: list[float] = []
        self.last_clock = 0.0

    # ------------------------------------------------------------------
    def start(self, scenario: Scenario, bundles: dict) -> None:
        self.generations += 1
        self.dead = False
        if self.use_fork:
            self.handle = spawn_worker(self.index, shard_main, name="shard")
        else:
            self.runtime = ShardRuntime(scenario, bundles, self.index)

    def send(self, message: dict) -> None:
        if self.use_fork:
            self.handle.send(message)
        else:
            self._inbox.append(self.runtime.handle(message))

    def recv(self, timeout: float) -> dict:
        if self.use_fork:
            return self.handle.recv(timeout)
        return self._inbox.pop(0)

    def kill(self, reason: str) -> None:
        """Real SIGKILL (fork mode); marks the slot dead either way."""
        self.dead = True
        if self.use_fork and self.handle is not None:
            self.handle.kill(reason)

    def hang(self) -> None:
        """Park the worker; only the heartbeat timeout can catch it."""
        if not self.use_fork:
            raise ConfigurationError(
                "hang faults need forked shard workers"
            )
        self.handle.send({"cmd": "hang"})

    def stop(self) -> None:
        if self.use_fork and self.handle is not None and not self.dead:
            self.handle.stop()

    def restart(self, scenario: Scenario, bundles: dict) -> None:
        """Replace a dead worker with a fresh one on the same slot."""
        if self.use_fork and self.handle is not None:
            self.handle.kill("restarting slot")  # idempotent if already dead
        self._inbox.clear()
        self.start(scenario, bundles)


@dataclass
class _StreamState:
    """Parent-side bookkeeping for one requested stream."""

    descriptor: StreamDescriptor
    admitted: bool = False
    failovers: int = 0
    outcome: str | None = None
    shard: int | None = None
    shed_reason: str | None = None
    result: dict | None = None
    batched: bool = False


def run_fleet(
    scenario: Scenario,
    config: FleetConfig | None = None,
    fault_plan: FleetFaultPlan | None = None,
    *,
    algorithms=None,
    datasets=None,
) -> ScenarioReport:
    """Serve ``scenario`` through a sharded fleet; return its report.

    ``algorithms``/``datasets`` default to the standard registries at
    the scenario's scale and seed, as in ``run_scenario``; tests inject
    tiny custom registries. The report is deterministic given the same
    (scenario, config, fault plan) — byte-identical on
    :meth:`ScenarioReport.deterministic_dict`.
    """
    wall_start = time.perf_counter()
    config = config if config is not None else FleetConfig()
    fault_plan = fault_plan if fault_plan is not None else FleetFaultPlan()
    fault_plan.validate_for(config.n_shards)
    if scenario.clock != CLOCK_VIRTUAL:
        raise ConfigurationError(
            "the fleet replays virtual-clock scenarios only (per-shard "
            "wall-clock timing is not comparable across forked workers)"
        )
    use_fork = fork_available()
    if not use_fork and fault_plan.n_directives:
        raise ConfigurationError(
            "fleet fault plans need forked shard workers, and the fork "
            "start method is unavailable on this platform"
        )

    # -- train once in the parent; workers inherit by copy-on-write ----
    bundles = train_scenario_bundles(scenario, algorithms, datasets)
    set_shard_state(scenario, bundles)

    # -- enumerate the requested streams deterministically --------------
    streams = {
        descriptor.global_index: _StreamState(descriptor)
        for descriptor in scenario_streams(scenario)
    }
    n_requested = len(streams)

    # -- admission: every stream passes the bounded queue ---------------
    queue = AdmissionQueue(config.admission_capacity, config.shed_policy)
    degrade_pending: list[StreamDescriptor] = []
    for g in range(n_requested):
        state = streams[g]
        decision = queue.offer(state.descriptor)
        if decision.displaced is not None:
            evicted = streams[decision.displaced.global_index]
            evicted.outcome = OUTCOME_SHED
            evicted.shed_reason = "evicted from admission queue (shed-oldest)"
        if decision.outcome == ADMITTED:
            state.admitted = True
        elif decision.outcome == SHED:
            state.outcome = OUTCOME_SHED
            state.shed_reason = "admission queue full (reject-new)"
        elif decision.outcome == DEGRADED:
            degrade_pending.append(state.descriptor)

    # -- spawn the shard fleet ------------------------------------------
    slots = [_ShardSlot(i, use_fork) for i in range(config.n_shards)]
    for slot in slots:
        slot.start(scenario, bundles)

    failovers = 0
    death_events: list[tuple[int, int]] = []  # (tick, shard)
    batched_consults = 0
    tick = 0
    total_events = sum(
        bundles[
            (
                scenario.streams[s.descriptor.spec_index].algorithm,
                scenario.streams[s.descriptor.spec_index].dataset,
            )
        ].test.values.shape[2]
        for s in streams.values()
    )
    # Generous runaway guard: every event re-run once per allowed
    # failover, plus slack for dispatch-only ticks.
    max_ticks = (
        (config.failover_limit + 2)
        * (total_events // config.tick_events + n_requested + 16)
        + 64
    )

    def commit_outcome(slot: _ShardSlot, outcome: dict) -> None:
        g = int(outcome["descriptor"]["global_index"])
        state = streams[g]
        slot.assigned.pop(g, None)
        state.outcome = (
            OUTCOME_DECIDED
            if outcome["decision"] is not None
            else OUTCOME_NO_DECISION
        )
        state.shard = slot.index
        state.result = outcome
        slot.streams_completed += 1
        slot.n_consults += outcome["n_consults"]
        slot.misses += outcome["misses"]
        slot.responses.extend(outcome["responses"])
        slot.last_clock = max(slot.last_clock, outcome["completion_clock"])

    def degrade_batch(pending: list[StreamDescriptor]) -> None:
        """Answer ``pending`` from the batched fallback, or shed them."""
        nonlocal batched_consults
        pending = sorted(pending, key=lambda d: d.global_index)
        groups: dict[tuple[str, str], list[StreamDescriptor]] = {}
        for descriptor in pending:
            spec = scenario.streams[descriptor.spec_index]
            groups.setdefault((spec.algorithm, spec.dataset), []).append(
                descriptor
            )
        for key in sorted(groups):
            bundle = bundles[key]
            members = groups[key]
            test = bundle.test
            length = test.values.shape[2]
            if bundle.fallback is None:
                for descriptor in members:
                    state = streams[descriptor.global_index]
                    state.outcome = OUTCOME_SHED
                    state.shed_reason = (
                        "degradation requested but the scenario has no "
                        "fallback"
                    )
                continue
            instances = [
                descriptor.stream_i % test.n_instances
                for descriptor in members
            ]
            prefixes = np.stack([test.values[i] for i in instances])
            predictions = bundle.fallback.predict_prefix_batch(
                prefixes, length
            )
            batched_consults += 1
            for descriptor, instance, prediction in zip(
                members, instances, predictions
            ):
                state = streams[descriptor.global_index]
                state.outcome = OUTCOME_DEGRADED
                state.batched = True
                state.result = {
                    "descriptor": descriptor.as_dict(),
                    "name": f"{key[1]}[{instance}]@{key[0]}",
                    "true_label": int(test.labels[instance]),
                    "decision": StreamingDecision(
                        label=prediction.label,
                        decided_at=prediction.prefix_length,
                        confidence=prediction.confidence,
                        degraded=True,
                        source=prediction.source,
                    ),
                    "responses": [],
                    "n_consults": 0,
                    "misses": 0,
                    "n_points": 0,
                    "counters": {},
                    "breaker_recoveries": 0,
                    "completion_clock": 0.0,
                }

    # -- the tick loop ---------------------------------------------------
    try:
        while True:
            # 1. Planned faults fire at this deterministic tick boundary.
            for kind, shard_index in fault_plan.at_tick(tick):
                slot = slots[shard_index]
                if kind == FAULT_KILL:
                    _logger.warning(
                        "fault plan: SIGKILL shard %d at tick %d",
                        shard_index, tick,
                    )
                    slot.kill(f"fault plan kill at tick {tick}")
                else:
                    _logger.warning(
                        "fault plan: hanging shard %d at tick %d",
                        shard_index, tick,
                    )
                    try:
                        slot.hang()
                    except WorkerDied:
                        slot.dead = True

            # 2. Dispatch phase: fill slots, send tick requests.
            ticked: list[_ShardSlot] = []
            for slot in slots:
                if slot.dead:
                    continue
                free = config.max_active_per_shard - len(slot.assigned)
                batch = queue.take(free) if free > 0 else []
                for descriptor in batch:
                    slot.assigned[descriptor.global_index] = descriptor
                try:
                    slot.send(
                        {
                            "cmd": "tick",
                            "streams": [d.as_dict() for d in batch],
                            "max_events": config.tick_events,
                        }
                    )
                except WorkerDied:
                    slot.dead = True
                    continue
                ticked.append(slot)

            # 3. Collect phase, in shard index order (deterministic).
            for slot in ticked:
                try:
                    reply = slot.recv(config.heartbeat_timeout_seconds)
                except WorkerDied:
                    slot.dead = True
                    continue
                if reply.get("error"):
                    raise ReproError(
                        f"shard {slot.index} failed: {reply['error']}"
                    )
                slot.last_clock = max(slot.last_clock, reply.get("clock", 0.0))
                for outcome in reply.get("outcomes", ()):
                    commit_outcome(slot, outcome)

            # 4. Failover: re-admit or degrade the dead shards' streams.
            for slot in slots:
                if not slot.dead:
                    continue
                slot.deaths += 1
                failovers += 1
                death_events.append((tick, slot.index))
                victims = sorted(slot.assigned)
                _logger.warning(
                    "shard %d died with %d stream(s) in flight; failing "
                    "over", slot.index, len(victims),
                )
                # Front-of-queue re-admission preserves global order:
                # insert in reverse so the lowest index ends up first.
                for g in reversed(victims):
                    descriptor = slot.assigned.pop(g)
                    state = streams[g]
                    state.failovers += 1
                    if state.failovers > config.failover_limit:
                        degrade_pending.append(descriptor)
                        continue
                    decision = queue.readmit(descriptor)
                    if decision.outcome == DEGRADED:
                        degrade_pending.append(descriptor)
                slot.restart(scenario, bundles)

            # 5. Batched degradation for everything marked this tick.
            if degrade_pending:
                degrade_batch(degrade_pending)
                degrade_pending = []

            tick += 1
            if queue.is_empty and all(not slot.assigned for slot in slots):
                break
            if tick > max_ticks:
                raise ReproError(
                    f"fleet did not converge within {max_ticks} ticks "
                    f"(queue={len(queue)}, in-flight="
                    f"{sum(len(s.assigned) for s in slots)})"
                )
    finally:
        for slot in slots:
            try:
                slot.stop()
            except WorkerDied:  # pragma: no cover - racing shutdown
                pass

    # -- commitment: aggregate in global_index order ---------------------
    tracer = get_tracer()
    tally: Counter[str] = Counter()
    results: list[dict] = []
    for g in range(n_requested):
        state = streams[g]
        if state.outcome is None:  # pragma: no cover - loop invariant
            raise ReproError(f"stream {g} fell through the fleet unaccounted")
        tally[state.outcome] += 1
        result = state.result
        if result is not None:
            results.append(result)
        with tracer.span(
            "fleet_stream",
            stream=g,
            stream_name=result["name"] if result else None,
        ) as span:
            span.set_attribute("fleet.outcome", state.outcome)
            span.set_attribute("fleet.admitted", state.admitted)
            span.set_attribute("fleet.failovers", state.failovers)
            span.set_attribute("fleet.batched", state.batched)
            if state.shard is not None:
                span.set_attribute("fleet.shard", state.shard)
    for _ in range(batched_consults):
        with tracer.span("fleet_batch"):
            pass
    for death_tick, shard_index in death_events:
        with tracer.span(
            "fleet_failover", shard=shard_index, tick=death_tick
        ):
            pass

    deadline = scenario.deadline_seconds
    fleet = FleetSection(
        config=config,
        ticks=tick,
        n_requested=n_requested,
        n_admitted=queue.n_admitted,
        n_decided=tally[OUTCOME_DECIDED],
        n_no_decision=tally[OUTCOME_NO_DECISION],
        n_degraded=tally[OUTCOME_DEGRADED],
        n_shed=tally[OUTCOME_SHED],
        failovers=failovers,
        stream_failovers=sum(state.failovers for state in streams.values()),
        batched_consults=batched_consults,
        shards=[
            ShardSummary(
                shard=slot.index,
                streams_completed=slot.streams_completed,
                n_consults=slot.n_consults,
                misses=slot.misses,
                latency=LatencySummary.from_latencies(
                    slot.responses, budget_seconds=deadline
                ),
                makespan_seconds=slot.last_clock,
                generations=slot.generations,
                deaths=slot.deaths,
            )
            for slot in slots
        ],
    )
    # Responses fold in global stream order, not consultation order:
    # shards consult concurrently, and the committed jitter depends on it.
    return ScenarioReport.from_outcomes(
        scenario,
        results,
        makespan_seconds=max(
            (slot.last_clock for slot in slots), default=0.0
        ),
        environment=_environment(time.perf_counter() - wall_start),
        fleet=fleet,
    )
