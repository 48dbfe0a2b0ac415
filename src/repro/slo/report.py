"""The scenario report: one type for both replay drivers.

One :class:`ScenarioReport` per replay: the latency distribution of
consultation *response times* (queueing wait + service, the number a
client actually experiences), its jitter (stddev and IQR), throughput
over the makespan, and the SLO verdict rates — deadline misses,
degraded decisions, breaker trips. The deterministic core is separated
from the ``environment`` section (peak RSS, real wall time, host
facts), so two virtual-clock runs of the same scenario compare equal on
:meth:`ScenarioReport.deterministic_dict` byte for byte.

:func:`~repro.slo.harness.run_scenario` (one in-process server) and
:func:`~repro.fleet.coordinator.run_fleet` (sharded workers) both build
it from per-stream outcomes through :meth:`ScenarioReport.from_outcomes`.
A fleet replay additionally carries a :class:`FleetSection` — config,
ticks, admission outcomes, failovers and per-shard summaries — whose
accounting invariant

``requested == decided + no_decision + degraded + shed``

is checked at construction, so a lost stream is a loud failure of the
coordinator, never a quietly smaller denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.streaming import LatencySummary, StreamingDecision
from ..exceptions import ReproError
from .scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle at run time
    from ..fleet.config import FleetConfig

__all__ = [
    "ScenarioReport",
    "FleetSection",
    "ShardSummary",
    "summarize_responses",
]


def _round(value: float, digits: int = 9) -> float:
    """Stabilize floats for JSON round-trips and cross-run comparison."""
    return round(float(value), digits)


def _latency_dict(latency: LatencySummary | None) -> dict | None:
    if latency is None:
        return None
    return {
        key: (_round(value) if isinstance(value, float) else value)
        for key, value in latency.as_dict().items()
    }


def summarize_responses(
    responses: list[float], deadline: float | None
) -> tuple[LatencySummary | None, float]:
    """Latency summary and IQR of response times; ``(None, 0.0)`` if empty.

    The sample is summarized in the order given: jitter is a stddev, so
    the accumulation order is part of the committed trajectory.
    """
    if not responses:
        return None, 0.0
    sample = np.asarray(responses, dtype=float)
    latency = LatencySummary.from_latencies(sample, budget_seconds=deadline)
    return latency, float(np.quantile(sample, 0.75) - np.quantile(sample, 0.25))


@dataclass
class ShardSummary:
    """What one shard *slot* (worker + any replacements) served."""

    shard: int
    streams_completed: int = 0
    n_consults: int = 0
    misses: int = 0
    latency: LatencySummary = field(default_factory=LatencySummary.empty)
    makespan_seconds: float = 0.0
    generations: int = 1  #: workers that served this slot (1 = never died)
    deaths: int = 0  #: times the slot's worker was declared dead

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "streams_completed": self.streams_completed,
            "consults": self.n_consults,
            "deadline_misses": self.misses,
            "latency": _latency_dict(self.latency),
            "makespan_seconds": _round(self.makespan_seconds),
            "generations": self.generations,
            "deaths": self.deaths,
        }


@dataclass
class FleetSection:
    """What a sharded replay adds: admission, failover, per-shard data.

    Every *requested* stream ends in exactly one outcome: decided by a
    model on a shard, run to its horizon undecided, degraded (answered
    by the batched fallback without a shard) or shed.
    """

    config: FleetConfig
    ticks: int = 0
    n_requested: int = 0
    n_admitted: int = 0
    n_decided: int = 0
    n_no_decision: int = 0
    n_degraded: int = 0
    n_shed: int = 0
    failovers: int = 0  #: shard-death events recovered
    stream_failovers: int = 0  #: stream re-admissions those deaths caused
    batched_consults: int = 0
    shards: list[ShardSummary] = field(default_factory=list)

    def __post_init__(self) -> None:
        accounted = (
            self.n_decided + self.n_no_decision + self.n_degraded + self.n_shed
        )
        if accounted != self.n_requested:
            raise ReproError(
                f"fleet accounting violated: {self.n_requested} stream(s) "
                f"requested but {accounted} accounted for "
                f"({self.n_decided} decided + {self.n_no_decision} "
                f"undecided + {self.n_degraded} degraded + "
                f"{self.n_shed} shed)"
            )

    @property
    def shed_rate(self) -> float:
        """Fraction of requested streams turned away unanswered."""
        return self.n_shed / self.n_requested if self.n_requested else 0.0

    @property
    def degraded_rate(self) -> float:
        """Fraction of requested streams answered by the batched fallback."""
        return self.n_degraded / self.n_requested if self.n_requested else 0.0

    def counters(self) -> dict[str, int]:
        """The ``fleet.*`` counters (recomputable from a trace)."""
        return {
            "fleet.requested": self.n_requested,
            "fleet.admitted": self.n_admitted,
            "fleet.decided": self.n_decided,
            "fleet.no_decision": self.n_no_decision,
            "fleet.degraded": self.n_degraded,
            "fleet.shed": self.n_shed,
            "fleet.failovers": self.failovers,
            "fleet.stream_failovers": self.stream_failovers,
            "fleet.batched_consults": self.batched_consults,
        }


@dataclass
class ScenarioReport:
    """Everything one scenario replay produced."""

    scenario: Scenario
    n_streams: int = 0
    n_points: int = 0
    n_consults: int = 0
    decisions: list[StreamingDecision] = field(default_factory=list)
    true_labels: list[int] = field(default_factory=list)
    latency: LatencySummary | None = None
    iqr_seconds: float = 0.0
    #: The span throughput is measured over, as the driver defines it:
    #: ``run_scenario`` takes first arrival → last completion on its one
    #: server (a wall-clock replay: its real duration); ``run_fleet``
    #: takes its largest shard clock.
    makespan_seconds: float = 0.0
    deadline_misses: int = 0
    degraded_decisions: int = 0
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)
    fleet: FleetSection | None = None

    @classmethod
    def from_outcomes(
        cls,
        scenario: Scenario,
        outcomes: list[dict],
        *,
        makespan_seconds: float,
        environment: dict[str, Any],
        responses: list[float] | None = None,
        fleet: FleetSection | None = None,
    ) -> "ScenarioReport":
        """Fold per-stream outcome dicts, in the order given, into a report.

        ``responses`` are the response times in the order the latency
        summary should see them (default: each outcome's, outcome by
        outcome) — jitter is a stddev, so that order is part of the
        committed bytes.
        """
        decisions: list[StreamingDecision] = []
        true_labels: list[int] = []
        counters: dict[str, int] = {}
        for outcome in outcomes:
            if outcome["decision"] is not None:
                decisions.append(outcome["decision"])
                true_labels.append(outcome["true_label"])
            for name, value in outcome["counters"].items():
                counters[name] = counters.get(name, 0) + value
        if responses is None:
            responses = [
                response
                for outcome in outcomes
                for response in outcome["responses"]
            ]
        if fleet is not None:
            counters.update(fleet.counters())
        latency, iqr = summarize_responses(
            responses, scenario.deadline_seconds
        )
        return cls(
            scenario=scenario,
            n_streams=len(outcomes),
            n_points=sum(outcome["n_points"] for outcome in outcomes),
            n_consults=len(responses),
            decisions=decisions,
            true_labels=true_labels,
            latency=latency,
            iqr_seconds=iqr,
            makespan_seconds=makespan_seconds,
            deadline_misses=sum(outcome["misses"] for outcome in outcomes),
            degraded_decisions=sum(1 for d in decisions if d.degraded),
            breaker_trips=counters.get("serve.breaker_trips", 0),
            breaker_recoveries=sum(
                outcome["breaker_recoveries"] for outcome in outcomes
            ),
            counters=counters,
            environment=environment,
            fleet=fleet,
        )

    # ------------------------------------------------------------------
    @property
    def n_decided(self) -> int:
        return len(self.decisions)

    @property
    def accuracy(self) -> float:
        if not self.decisions:
            return 0.0
        hits = sum(
            1
            for decision, label in zip(self.decisions, self.true_labels)
            if decision.label == label
        )
        return hits / len(self.decisions)

    @property
    def mean_decided_at(self) -> float:
        if not self.decisions:
            return 0.0
        return sum(d.decided_at for d in self.decisions) / len(self.decisions)

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of consultations that missed the scenario deadline."""
        return self.deadline_misses / self.n_consults if self.n_consults else 0.0

    @property
    def degraded_decision_rate(self) -> float:
        """Fraction of decisions the fallback (not the model) produced."""
        return self.degraded_decisions / self.n_decided if self.n_decided else 0.0

    @property
    def throughput_per_second(self) -> float:
        """Consultations completed per second of makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.n_consults / self.makespan_seconds

    # ------------------------------------------------------------------
    def deterministic_dict(self) -> dict[str, Any]:
        """The reproducible core: identical across same-seed replays."""
        fleet = self.fleet
        if fleet is None:
            streams = {"total": self.n_streams, "decided": self.n_decided}
            slo = {
                "degraded_decisions": self.degraded_decisions,
                "degraded_decision_rate": _round(self.degraded_decision_rate),
            }
        else:
            streams = {
                "requested": fleet.n_requested,
                "admitted": fleet.n_admitted,
                "decided": fleet.n_decided,
                "no_decision": fleet.n_no_decision,
                "degraded": fleet.n_degraded,
                "shed": fleet.n_shed,
            }
            slo = {
                "shed_rate": _round(fleet.shed_rate),
                "degraded_rate": _round(fleet.degraded_rate),
                "failovers": fleet.failovers,
                "batched_consults": fleet.batched_consults,
            }
        out = {
            "scenario": {
                "name": self.scenario.name,
                "seed": self.scenario.seed,
                "clock": self.scenario.clock,
                "deadline_ms": self.scenario.deadline_ms,
                "n_streams": self.scenario.n_streams,
            },
            "streams": {
                **streams,
                "accuracy": _round(self.accuracy),
                "mean_decided_at": _round(self.mean_decided_at),
            },
            "load": {
                "points": self.n_points,
                "consults": self.n_consults,
                "makespan_seconds": _round(self.makespan_seconds),
                "throughput_per_second": _round(self.throughput_per_second),
            },
            "latency": _latency_dict(self.latency),
            "jitter": {
                "stddev_seconds": _round(
                    self.latency.jitter if self.latency else 0.0
                ),
                "iqr_seconds": _round(self.iqr_seconds),
            },
            "slo": {
                "deadline_misses": self.deadline_misses,
                "deadline_miss_rate": _round(self.deadline_miss_rate),
                **slo,
                "breaker_trips": self.breaker_trips,
                "breaker_recoveries": self.breaker_recoveries,
            },
            "counters": dict(sorted(self.counters.items())),
        }
        if fleet is not None:
            out["fleet"] = {**fleet.config.as_dict(), "ticks": fleet.ticks}
            out["shards"] = [summary.as_dict() for summary in fleet.shards]
        return out

    def as_dict(self) -> dict[str, Any]:
        """Deterministic core plus the per-run ``environment`` section."""
        out = self.deterministic_dict()
        out["environment"] = dict(self.environment)
        return out

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable scenario report."""
        scenario, fleet = self.scenario, self.fleet
        deadline = (
            f"deadline={scenario.deadline_ms:g}ms"
            if scenario.deadline_ms is not None
            else "no deadline"
        )
        lines = [
            f"scenario {scenario.name!r}: {scenario.n_streams} stream(s), "
            f"{scenario.clock} clock, {deadline}, "
            f"arrival={scenario.arrival.process}"
            + (f" — {scenario.description}" if scenario.description else ""),
        ]
        if fleet is None:
            streams = f"{self.n_decided}/{self.n_streams} decided"
            rates = (
                f"{self.degraded_decisions} degraded decision(s) "
                f"({100.0 * self.degraded_decision_rate:.1f}%)"
            )
        else:
            config = fleet.config
            lines.append(
                f"fleet          {config.n_shards} shard(s), "
                f"policy={config.shed_policy}, "
                f"max_active={config.max_active_per_shard}/shard, "
                f"admission_capacity={config.admission_capacity}, "
                f"{fleet.ticks} tick(s)"
            )
            streams = (
                f"{fleet.n_decided} decided, {fleet.n_degraded} degraded, "
                f"{fleet.n_shed} shed, {fleet.n_no_decision} undecided of "
                f"{fleet.n_requested} requested"
            )
            rates = (
                f"shed rate {100.0 * fleet.shed_rate:.1f}%, "
                f"degraded rate {100.0 * fleet.degraded_rate:.1f}%"
            )
        lines += [
            "",
            f"streams        {streams}, accuracy {self.accuracy:.3f}, "
            f"mean decision at point {self.mean_decided_at:.1f}",
            f"load           {self.n_points} point(s), {self.n_consults} "
            f"consultation(s) over {self.makespan_seconds:.3f}s makespan "
            f"({self.throughput_per_second:.1f} consults/s)",
        ]
        if self.latency is not None:
            lat = self.latency
            lines += [
                "response latency (queueing wait + service):",
                "  p50 | p95 | p99 | p99.9 | max | jitter(std) | IQR",
                f"  {lat.p50 * 1000:.2f}ms | {lat.p95 * 1000:.2f}ms "
                f"| {lat.p99 * 1000:.2f}ms | {lat.p999 * 1000:.2f}ms "
                f"| {lat.max * 1000:.2f}ms | {lat.jitter * 1000:.2f}ms "
                f"| {self.iqr_seconds * 1000:.2f}ms",
            ]
        lines += [
            f"slo            {self.deadline_misses} deadline miss(es) "
            f"({100.0 * self.deadline_miss_rate:.1f}% of consults), {rates}",
            f"breaker        {self.breaker_trips} trip(s), "
            f"{self.breaker_recoveries} recovery(ies)",
        ]
        if fleet is not None:
            lines.append(
                f"failover       {fleet.failovers} shard failover(s), "
                f"{fleet.batched_consults} batched fallback consult(s)"
            )
        lines.append(
            f"input guard    rejected "
            f"{self.counters.get('serve.rejected_points', 0)}, sanitized "
            f"{self.counters.get('serve.sanitized_points', 0)} point(s)"
        )
        if scenario.corruption is not None:
            fired = ", ".join(
                f"{name.removeprefix('serve.corruption.')}={value}"
                for name, value in sorted(self.counters.items())
                if name.startswith("serve.corruption.")
            )
            lines.append(
                f"corruption     "
                f"{self.counters.get('serve.corrupted_points', 0)} "
                f"corrupted point(s) under "
                f"{' '.join(scenario.corruption.ops)} "
                f"({fired or 'none fired'})"
            )
        for summary in fleet.shards if fleet is not None else ():
            lines.append(
                f"shard {summary.shard:<3d}      "
                f"{summary.streams_completed} stream(s), "
                f"{summary.n_consults} consult(s), "
                f"{summary.misses} miss(es), "
                f"p99 {summary.latency.p99 * 1000:.2f}ms, "
                f"makespan {summary.makespan_seconds:.3f}s, "
                f"{summary.generations} generation(s), "
                f"{summary.deaths} death(s)"
            )
        if self.environment:
            peak = self.environment.get("peak_rss_kb")
            wall = self.environment.get("wall_seconds")
            facts = []
            if peak is not None:
                facts.append(f"peak RSS {peak / 1024.0:.1f} MiB")
            if wall is not None:
                facts.append(f"replay wall time {wall:.2f}s")
            if facts:
                lines.append(f"environment    {', '.join(facts)}")
        return "\n".join(lines)
