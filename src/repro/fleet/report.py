"""Fleet-wide and per-shard reports for one multi-tenant replay.

Mirrors the single-server :class:`repro.slo.report.ScenarioReport`
contract: everything in :meth:`FleetReport.deterministic_dict` is a pure
function of (scenario, fleet config, fault plan) and compares byte for
byte across runs; wall time and peak RSS are quarantined in the
``environment`` section. On top of the scenario report's latency/SLO
sections, a fleet report accounts for every *requested* stream — the
accounting invariant

``requested == decided + no_decision + degraded + shed``

is checked at construction, so a lost stream is a loud failure of the
coordinator, never a quietly smaller denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.streaming import LatencySummary, StreamingDecision
from ..exceptions import ReproError
from ..slo.report import _latency_dict, _round
from ..slo.scenario import Scenario
from .config import FleetConfig

__all__ = ["ShardSummary", "FleetReport"]


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
class FleetReport:
    """Everything one fleet replay produced."""

    scenario: Scenario
    config: FleetConfig
    n_requested: int = 0
    n_admitted: int = 0
    n_decided: int = 0
    n_no_decision: int = 0
    n_degraded: int = 0
    n_shed: int = 0
    n_points: int = 0
    n_consults: int = 0
    ticks: int = 0
    decisions: list[StreamingDecision] = field(default_factory=list)
    true_labels: list[int] = field(default_factory=list)
    latency: LatencySummary | None = None
    iqr_seconds: float = 0.0
    makespan_seconds: float = 0.0
    deadline_misses: int = 0
    failovers: int = 0
    batched_consults: int = 0
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    shards: list[ShardSummary] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)

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

    # ------------------------------------------------------------------
    @property
    def n_answered(self) -> int:
        """Streams that got a label: shard-decided plus batch-degraded."""
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
        return self.deadline_misses / self.n_consults if self.n_consults else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of requested streams turned away unanswered."""
        return self.n_shed / self.n_requested if self.n_requested else 0.0

    @property
    def degraded_rate(self) -> float:
        """Fraction of requested streams answered by the batched fallback."""
        return self.n_degraded / self.n_requested if self.n_requested else 0.0

    @property
    def throughput_per_second(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.n_consults / self.makespan_seconds

    # ------------------------------------------------------------------
    def deterministic_dict(self) -> dict[str, Any]:
        """The reproducible core: identical across same-plan replays."""
        return {
            "scenario": {
                "name": self.scenario.name,
                "seed": self.scenario.seed,
                "clock": self.scenario.clock,
                "deadline_ms": self.scenario.deadline_ms,
                "n_streams": self.scenario.n_streams,
            },
            "fleet": {**self.config.as_dict(), "ticks": self.ticks},
            "streams": {
                "requested": self.n_requested,
                "admitted": self.n_admitted,
                "decided": self.n_decided,
                "no_decision": self.n_no_decision,
                "degraded": self.n_degraded,
                "shed": self.n_shed,
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
                "shed_rate": _round(self.shed_rate),
                "degraded_rate": _round(self.degraded_rate),
                "failovers": self.failovers,
                "batched_consults": self.batched_consults,
                "breaker_trips": self.breaker_trips,
                "breaker_recoveries": self.breaker_recoveries,
            },
            "shards": [summary.as_dict() for summary in self.shards],
            "counters": dict(sorted(self.counters.items())),
        }

    def as_dict(self) -> dict[str, Any]:
        """Deterministic core plus the per-run ``environment`` section."""
        out = self.deterministic_dict()
        out["environment"] = dict(self.environment)
        return out

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable fleet report."""
        scenario, config = self.scenario, self.config
        deadline = (
            f"deadline={scenario.deadline_ms:g}ms"
            if scenario.deadline_ms is not None
            else "no deadline"
        )
        lines = [
            f"fleet {scenario.name!r}: {self.n_requested} stream(s) over "
            f"{config.n_shards} shard(s), {deadline}, "
            f"policy={config.shed_policy}, "
            f"max_active={config.max_active_per_shard}/shard, "
            f"admission_capacity={config.admission_capacity}",
            "",
            f"streams        {self.n_decided} decided, "
            f"{self.n_degraded} degraded, {self.n_shed} shed, "
            f"{self.n_no_decision} undecided of {self.n_requested} "
            f"requested; accuracy {self.accuracy:.3f}, "
            f"mean decision at point {self.mean_decided_at:.1f}",
            f"load           {self.n_points} point(s), {self.n_consults} "
            f"consultation(s) over {self.makespan_seconds:.3f}s makespan "
            f"({self.throughput_per_second:.1f} consults/s), "
            f"{self.ticks} tick(s)",
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
            f"({100.0 * self.deadline_miss_rate:.1f}% of consults), "
            f"shed rate {100.0 * self.shed_rate:.1f}%, "
            f"degraded rate {100.0 * self.degraded_rate:.1f}%",
            f"resilience     {self.failovers} shard failover(s), "
            f"{self.batched_consults} batched fallback consult(s), "
            f"{self.breaker_trips} breaker trip(s), "
            f"{self.breaker_recoveries} recovery(ies)",
        ]
        for summary in self.shards:
            lat = summary.latency
            lines.append(
                f"shard {summary.shard:<3d}      "
                f"{summary.streams_completed} stream(s), "
                f"{summary.n_consults} consult(s), "
                f"{summary.misses} miss(es), p99 {lat.p99 * 1000:.2f}ms, "
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
