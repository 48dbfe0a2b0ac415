"""Per-scenario SLO reports.

One :class:`ScenarioReport` per replay: the latency distribution of
consultation *response times* (queueing wait + service, the number a
client actually experiences), its jitter (stddev and IQR), throughput
over the scenario makespan, and the three SLO verdict rates — deadline
misses, degraded decisions, breaker trips. The deterministic core is
separated from the ``environment`` section (peak RSS, real wall time,
host facts), so two virtual-clock runs of the same scenario compare
equal on :meth:`ScenarioReport.deterministic_dict` byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.streaming import LatencySummary, StreamingDecision
from .scenario import Scenario

__all__ = ["ScenarioReport", "summarize_responses"]


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
    makespan_seconds: float = 0.0
    deadline_misses: int = 0
    degraded_decisions: int = 0
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)

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
        """Consultations completed per second of scenario makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.n_consults / self.makespan_seconds

    # ------------------------------------------------------------------
    def deterministic_dict(self) -> dict[str, Any]:
        """The reproducible core: identical across same-seed replays."""
        return {
            "scenario": {
                "name": self.scenario.name,
                "seed": self.scenario.seed,
                "clock": self.scenario.clock,
                "deadline_ms": self.scenario.deadline_ms,
                "n_streams": self.scenario.n_streams,
            },
            "streams": {
                "total": self.n_streams,
                "decided": self.n_decided,
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
                "degraded_decisions": self.degraded_decisions,
                "degraded_decision_rate": _round(self.degraded_decision_rate),
                "breaker_trips": self.breaker_trips,
                "breaker_recoveries": self.breaker_recoveries,
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def as_dict(self) -> dict[str, Any]:
        """Deterministic core plus the per-run ``environment`` section."""
        out = self.deterministic_dict()
        out["environment"] = dict(self.environment)
        return out

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable scenario report."""
        scenario = self.scenario
        deadline = (
            f"deadline={scenario.deadline_ms:g}ms"
            if scenario.deadline_ms is not None
            else "no deadline"
        )
        lines = [
            f"scenario {scenario.name!r}: {self.n_streams} stream(s), "
            f"{scenario.clock} clock, {deadline}, "
            f"arrival={scenario.arrival.process}"
            + (f" — {scenario.description}" if scenario.description else ""),
            "",
            f"streams        {self.n_decided}/{self.n_streams} decided, "
            f"accuracy {self.accuracy:.3f}, "
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
            f"({100.0 * self.deadline_miss_rate:.1f}% of consults), "
            f"{self.degraded_decisions} degraded decision(s) "
            f"({100.0 * self.degraded_decision_rate:.1f}%)",
            f"breaker        {self.breaker_trips} trip(s), "
            f"{self.breaker_recoveries} recovery(ies)",
            f"input guard    rejected "
            f"{self.counters.get('serve.rejected_points', 0)}, sanitized "
            f"{self.counters.get('serve.sanitized_points', 0)} point(s)",
        ]
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
