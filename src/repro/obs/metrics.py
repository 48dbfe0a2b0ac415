"""Counters, gauges, and timer histograms for grid runs.

The quantities the paper's comparison turns on — cells completed, cells
killed by the time budget, predictions emitted, push-latency quantiles —
are aggregated here. A :class:`MetricsRegistry` is cheap to create, safe
to update from several threads, and renders a plain-text report via
:meth:`MetricsRegistry.summarize`.

:func:`metrics_from_spans` rebuilds a registry from a persisted trace
(see :mod:`repro.obs.events`), which is how ``python -m repro.obs.summary``
recomputes a run's statistics after the fact.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable

from ..exceptions import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "TimerHistogram",
    "MetricsRegistry",
    "metrics_from_spans",
]


class Counter:
    """Monotonically increasing count (cells completed, timeouts, ...)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        if amount < 0:
            raise ReproError("counters only go up; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Last-written value (grid completion fraction, queue depth, ...)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the new current value."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class TimerHistogram:
    """Stores observed durations; reports count/mean/quantiles/max.

    Observations are kept exactly (a grid run produces at most a few
    thousand spans, a streaming session a few thousand pushes), so
    quantiles are true order statistics rather than bucket estimates.
    """

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one duration observation."""
        with self._lock:
            self._values.append(float(seconds))

    def observe_many(self, seconds: Iterable[float]) -> None:
        """Record a batch of duration observations."""
        values = [float(s) for s in seconds]
        with self._lock:
            self._values.extend(values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        with self._lock:
            return math.fsum(self._values)

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, ``0 <= q <= 1``."""
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._values:
                raise ReproError(f"timer {self.name!r} has no observations")
            ordered = sorted(self._values)
        position = q * (len(ordered) - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        if low == high:
            return ordered[low]
        weight = position - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    def summary(self) -> dict[str, float]:
        """``{count, mean, p50, p95, max, total}`` (empty -> zeros)."""
        with self._lock:
            values = list(self._values)
        if not values:
            return {
                "count": 0,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "max": 0.0,
                "total": 0.0,
            }
        total = math.fsum(values)
        return {
            "count": len(values),
            "mean": total / len(values),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "max": max(values),
            "total": total,
        }


class MetricsRegistry:
    """Named counters/gauges/timers with get-or-create access.

    ``registry.counter("cells_completed").inc()`` — instruments never
    collide across types: asking for an existing name with a different
    type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | TimerHistogram] = {}

    def _get_or_create(self, name: str, cls):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise ReproError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(name, Gauge)

    def timer(self, name: str) -> TimerHistogram:
        """Get or create the timer histogram called ``name``."""
        return self._get_or_create(name, TimerHistogram)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view: counters/gauges as numbers, timers as
        their :meth:`TimerHistogram.summary` dict."""
        with self._lock:
            instruments = dict(self._instruments)
        out: dict[str, Any] = {}
        for name, instrument in sorted(instruments.items()):
            if isinstance(instrument, TimerHistogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out

    def summarize(self) -> str:
        """Human-readable report: counters, gauges, then timer quantiles."""
        snap = self.snapshot()
        counters = {
            k: v for k, v in snap.items() if isinstance(v, int)
        }
        gauges = {
            k: v
            for k, v in snap.items()
            if isinstance(v, float) and not isinstance(v, bool)
        }
        timers = {k: v for k, v in snap.items() if isinstance(v, dict)}
        lines: list[str] = []
        if counters:
            lines.append("counters:")
            for name, value in counters.items():
                lines.append(f"  {name:32s} {value}")
        if gauges:
            lines.append("gauges:")
            for name, value in gauges.items():
                lines.append(f"  {name:32s} {value:.4g}")
        if timers:
            lines.append(
                f"timers: {'name':30s} {'count':>6s} {'mean':>10s} "
                f"{'p50':>10s} {'p95':>10s} {'max':>10s}"
            )
            for name, summary in timers.items():
                lines.append(
                    f"  {name:36s} {summary['count']:>6d} "
                    f"{summary['mean']:>9.4f}s {summary['p50']:>9.4f}s "
                    f"{summary['p95']:>9.4f}s {summary['max']:>9.4f}s"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


def metrics_from_spans(spans: Iterable[Any]) -> MetricsRegistry:
    """Aggregate a span stream (live ``Span`` or loaded ``SpanRecord``).

    Produces, per span name, a ``span.<name>.seconds`` timer, and the run
    counters the acceptance questions ask about: how many cells ran, how
    many timed out, how many errored, how many predictions were emitted.
    """
    registry = MetricsRegistry()
    for span in spans:
        registry.counter(f"span.{span.name}.count").inc()
        registry.timer(f"span.{span.name}.seconds").observe(span.duration)
        if span.status != "ok":
            registry.counter(f"span.{span.name}.{span.status}").inc()
        if span.name == "cell":
            registry.counter("cells_total").inc()
            if span.status == "ok":
                registry.counter("cells_completed").inc()
            elif span.status == "timeout":
                registry.counter("cells_timeout").inc()
            else:
                registry.counter("cells_failed").inc()
        elif span.name == "predict":
            emitted = span.attributes.get("n_test")
            if emitted is not None:
                registry.counter("predictions_emitted").inc(int(emitted))
        elif span.name == "push":
            registry.timer("push_latency_seconds").observe(span.duration)
            # Serving-layer pushes annotate degraded consultations and
            # breaker transitions (see repro.serve); roll them up so a
            # trace file alone answers the resilience questions. The
            # scenario replay runtime (repro.slo.harness.ShardRuntime)
            # additionally stamps each consultation's response time and
            # deadline verdict on the push span, so a scenario report's
            # SLO numbers are recomputable from the trace alone.
            # Only decision-committing spans count: a breaker-open skip
            # mid-stream also stamps source="fallback" on its push span,
            # but the live serve.degraded_decisions counter increments
            # per committed degraded *decision*, and the rollup must
            # agree with it exactly.
            if (
                span.attributes.get("decided")
                and span.attributes.get("source") == "fallback"
            ):
                registry.counter("serve.degraded_decisions").inc()
            response = span.attributes.get("slo.response_seconds")
            if response is not None:
                registry.timer("slo.response_seconds").observe(
                    float(response)
                )
            if span.attributes.get("slo.deadline_missed"):
                registry.counter("slo.deadline_misses").inc()
        elif span.name == "fleet_stream":
            # The fleet coordinator emits one fleet_stream span per
            # requested stream at commit time, attributed with the
            # stream's final accounting outcome — so the fleet.* rollup
            # from a trace matches the report's live fleet.* counters
            # exactly (the contract the slo.* rollup established).
            registry.counter("fleet.requested").inc()
            outcome = span.attributes.get("fleet.outcome")
            if outcome in ("decided", "no_decision", "degraded", "shed"):
                registry.counter(f"fleet.{outcome}").inc()
            if span.attributes.get("fleet.admitted"):
                registry.counter("fleet.admitted").inc()
            failovers = int(span.attributes.get("fleet.failovers", 0) or 0)
            if failovers:
                registry.counter("fleet.stream_failovers").inc(failovers)
        elif span.name == "fleet_batch":
            # One span per batched fallback consultation (a whole group
            # of degraded streams answered through the all-pairs prefix
            # kernels in a single call).
            registry.counter("fleet.batched_consults").inc()
        elif span.name == "fleet_failover":
            # One span per shard-death event (SIGKILL, crash, or hang
            # caught by the heartbeat), regardless of how many in-flight
            # streams it displaced — those are fleet.stream_failovers.
            registry.counter("fleet.failovers").inc()
        # Serving-layer events are not tied to one span kind: breaker and
        # consult failures annotate push spans, while corruption fires
        # before the push span opens and lands on the enclosing stream
        # span — so scan every span's events.
        for event in getattr(span, "events", ()) or ():
            name = (
                event.get("name")
                if isinstance(event, dict)
                else getattr(event, "name", None)
            )
            attrs = (
                event.get("attributes", {})
                if isinstance(event, dict)
                else getattr(event, "attributes", {})
            )
            if (
                name == "breaker_transition"
                and attrs.get("to_state") == "open"
            ):
                registry.counter("serve.breaker_trips").inc()
            elif name == "consult_failed":
                # Mirror the live session's split: timeouts land in
                # serve.consult_timeouts, everything else in
                # serve.consult_failures — a replayed trace must
                # reproduce the live counters exactly.
                if attrs.get("kind") == "timeout":
                    registry.counter("serve.consult_timeouts").inc()
                else:
                    registry.counter("serve.consult_failures").inc()
            elif name == "sched_cell":
                # The grid scheduler stamps one sched_cell event per
                # dispatched cell on the grid span, mirroring the live
                # sched.* instruments exactly (repro.core.sched) — the
                # rollup==live parity contract the serve/fleet counters
                # follow.
                registry.counter("sched.cells_scheduled").inc()
                if attrs.get("stolen"):
                    registry.counter("sched.steals").inc()
                error_pct = attrs.get("error_pct")
                if error_pct is not None:
                    registry.timer("sched.estimate_error_pct").observe(
                        float(error_pct)
                    )
            elif name == "corrupted_push":
                # One event per corrupted point, its ``ops`` attribute the
                # comma-joined operators that fired — mirroring the live
                # serve.corrupted_points / serve.corruption.<op> counters
                # (repro.robustness stream corruption).
                registry.counter("serve.corrupted_points").inc()
                for op in str(attrs.get("ops", "")).split(","):
                    if op:
                        registry.counter(f"serve.corruption.{op}").inc()
    return registry
