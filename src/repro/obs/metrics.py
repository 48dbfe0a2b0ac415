"""Counters, gauges, and timer histograms for grid runs.

The quantities the paper's comparison turns on — cells completed, cells
killed by the time budget, predictions emitted, consult latencies —
are aggregated here. A :class:`MetricsRegistry` is cheap to create, safe
to update from several threads, and renders a plain-text report via
:meth:`MetricsRegistry.summarize`.

Program code never writes a counter or timer directly: it calls
:func:`emit`, which updates a live registry through the one counter
table :data:`EVENT_METRICS` and appends the same event to the current
span. :func:`metrics_from_spans` rebuilds a registry from a persisted
trace (see :mod:`repro.obs.events`) by applying that table to every
recorded event, which is how ``python -m repro.obs.summary`` recomputes
a run's statistics after the fact.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Iterable

from ..exceptions import ReproError
from .trace import current_span

__all__ = [
    "Counter",
    "Gauge",
    "TimerHistogram",
    "MetricsRegistry",
    "EVENT_METRICS",
    "TIMERS",
    "emit",
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

    def record(self, event: str, attributes: dict) -> None:
        """Apply one event's :data:`EVENT_METRICS` entry, if it has one."""
        rule = EVENT_METRICS.get(event)
        if rule is None:
            return
        for name, value in rule(attributes).items():
            if name in TIMERS:
                self.timer(name).observe(value)
            elif value:
                self.counter(name).inc(int(value))

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


# ----------------------------------------------------------------------
# The counter table: what each emitted event means to the metrics.


def _count(counter: str):
    return lambda attributes: {counter: 1}


def _cell_committed(attributes: dict) -> dict[str, Any]:
    status = attributes["status"]  # completed / timeout / failed
    values = {
        "cells_total": 1,
        f"cells_{status}": 1,
        "cell_retries": attributes.get("retries", 0),
        "predictions_emitted": attributes.get("predictions", 0),
    }
    if status == "completed":
        values["cell_seconds"] = attributes["seconds"]
    return values


def _corrupted_push(attributes: dict) -> dict[str, Any]:
    values = {"serve.corrupted_points": 1}
    for op in filter(None, str(attributes.get("ops", "")).split(",")):
        name = f"serve.corruption.{op}"
        values[name] = values.get(name, 0) + 1
    return values


#: Event name -> ``attributes -> {instrument: value}``. Names in
#: :data:`TIMERS` observe ``value``; every other name is a counter that
#: ``value`` increments (a zero or false value creates nothing).
EVENT_METRICS: dict[str, Callable[[dict], dict[str, Any]]] = {
    # Grid runner (repro.core.runner); the parent emits all of them.
    "cell_committed": _cell_committed,
    "load_retry": _count("load_retries"),
    "load_failed": _count("datasets_failed"),
    "sched_cell": lambda a: {
        "sched.cells_scheduled": 1,
        "sched.steals": a.get("stolen", False),
    },
    # Guarded streaming sessions (repro.serve.session).
    "rejected_point": _count("serve.rejected_points"),
    "sanitized_point": _count("serve.sanitized_points"),
    "corrupted_push": _corrupted_push,
    "fallback_consult": _count("serve.fallback_consults"),
    "degraded_decision": _count("serve.degraded_decisions"),
    "breaker_transition": lambda a: {
        "serve.breaker_trips": a.get("to_state") == "open"
    },
    "consult_failed": lambda a: {
        "serve.consult_timeouts"
        if a.get("kind") == "timeout"
        else "serve.consult_failures": 1
    },
    # Scenario replays (repro.slo.harness), trace only.
    "slo_consult": lambda a: {
        "slo.response_seconds": a["response_seconds"],
        "slo.deadline_misses": a.get("deadline_missed", False),
    },
    # Fleet commitment (repro.fleet.coordinator).
    "fleet_stream": lambda a: {
        "fleet.requested": 1,
        f"fleet.{a['outcome']}": 1,
        "fleet.admitted": a.get("admitted", False),
        "fleet.stream_failovers": a.get("failovers", 0),
    },
    "fleet_batch": _count("fleet.batched_consults"),
    "fleet_failover": _count("fleet.failovers"),
}

#: The table's instruments that are timer histograms.
TIMERS = frozenset({"cell_seconds", "slo.response_seconds"})


def emit(
    registry: MetricsRegistry | None, name: str, **attributes: Any
) -> None:
    """Count event ``name`` in ``registry`` (unless ``None``) through
    :data:`EVENT_METRICS`, and append it to the innermost open span."""
    if registry is not None:
        registry.record(name, attributes)
    current_span().add_event(name, **attributes)


def metrics_from_spans(spans: Iterable[Any]) -> MetricsRegistry:
    """Aggregate a span stream (live ``Span`` or loaded ``SpanRecord``).

    Per span name: ``span.<name>.count``, a ``span.<name>.seconds`` timer
    and a ``span.<name>.<status>`` counter per non-``ok`` status; then
    every recorded event through :data:`EVENT_METRICS`, as :func:`emit`.
    """
    registry = MetricsRegistry()
    for span in spans:
        registry.counter(f"span.{span.name}.count").inc()
        registry.timer(f"span.{span.name}.seconds").observe(span.duration)
        if span.status != "ok":
            registry.counter(f"span.{span.name}.{span.status}").inc()
        for event in span.events or ():
            registry.record(event["name"], event.get("attributes") or {})
    return registry
