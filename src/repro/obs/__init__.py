"""Observability: structured tracing, run metrics, and progress telemetry.

The paper's empirical claims (Sections 6.1-6.2) are *measured* quantities
— training/testing time, per-push online latency, 48-hour kill rules — so
the harness records how every number was produced. This package is the
dependency-free instrumentation layer behind that record:

``trace``
    :class:`Tracer` producing nested spans (``grid -> cell -> fold ->
    fit/predict`` and ``stream -> push``) with wall time, attributes, and
    optional ``tracemalloc`` peak memory, collected thread-safely.
``events``
    :class:`TraceWriter` / :class:`TraceReader` — JSONL persistence so a
    run's trace can be dumped to disk and re-loaded for analysis.
``metrics``
    Counters, gauges, and timer histograms (cells completed, timeouts,
    consult latencies) fed by ``emit()`` through one counter table, plus
    a text ``summarize()`` report.
``logging``
    Stdlib ``logging`` setup for the ``repro`` namespace (``NullHandler``
    on the root, one-time warnings, per-cell grid progress lines).
``summary``
    ``python -m repro.obs.summary trace.jsonl`` — counters and timer
    quantiles recomputed from a trace file.

Everything is no-op-cheap when disabled: the module-level tracer defaults
to a :class:`NullTracer`, and no instrumentation changes any
``EvaluationResult`` / ``RunReport`` value.
"""

from .events import SpanRecord, TraceReader, TraceWriter, read_spans
from .logging import (
    configure_logging,
    get_logger,
    reset_warnings,
    warn_once,
)
from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    TimerHistogram,
    emit,
    metrics_from_spans,
)
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "current_span",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "SpanRecord",
    "TraceWriter",
    "TraceReader",
    "read_spans",
    "Counter",
    "Gauge",
    "TimerHistogram",
    "MetricsRegistry",
    "emit",
    "metrics_from_spans",
    "configure_logging",
    "get_logger",
    "warn_once",
    "reset_warnings",
]
