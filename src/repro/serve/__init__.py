"""Resilient online serving layer for streaming early classification.

Wraps any trained :class:`~repro.core.base.EarlyClassifier` into a
production-grade streaming endpoint (``docs/serving.md``):

- :class:`InputGuard` validates every pushed point against train-time
  statistics (non-finite values, out-of-distribution magnitudes) under a
  strict / lenient / reject policy;
- per-consultation deadlines reuse the kill rule's
  :func:`~repro.core.timeouts.time_limit` and degrade to a cheap
  :class:`FallbackPredictor` instead of stalling the stream;
- a per-session :class:`CircuitBreaker` stops hammering a classifier
  that keeps failing and probes for recovery;
- :class:`ServeFaultPlan` injects deterministic push/consult faults so
  the whole failure surface is testable with zero real delays.

The entry point is :class:`GuardedStreamingSession` (wrap one stream);
:func:`repro.slo.run_scenario` / ``etsc-bench serve-slo`` replay
scenarios of many guarded streams and report their SLOs.
"""

from .breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from .chaos import STAGE_CONSULT, STAGE_PUSH, ServeFaultPlan, parse_fault_specs
from .fallback import (
    FALLBACK_NAMES,
    FallbackPredictor,
    MajorityClassFallback,
    PrefixNearestNeighborFallback,
    make_fallback,
)
from .guard import (
    GUARD_LENIENT,
    GUARD_POLICIES,
    GUARD_REJECT,
    GUARD_STRICT,
    ChannelStats,
    GuardOutcome,
    GuardStats,
    InputGuard,
)
from .session import ConsultRecord, GuardedStreamingSession

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "STAGE_CONSULT",
    "STAGE_PUSH",
    "ServeFaultPlan",
    "parse_fault_specs",
    "FALLBACK_NAMES",
    "FallbackPredictor",
    "MajorityClassFallback",
    "PrefixNearestNeighborFallback",
    "make_fallback",
    "GUARD_LENIENT",
    "GUARD_POLICIES",
    "GUARD_REJECT",
    "GUARD_STRICT",
    "ChannelStats",
    "GuardOutcome",
    "GuardStats",
    "InputGuard",
    "ConsultRecord",
    "GuardedStreamingSession",
]
