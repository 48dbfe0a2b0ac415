"""Resilient streaming session: guard -> deadline -> breaker -> fallback.

:class:`GuardedStreamingSession` wraps any trained
:class:`~repro.core.base.EarlyClassifier` into a production-grade
streaming endpoint. Relative to the plain
:class:`~repro.core.streaming.StreamingSession` it adds four defences,
applied in order on every push:

1. **Input guard** — every point is validated and (per policy)
   sanitized or dropped before it can reach the classifier
   (:mod:`repro.serve.guard`).
2. **Consultation deadline** — a classifier consultation that exceeds
   ``deadline_seconds`` is preempted via
   :func:`repro.core.timeouts.time_limit`; where SIGALRM is unavailable
   the same budget applies as a cooperative after-the-fact check on the
   injected clock, so a deadline miss is detected either way.
3. **Circuit breaker** — consecutive consultation failures trip the
   breaker and take the model out of rotation until probe consultations
   succeed (:mod:`repro.serve.breaker`).
4. **Fallback degradation** — whenever the model cannot answer (miss,
   crash, open breaker), a cheap fallback predictor answers instead and
   the eventual decision is flagged ``degraded=True`` /
   ``source="fallback"`` (:mod:`repro.serve.fallback`).

With no faults, no deadline, and clean input, the session's decisions
are identical to the plain ``StreamingSession``'s — resilience is free
until something actually goes wrong.

Everything is observable: each rejection, sanitization, corruption,
fallback consultation, degraded decision, breaker transition and consult
failure is one :func:`~repro.obs.metrics.emit` call, which counts it in
the session's :class:`~repro.obs.metrics.MetricsRegistry` under
``serve.*`` and records it as an event on the current span; stream-level
anomaly totals are reported through one counted ``repro.serve`` warning
per stream.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.base import EarlyClassifier
from ..core.prediction import EarlyPrediction
from ..core.resilience import TIMEOUT, classify_failure, failure_reason
from ..core.streaming import StreamingDecision, StreamingSession
from ..core.timeouts import time_limit
from ..data.dataset import TimeSeriesDataset
from ..exceptions import ConfigurationError, DataError
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, emit
from ..obs.trace import current_span
from .breaker import BREAKER_CLOSED, BREAKER_OPEN, CircuitBreaker
from .chaos import STAGE_CONSULT, STAGE_PUSH
from .fallback import FallbackPredictor, make_fallback
from .guard import GUARD_LENIENT, GUARD_STRICT, GuardStats, InputGuard

__all__ = ["ConsultRecord", "GuardedStreamingSession"]

_logger = get_logger("serve")


@dataclass(frozen=True)
class ConsultRecord:
    """What one classifier consultation did, as the session saw it.

    Emitted to the session's ``consult_observer`` hook (and collected in
    ``session.consult_records``) so external harnesses — the SLO
    scenario replay in :mod:`repro.slo` — can account for every
    consultation without re-deriving the session's internal control
    flow. ``elapsed_seconds`` is measured on the session's injectable
    clock, so a virtual-clock replay sees deterministic durations.
    """

    index: int  #: 1-based consultation number within the session
    push_index: int  #: 1-based push that triggered the consultation
    n_observed: int  #: points in the buffer when the model was consulted
    elapsed_seconds: float  #: duration on the session clock
    source: str  #: ``model`` or ``fallback``
    degraded: bool  #: the answer came from the fallback predictor
    deadline_missed: bool  #: the consultation overran ``deadline_seconds``
    failure_kind: str | None  #: ``timeout``/``transient``/... or ``None``
    breaker_open: bool  #: the breaker skipped the model entirely


class GuardedStreamingSession(StreamingSession):
    """A :class:`StreamingSession` hardened for messy production streams.

    Parameters
    ----------
    classifier, series_length, check_every:
        As for :class:`StreamingSession`.
    guard:
        The per-point :class:`~repro.serve.guard.InputGuard`. Defaults to
        a lenient guard without train-time statistics (NaN/Inf imputation
        only; no magnitude clamp).
    fallback:
        A *fitted* :class:`~repro.serve.fallback.FallbackPredictor`
        answering when the model cannot. ``None`` disables degradation:
        consultation failures propagate to the caller (deadline misses in
        cooperative mode then keep the late model answer).
    deadline_seconds:
        Per-consultation wall-clock budget — normally the stream's
        sampling period, so a consultation that would collide with the
        next observation degrades instead of stalling. ``None`` disables
        the deadline.
    breaker:
        The per-session :class:`~repro.serve.breaker.CircuitBreaker`;
        ``None`` disables circuit breaking (every consultation reaches
        the model).
    fault_injector:
        Chaos hook ``(stage, algorithm, stream, push_index)`` consulted
        at every push (``stage="push"``) and model consultation
        (``stage="consult"``); raising injects the failure. See
        :class:`~repro.serve.chaos.ServeFaultPlan`.
    corruptor:
        Optional push-time data corruptor
        (:class:`~repro.robustness.stream.StreamCorruptor`): applied to
        every delivered point *between* coercion and the input guard,
        so the guard sees exactly what a degraded sensor would emit.
        Every corrupted push is counted
        (``serve.corrupted_points`` plus per-operator
        ``serve.corruption.<op>`` counters) and logged in
        ``session.corruption_events`` — the provenance that says which
        operator degraded which push.
    stream_name, algorithm_name:
        Labels used in warnings, fault matching, and span attributes.
    metrics:
        Registry receiving the ``serve.*`` counters; a fresh one is
        created when omitted (always available as ``session.metrics``).
    clock:
        Monotonic time source for the cooperative deadline check
        (injectable for deterministic tests; default
        ``time.perf_counter``).
    consult_observer:
        Instrumentation hook receiving a :class:`ConsultRecord` after
        every completed consultation (model, fallback, or breaker-open
        skip). The SLO harness uses it to compute response times and
        deadline misses on its own clock; all records are also kept in
        ``session.consult_records``.
    preemptive_deadline:
        When ``False``, the SIGALRM preemption is skipped and only the
        cooperative deadline check on the injected clock applies. Virtual-
        clock replays set this so that simulated service times — not real
        wall time — decide deadline misses.
    """

    def __init__(
        self,
        classifier: EarlyClassifier,
        series_length: int,
        check_every: int = 1,
        *,
        guard: InputGuard | None = None,
        fallback: FallbackPredictor | None = None,
        deadline_seconds: float | None = None,
        breaker: CircuitBreaker | None = None,
        fault_injector: Callable[[str, str, str, int], None] | None = None,
        corruptor=None,
        stream_name: str = "stream",
        algorithm_name: str | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.perf_counter,
        consult_observer: Callable[["ConsultRecord"], None] | None = None,
        preemptive_deadline: bool = True,
    ) -> None:
        super().__init__(classifier, series_length, check_every=check_every)
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be positive or None, "
                f"got {deadline_seconds}"
            )
        if fallback is not None and not fallback.is_fitted:
            raise ConfigurationError(
                "the fallback predictor must be fitted before serving "
                "(call fallback.fit(train_dataset))"
            )
        self.guard = guard if guard is not None else InputGuard()
        self.fallback = fallback
        self._fallback_stream = (
            fallback.open_stream() if fallback is not None else None
        )
        self.deadline_seconds = deadline_seconds
        self.breaker = breaker
        self.fault_injector = fault_injector
        self.corruptor = corruptor
        self.stream_name = stream_name
        self.algorithm_name = algorithm_name or type(classifier).__name__
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self.consult_observer = consult_observer
        self.preemptive_deadline = preemptive_deadline
        self._pushes = 0
        self._reported = False
        self.rejection_reasons: list[str] = []
        #: (push index, op) pairs for every corrupted delivery — the
        #: degraded-decision provenance of this stream.
        self.corruption_events: list[tuple[int, str]] = []
        self.consult_records: list[ConsultRecord] = []
        self._consult_note: dict[str, object] = {}
        if breaker is not None:
            # Chain (not replace) any caller-installed transition hook so
            # trips/recoveries always reach the span events and counters.
            # The hook holds the session weakly: a strong reference would
            # close a session -> breaker -> session cycle that keeps a
            # finished session and its consult records until a full GC.
            previous = breaker.on_transition
            session_hook = weakref.WeakMethod(self._on_breaker_transition)

            def on_transition(old: str, new: str, reason: str) -> None:
                if previous is not None:
                    previous(old, new, reason)
                hook = session_hook()
                if hook is not None:
                    hook(old, new, reason)

            breaker.on_transition = on_transition

    # ------------------------------------------------------------------
    @classmethod
    def for_dataset(
        cls,
        classifier: EarlyClassifier,
        train_dataset: TimeSeriesDataset,
        *,
        policy: str = GUARD_LENIENT,
        clamp_sigma: float = 6.0,
        fallback: FallbackPredictor | str | None = "majority",
        series_length: int | None = None,
        **kwargs,
    ) -> "GuardedStreamingSession":
        """Build a guarded session wired to a training dataset.

        Computes the guard's train-time statistics and fits the fallback
        (named ``"majority"`` / ``"prefix-1nn"``, or a predictor
        instance) on ``train_dataset``; remaining keyword arguments pass
        through to the constructor.
        """
        guard = InputGuard(
            GuardStats.from_dataset(train_dataset, clamp_sigma=clamp_sigma),
            policy=policy,
        )
        if isinstance(fallback, str):
            fallback = make_fallback(fallback).fit(train_dataset)
        elif fallback is not None and not fallback.is_fitted:
            fallback.fit(train_dataset)
        return cls(
            classifier,
            series_length or train_dataset.length,
            guard=guard,
            fallback=fallback,
            **kwargs,
        )

    # ------------------------------------------------------------------
    @property
    def n_pushed(self) -> int:
        """Points the stream delivered (accepted + rejected)."""
        return self._pushes

    @property
    def n_rejected(self) -> int:
        """Points dropped by the guard or by injected push corruption."""
        return self._pushes - self.n_observed

    def _on_breaker_transition(
        self, old_state: str, new_state: str, reason: str
    ) -> None:
        emit(
            self.metrics, "breaker_transition",
            from_state=old_state, to_state=new_state, reason=reason,
        )
        if new_state == BREAKER_OPEN:
            _logger.warning(
                "%s on %s: circuit breaker tripped open (%s)",
                self.algorithm_name, self.stream_name, reason,
            )
        elif new_state == BREAKER_CLOSED:
            _logger.info(
                "%s on %s: circuit breaker closed again (%s)",
                self.algorithm_name, self.stream_name, reason,
            )

    def _note_rejected(self, reason: str) -> None:
        emit(self.metrics, "rejected_point", reason=reason)
        self.rejection_reasons.append(reason)

    def _note_corrupted(self, index: int, ops: list[str]) -> None:
        emit(
            self.metrics, "corrupted_push", push_index=index, ops=",".join(ops)
        )
        self.corruption_events.extend((index, op) for op in ops)

    # ------------------------------------------------------------------
    def push(self, point: np.ndarray | float) -> StreamingDecision | None:
        """Guarded push: validate/sanitize the point, then consult.

        Unusable points (non-numeric, wrong shape, injected corruption,
        or value anomalies under the ``reject`` policy) are dropped and
        counted — under the ``strict`` policy they raise instead. The
        stream still advances: the session accounts for every delivered
        point, and a stream that ends short of ``series_length`` because
        of drops is finalized with a forced decision on what arrived.
        """
        if self._pushes >= self.series_length:
            raise DataError("stream already received its full series")
        self._pushes += 1
        index = self._pushes
        try:
            if self.fault_injector is not None:
                self.fault_injector(
                    STAGE_PUSH, self.algorithm_name, self.stream_name, index
                )
            point_array = self._coerce_point(point)
            if self.corruptor is not None:
                point_array, fired = self.corruptor.apply(
                    self.stream_name, index, point_array, self.series_length
                )
                if fired:
                    self._note_corrupted(index, fired)
            outcome = self.guard.inspect(point_array)
        except DataError as error:
            if self.guard.policy == GUARD_STRICT:
                raise
            self._note_rejected(f"push {index}: {failure_reason(error)}")
            if self._pushes == self.series_length:
                self._end_of_stream()
            return self._decision
        if not outcome.accepted:
            self._note_rejected(
                f"push {index}: {'; '.join(outcome.anomalies)}"
            )
            if self._pushes == self.series_length:
                self._end_of_stream()
            return self._decision
        if outcome.repaired:
            emit(self.metrics, "sanitized_point", push_index=index)
        self._observe(outcome.point)
        if self._decision is not None:
            return self._decision
        due = (
            self.n_observed % self.check_every == 0
            or self._pushes == self.series_length
        )
        if due:
            if self._pushes == self.series_length:
                # The stream is over even if drops left the buffer short
                # of series_length — force the final commit now.
                self._ended = True
            self._timed_consult()
        if self._pushes == self.series_length:
            self._report_stream()
        return self._decision

    def _end_of_stream(self) -> None:
        """The last delivered point was dropped: force a final decision."""
        if self._decision is None and self.n_observed:
            self._ended = True
            self._timed_consult()
        self._report_stream()

    def finalize(self) -> StreamingDecision:
        decision = super().finalize()
        self._report_stream()
        return decision

    def _report_stream(self) -> None:
        """One counted ``repro.serve`` warning per anomalous stream."""
        if self._reported:
            return
        self._reported = True
        dropped = self.n_rejected
        sanitized = self.guard.n_sanitized
        if dropped or sanitized:
            first = (
                self.rejection_reasons[0]
                if self.rejection_reasons
                else self.guard.anomaly_log[0]
            )
            _logger.warning(
                "%s on %s: rejected %d and sanitized %d of %d point(s) "
                "(first: %s)",
                self.algorithm_name, self.stream_name,
                dropped, sanitized, self._pushes, first,
            )

    # ------------------------------------------------------------------
    def _fallback_prediction(self, values: np.ndarray) -> EarlyPrediction:
        emit(self.metrics, "fallback_consult", push_index=self._pushes)
        return self._fallback_stream.consult(values, self.series_length)

    def _predict_prefix(self, values: np.ndarray) -> EarlyPrediction:
        """One consultation, measured on the session clock and recorded."""
        note = self._consult_note = {
            "failure_kind": None,
            "deadline_missed": False,
            "breaker_open": False,
        }
        start = self._clock()
        prediction = self._consult_guarded(values)
        record = ConsultRecord(
            index=len(self.consult_records) + 1,
            push_index=self._pushes,
            n_observed=self.n_observed,
            elapsed_seconds=self._clock() - start,
            source=prediction.source,
            degraded=prediction.degraded,
            deadline_missed=bool(note["deadline_missed"]),
            failure_kind=note["failure_kind"],
            breaker_open=bool(note["breaker_open"]),
        )
        self.consult_records.append(record)
        if self.consult_observer is not None:
            self.consult_observer(record)
        return prediction

    def _consult_guarded(self, values: np.ndarray) -> EarlyPrediction:
        """One consultation under chaos, deadline, breaker, and fallback."""
        note = self._consult_note
        if self.breaker is not None and not self.breaker.allow_request():
            note["breaker_open"] = True
            span = current_span()
            span.set_attribute("breaker", self.breaker.state)
            span.set_attribute("source", "fallback")
            return self._fallback_prediction(values)
        start = self._clock()
        try:
            if self.fault_injector is not None:
                self.fault_injector(
                    STAGE_CONSULT,
                    self.algorithm_name,
                    self.stream_name,
                    self._pushes,
                )
            # Preemptive deadline (SIGALRM where available; elsewhere
            # time_limit degrades and the cooperative check below rules).
            # Virtual-clock replays disable the preemption so simulated
            # service times rule instead of real wall time.
            with time_limit(
                self.deadline_seconds if self.preemptive_deadline else None
            ):
                prediction = self._stream.consult(values)
        except Exception as error:
            # An interrupted consult may leave the stream's state half
            # advanced; a fresh stream replays the buffer next time.
            self._stream = self.classifier.open_stream()
            kind = classify_failure(error)
            reason = failure_reason(error)
            note["failure_kind"] = kind
            if kind == TIMEOUT:
                note["deadline_missed"] = True
            emit(self.metrics, "consult_failed", kind=kind, error=reason)
            if self.breaker is not None:
                self.breaker.record_failure(reason)
            if self.fallback is None:
                raise
            return self._fallback_prediction(values)
        elapsed = self._clock() - start
        if (
            self.deadline_seconds is not None
            and elapsed > self.deadline_seconds
        ):
            # Cooperative after-the-fact deadline check — the only rule
            # in force when SIGALRM is unavailable (non-Unix platform or
            # a worker thread). The model's answer arrived after the
            # stream moved on, so it is discarded for the fallback's.
            note["failure_kind"] = TIMEOUT
            note["deadline_missed"] = True
            emit(
                self.metrics, "consult_failed", kind=TIMEOUT,
                error=f"consultation took {elapsed:.4f}s, deadline "
                f"{self.deadline_seconds:.4f}s (cooperative check)",
            )
            if self.breaker is not None:
                self.breaker.record_failure("deadline exceeded")
            if self.fallback is not None:
                return self._fallback_prediction(values)
            return prediction  # nothing to degrade to: keep the late answer
        if self.breaker is not None:
            self.breaker.record_success()
        return prediction

    def _consult(self) -> None:
        was_decided = self._decision is not None
        super()._consult()
        if (
            not was_decided
            and self._decision is not None
            and self._decision.degraded
        ):
            emit(self.metrics, "degraded_decision", at=self.n_observed)
