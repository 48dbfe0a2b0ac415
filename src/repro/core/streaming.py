"""Point-by-point streaming interface over a trained early classifier.

The paper's online analysis (Section 6.2.5) asks whether an algorithm can
emit its decision before the next observation arrives. The
:class:`StreamingSession` makes that setting concrete: measurements are
pushed one time-point at a time; after each push the underlying early
classifier is consulted on the observed prefix, and the session reports a
decision as soon as the classifier commits *within* the observed data. Per-
push latency is recorded so feasibility against the sampling period can be
checked directly (the Figure 13 criterion).

The session never un-commits: once a decision is emitted the remaining
pushes are absorbed without further classifier calls.

Each session consults its classifier through the stream it opens at
construction (:meth:`~repro.core.base.EarlyClassifier.open_stream`), so
any work an algorithm keeps across a growing prefix belongs to the
session, and many sessions can share one trained model.

Production streams are not clean: points arrive malformed, consultations
overrun the sampling period, classifiers throw. The resilient wrapper
that handles all of that — input guards, deadlines, fallback degradation,
circuit breakers — is :class:`repro.serve.GuardedStreamingSession`, which
extends this class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError, NotFittedError
from ..obs.trace import get_tracer
from .base import EarlyClassifier
from .prediction import SOURCE_FALLBACK, SOURCE_MODEL, EarlyPrediction

__all__ = ["StreamingSession", "StreamingDecision", "LatencySummary"]


@dataclass(frozen=True)
class StreamingDecision:
    """A decision emitted by a streaming session.

    ``degraded`` / ``source`` mirror the fields of
    :class:`~repro.core.prediction.EarlyPrediction`: a decision the
    serving layer had to source from a fallback predictor (deadline miss,
    consultation failure, open circuit breaker) carries
    ``degraded=True, source="fallback"``. Plain sessions always emit
    model-sourced decisions.
    """

    label: int
    decided_at: int  # number of points observed when the decision fired
    confidence: float | None
    degraded: bool = False
    source: str = SOURCE_MODEL


@dataclass(frozen=True)
class LatencySummary:
    """Order statistics of a session's per-consultation latencies.

    The Figure 13 feasibility question is about the *distribution* of
    push latencies, not just their mean — a p95 above the sampling period
    still drops observations even when the mean keeps up. ``p99`` exposes
    the tail the paper's online criterion is really about, and
    ``over_budget_count`` is the number of consultations that exceeded
    the sampling period (0 when no budget was supplied), so Figure 13
    feasibility can be read directly off the summary.

    ``p999`` and ``jitter`` (the population standard deviation of the
    sample) serve the SLO harness (:mod:`repro.slo`): real-time scenarios
    are judged on the extreme tail and on latency *stability*, not just
    central quantiles. Both default to 0 so historical construction
    sites keep working.

    Small-sample semantics
    ----------------------
    Quantiles are linear-interpolated order statistics
    (``numpy.quantile`` with the default method): with ``n`` samples,
    quantile ``q`` interpolates between the order statistics bracketing
    position ``q * (n - 1)``. For tiny samples the tail quantiles
    therefore collapse onto the maximum — with fewer than ``1/(1-q)``
    samples there is simply no observation beyond position ``q``, so
    ``p999 == max`` for every ``n <= 1000``-ish sample set and
    ``p99 == max`` whenever ``n <= 100``-ish. That is the correct
    reading (the observed tail *is* the max), but per-shard fleet
    summaries over a handful of consultations should be compared on
    ``p50``/``mean``, not ``p999``.

    An *empty* sample produces the all-zero :meth:`empty` summary
    (``count == 0``) rather than raising — a fleet shard that served no
    consultations still renders a report row. Callers that consider "no
    consultations yet" an error (``StreamingSession.latency_summary``)
    check the count themselves.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    over_budget_count: int = 0
    p999: float = 0.0
    jitter: float = 0.0

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The all-zero summary of an empty sample (``count == 0``)."""
        return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)

    @classmethod
    def from_latencies(
        cls,
        latencies: "np.ndarray | list[float]",
        budget_seconds: float | None = None,
    ) -> "LatencySummary":
        """Summarize a latency sample (shared by sessions, the SLO
        harness, and the fleet's per-shard rollups).

        An empty sample returns :meth:`empty` — ``numpy.quantile`` would
        raise an ``IndexError`` on a zero-length array, and a shard that
        served nothing is a report row, not a crash. See the class
        docstring for how the tail quantiles behave on tiny samples.
        """
        if budget_seconds is not None and budget_seconds <= 0:
            raise DataError("budget_seconds must be positive")
        latencies = np.asarray(latencies, dtype=float)
        if latencies.size == 0:
            return cls.empty()
        over_budget = (
            int((latencies > budget_seconds).sum())
            if budget_seconds is not None
            else 0
        )
        return cls(
            count=int(latencies.size),
            mean=float(latencies.mean()),
            p50=float(np.quantile(latencies, 0.50)),
            p95=float(np.quantile(latencies, 0.95)),
            p99=float(np.quantile(latencies, 0.99)),
            max=float(latencies.max()),
            over_budget_count=over_budget,
            p999=float(np.quantile(latencies, 0.999)),
            jitter=float(latencies.std()),
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form (for JSON reports and metric snapshots)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
            "jitter": self.jitter,
            "over_budget_count": self.over_budget_count,
        }


class StreamingSession:
    """Feed one multivariate time-point at a time to an early classifier.

    Parameters
    ----------
    classifier:
        A *trained* early classifier.
    series_length:
        Full horizon of the incoming series (needed by algorithms whose
        earliness reasoning uses the total length). Must not exceed the
        classifier's training length.
    check_every:
        Consult the classifier every ``check_every`` pushes (1 = every
        point). Coarser checking trades decision latency for throughput —
        useful when each consultation is expensive.
    """

    def __init__(
        self,
        classifier: EarlyClassifier,
        series_length: int,
        check_every: int = 1,
    ) -> None:
        if not classifier.is_trained:
            raise NotFittedError("StreamingSession needs a trained classifier")
        if series_length < 1:
            raise DataError("series_length must be >= 1")
        if series_length > classifier.trained_length:
            raise DataError(
                f"series_length {series_length} exceeds the classifier's "
                f"training length {classifier.trained_length}"
            )
        if check_every < 1:
            raise DataError("check_every must be >= 1")
        self.classifier = classifier
        self.series_length = series_length
        self.check_every = check_every
        # The session owns its stream's consult state; the model is shared.
        self._stream = classifier.open_stream()
        # Accepted points fill the columns in order; a consult reads the
        # observed columns as one view, without copying them.
        self._values = np.empty((classifier.trained_variables, series_length))
        self._n_observed = 0
        self._decision: StreamingDecision | None = None
        self._ended = False
        self.push_latencies: list[float] = []

    # ------------------------------------------------------------------
    @property
    def n_observed(self) -> int:
        """Number of time-points pushed so far."""
        return self._n_observed

    @property
    def observed(self) -> np.ndarray:
        """The ``(n_variables, n_observed)`` prefix observed so far (a
        view of the session's buffer)."""
        return self._values[:, : self._n_observed]

    @property
    def decision(self) -> StreamingDecision | None:
        """The emitted decision, or ``None`` while undecided."""
        return self._decision

    @property
    def is_decided(self) -> bool:
        """Whether a decision has been emitted."""
        return self._decision is not None

    # ------------------------------------------------------------------
    def _predict_prefix(self, values: np.ndarray) -> EarlyPrediction:
        """One consultation of the session's stream on the ``(V, t)``
        observed prefix (the whole buffer, which only ever grows).

        The resilient serving subclass overrides this hook to add fault
        injection, deadline enforcement, circuit breaking, and fallback
        degradation around the model call.
        """
        return self._stream.consult(values)

    def _observe(self, point: np.ndarray) -> None:
        """Append one accepted point to the observed prefix."""
        self._values[:, self._n_observed] = point
        self._n_observed += 1

    def _consult(self) -> None:
        prediction = self._predict_prefix(self.observed)
        # The classifier treats the observed prefix as a complete series
        # and *forces* a decision at its last point. A commitment exactly
        # at the prefix end is therefore ambiguous (genuine rule-fire vs
        # forced) unless the true series has actually ended — so only
        # strictly-interior commitments and the final forced decision are
        # accepted; a genuine fire at the boundary is picked up on the
        # next consultation. Fallback-sourced answers carry no earliness
        # trigger at all (their prefix_length always equals the observed
        # length), so they can only ever commit as the forced final
        # decision.
        genuine = (
            prediction.prefix_length < self.n_observed
            and prediction.source != SOURCE_FALLBACK
        )
        final = self.n_observed == self.series_length or self._ended
        if genuine or final:
            self._decision = StreamingDecision(
                label=prediction.label,
                decided_at=self.n_observed,
                confidence=prediction.confidence,
                degraded=prediction.degraded,
                source=prediction.source,
            )

    def _timed_consult(self) -> None:
        """Consult under a ``push`` span, recording the latency."""
        with get_tracer().span("push", n_observed=self.n_observed) as span:
            start = time.perf_counter()
            self._consult()
            latency = time.perf_counter() - start
            self.push_latencies.append(latency)
            span.set_attribute("seconds", latency)
            span.set_attribute("decided", self._decision is not None)
            if self._decision is not None:
                span.set_attribute("source", self._decision.source)

    def _coerce_point(self, point: np.ndarray | float) -> np.ndarray:
        """Validate and coerce one pushed point to a float vector.

        Raises an explicit :class:`~repro.exceptions.DataError` for
        non-numeric input, non-1-D points, and channel counts that
        disagree with the classifier's training data — rather than
        letting a raw numpy error surface deep inside the classifier.
        """
        try:
            point = np.asarray(point, dtype=float)
        except (TypeError, ValueError) as error:
            raise DataError(
                f"pushed point is not numeric: {error}"
            ) from error
        point = np.atleast_1d(point)
        if point.ndim != 1:
            raise DataError(
                f"a pushed point must be a scalar or a 1-D vector with one "
                f"value per variable, got shape {point.shape}"
            )
        expected = self.classifier.trained_variables
        if point.shape[0] != expected:
            raise DataError(
                f"point has {point.shape[0]} variables, expected {expected}"
            )
        return point

    def push(self, point: np.ndarray | float) -> StreamingDecision | None:
        """Observe one time-point; returns the decision once available.

        ``point`` is a scalar for univariate streams or a vector with one
        value per variable.
        """
        if self.n_observed >= self.series_length:
            raise DataError("stream already received its full series")
        self._observe(self._coerce_point(point))
        if self._decision is not None:
            return self._decision
        due = (
            self.n_observed % self.check_every == 0
            or self.n_observed == self.series_length
        )
        if due:
            self._timed_consult()
        return self._decision

    def finalize(self) -> StreamingDecision:
        """Declare the stream over and force a decision on what arrived.

        Needed when a stream ends short of ``series_length`` (sensor
        dropout, or points rejected by a serving-layer input guard): the
        classifier's forced commit at the observed prefix end is accepted
        as final. Idempotent once decided.
        """
        if self._decision is not None:
            return self._decision
        if not self._n_observed:
            raise DataError("cannot finalize a stream with no observations")
        self._ended = True
        self._timed_consult()
        assert self._decision is not None, "forced final decision missing"
        return self._decision

    def run(self, series: np.ndarray) -> StreamingDecision:
        """Push an entire ``(n_variables, length)`` series point by point.

        Returns the decision (guaranteed by the forced commit at the final
        point). Points after the decision are still consumed, mirroring a
        sensor that keeps transmitting.
        """
        series = np.atleast_2d(np.asarray(series, dtype=float))
        if series.shape[1] != self.series_length - self.n_observed:
            raise DataError(
                f"series provides {series.shape[1]} points, session expects "
                f"{self.series_length - self.n_observed} more"
            )
        decision = None
        with get_tracer().span(
            "stream",
            series_length=self.series_length,
            check_every=self.check_every,
        ) as span:
            for t in range(series.shape[1]):
                decision = self.push(series[:, t])
            if decision is None:
                # Reachable only in subclasses that may skip points (an
                # input guard rejecting malformed observations).
                decision = self.finalize()
            span.set_attribute("decided_at", decision.decided_at)
            span.set_attribute("n_consultations", len(self.push_latencies))
        return decision

    def latency_summary(
        self, budget_seconds: float | None = None
    ) -> LatencySummary:
        """Mean/p50/p95/p99/max of the recorded consultation latencies.

        Shared by the Figure 13 bench and the metrics layer, so every
        latency figure comes from the same order statistics. With
        ``budget_seconds`` (the stream's sampling period),
        ``over_budget_count`` reports how many consultations overran it —
        each one a dropped observation in a real deployment.
        """
        if not self.push_latencies:
            # A session with zero consultations is caller error (nothing
            # was ever pushed) — unlike an aggregate rollup, where an
            # empty sample is a legitimate all-zero row.
            raise DataError("no consultations recorded yet")
        return LatencySummary.from_latencies(
            self.push_latencies, budget_seconds
        )

    def mean_latency_ratio(self, frequency_seconds: float) -> float:
        """Mean per-consultation latency over the sampling period.

        The Figure 13 feasibility criterion: values below 1 keep up with
        the stream.
        """
        if frequency_seconds <= 0:
            raise DataError("frequency_seconds must be positive")
        return self.latency_summary().mean / frequency_seconds
