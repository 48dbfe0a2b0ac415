"""Scenario replay: one shard runtime, two drivers.

:class:`ShardRuntime` is the only code that turns a
:class:`~repro.slo.scenario.Scenario` into guarded sessions
(:class:`~repro.serve.session.GuardedStreamingSession`) and replays
them. It is one simulated server: every stream's per-point arrival
timestamps come from the scenario's seeded arrival process and are
replayed in one global order; a consultation starts at
``max(arrival, server_free)`` and occupies the server for its service
time, so bursts queue and queueing shows up in response latency —
exactly the mechanism that makes real-time deadlines hard.

Two drivers run it:

* :func:`run_scenario` trains each distinct (algorithm, dataset) pair
  once (:func:`train_scenario_bundles`), opens every stream on one
  in-process runtime, replays all events, and aggregates a
  :class:`~repro.slo.report.ScenarioReport`;
* the fleet (:mod:`repro.fleet`) drives one runtime per shard worker,
  feeding it admitted streams tick by tick and committing the outcomes
  in global stream order.

Under the ``virtual`` clock, service times come from the scenario's
seeded :class:`~repro.slo.scenario.ServiceModel` (the wrapped classifier
advances the clock instead of consuming wall time), deadlines are
enforced by the session's cooperative check on the same clock, and the
whole report is a deterministic function of the scenario. Under the
``wall`` clock the replay measures real consultation latencies and
preempts them at the deadline — the online-feasibility replay of the
paper's Figure 13, useful for profiling but not for committed
trajectories; only ``run_scenario`` accepts it.

Every consultation's response time and deadline verdict are also
recorded as an ``slo_consult`` event on the session's ``push`` span
(trace-only: the session registry, whose snapshot becomes the report's
``counters``, never sees it).
"""

from __future__ import annotations

import heapq
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..core.registry import check_names, default_algorithms, default_datasets
from ..core.resilience import TIMEOUT
from ..core.voting import wrap_for_dataset
from ..data.splits import train_test_split
from ..obs.metrics import MetricsRegistry, emit
from ..obs.trace import get_tracer
from ..serve.breaker import CircuitBreaker
from ..serve.guard import GuardStats, InputGuard
from ..serve.fallback import make_fallback
from ..serve.session import GuardedStreamingSession
from .clock import VirtualClock
from .report import ScenarioReport
from .scenario import CLOCK_VIRTUAL, Scenario


__all__ = [
    "run_scenario",
    "derive_seed",
    "SimulatedClassifier",
    "ScenarioBundle",
    "train_scenario_bundles",
    "StreamDescriptor",
    "scenario_streams",
    "ShardRuntime",
]


def derive_seed(*parts) -> int:
    """Deterministic cross-process seed from structured parts (crc32 —
    the hash() pitfall PR 2 fixed must not come back here)."""
    key = ":".join(str(part) for part in parts).encode("utf-8")
    return zlib.crc32(key)


class SimulatedClassifier:
    """Wrap a trained classifier so consultations cost *virtual* time.

    Every stream it opens advances the shared virtual clock by a seeded
    service-model sample before each consult, so the session's
    cooperative deadline check — reading the same clock — sees exactly
    that duration. Everything else proxies to the trained classifier.

    Each :class:`ShardRuntime` wraps the bundle classifier around its
    *own* clock, so a runtime is one simulated server.
    """

    def __init__(self, inner, clock: VirtualClock, service, rng) -> None:
        self._inner = inner
        self._vclock = clock
        self._service = service
        self._rng = rng

    def open_stream(self) -> "_SimulatedStream":
        return _SimulatedStream(self, self._inner.open_stream())

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _SimulatedStream:
    """A model stream whose every consult first charges virtual time."""

    def __init__(self, owner: SimulatedClassifier, inner) -> None:
        self._owner = owner
        self._inner = inner

    def consult(self, values: np.ndarray):
        owner = self._owner
        owner._vclock.advance(
            owner._service.sample(owner._rng, int(values.shape[-1]))
        )
        return self._inner.consult(values)


@dataclass
class ScenarioBundle:
    """One trained (algorithm, dataset) pair and its serving artefacts.

    What a scenario's streams share: the trained classifier, the guard
    statistics and fitted fallback derived from the same training split,
    and the held-out test split the streams replay. Training happens
    once per distinct pair — in the parent, before any shard forks, so
    fleet workers inherit bundles by copy-on-write.
    """

    algorithm: str
    dataset: str
    classifier: object
    stats: GuardStats
    fallback: object | None
    test: object

    @property
    def key(self) -> tuple[str, str]:
        return (self.algorithm, self.dataset)


def train_scenario_bundles(
    scenario: Scenario,
    algorithms=None,
    datasets=None,
) -> dict[tuple[str, str], ScenarioBundle]:
    """Train every distinct (algorithm, dataset) pair a scenario uses.

    Every name is checked before anything is trained: an unknown one
    raises :class:`~repro.exceptions.ConfigurationError` listing the
    registered names (:func:`~repro.core.registry.check_names`).
    """
    if algorithms is None:
        algorithms = default_algorithms(fast=True)
    if datasets is None:
        datasets = default_datasets(scale=scenario.scale, seed=scenario.seed)
    check_names(
        algorithms,
        datasets,
        [spec.algorithm for spec in scenario.streams],
        [spec.dataset for spec in scenario.streams],
    )
    bundles: dict[tuple[str, str], ScenarioBundle] = {}
    for spec in scenario.streams:
        key = (spec.algorithm, spec.dataset)
        if key in bundles:
            continue
        info = algorithms.get(spec.algorithm)
        dataset = datasets.load(spec.dataset)
        train, test = train_test_split(
            dataset,
            test_fraction=scenario.test_fraction,
            seed=scenario.seed,
        )
        classifier = wrap_for_dataset(info.factory, train)
        classifier.train(train)
        bundles[key] = ScenarioBundle(
            algorithm=spec.algorithm,
            dataset=spec.dataset,
            classifier=classifier,
            stats=GuardStats.from_dataset(train),
            fallback=(
                make_fallback(scenario.fallback).fit(train)
                if scenario.fallback
                else None
            ),
            test=test,
        )
    return bundles


@dataclass(frozen=True)
class StreamDescriptor:
    """The three integers that fully determine one scenario stream."""

    global_index: int
    spec_index: int
    stream_i: int

    def as_dict(self) -> dict:
        return {
            "global_index": self.global_index,
            "spec_index": self.spec_index,
            "stream_i": self.stream_i,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "StreamDescriptor":
        return cls(
            global_index=int(raw["global_index"]),
            spec_index=int(raw["spec_index"]),
            stream_i=int(raw["stream_i"]),
        )


def scenario_streams(scenario: Scenario) -> list[StreamDescriptor]:
    """Every stream a scenario requests, in global (commit) order."""
    descriptors: list[StreamDescriptor] = []
    for spec_index, spec in enumerate(scenario.streams):
        for i in range(spec.count):
            descriptors.append(
                StreamDescriptor(len(descriptors), spec_index, i)
            )
    return descriptors


@dataclass
class _ShardStream:
    """One in-flight stream and its per-stream collection state."""

    descriptor: StreamDescriptor
    name: str
    session: GuardedStreamingSession
    breaker: CircuitBreaker | None
    values: np.ndarray  # (n_variables, length) held-out instance
    true_label: int
    n_points: int
    remaining: int
    metrics: MetricsRegistry
    pending_arrival: float = 0.0
    responses: list = field(default_factory=list)
    misses: int = 0


class ShardRuntime:
    """One simulated server replaying many guarded sessions.

    The only code that turns scenario streams into sessions and replays
    them. Each stream is re-derived from its :class:`StreamDescriptor`
    (arrivals, seeds, instance, name); arrival events are replayed in
    the global deterministic order ``(timestamp, global_index, point)``.
    Under the ``virtual`` clock a consultation starts at
    ``max(arrival, server_free)`` and occupies the server for its
    seeded service time, so bursts queue and queueing shows up in
    response latency. Under the ``wall`` clock consultations are timed
    for real and preempted at the deadline.
    """

    def __init__(self, scenario: Scenario, bundles: dict, index: int) -> None:
        self.scenario = scenario
        self.bundles = bundles
        self.index = index
        self.virtual = scenario.clock == CLOCK_VIRTUAL
        self.clock = VirtualClock()
        self.fault_plan = scenario.fault_plan()
        # One corruptor per trained pair: additive noise is referenced to
        # that pair's train-time channel std, so scenario severities mean
        # the same thing as in the offline robustness grid. None when the
        # scenario declares no (or only severity-0) corruption.
        self.corruptors = {
            key: scenario.corruptor(
                noise_scale=float(
                    np.mean([channel.std for channel in bundle.stats.channels])
                )
            )
            for key, bundle in bundles.items()
        }
        self._events: list[tuple[float, int, int]] = []  # heap
        self._streams: dict[int, _ShardStream] = {}
        self.first_arrival: float | None = None
        #: Every response time in consultation order, and the virtual
        #: time the last consultation completed.
        self.responses: list[float] = []
        self.last_completion = 0.0

    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        return len(self._streams)

    def handle(self, request: dict) -> dict:
        """Dispatch one coordinator request (the pool handler)."""
        command = request.get("cmd")
        if command == "tick":
            # One round trip per tick: admissions ride along with the
            # advance request so a dispatch costs one reply, not two.
            opened = [
                StreamDescriptor.from_dict(raw)
                for raw in request.get("streams", [])
            ]
            for descriptor in opened:
                self.open_stream(descriptor)
            with get_tracer().span("replay", shard=self.index):
                outcomes = self.run_events(request.get("max_events"))
            return {
                "cmd": "tick",
                "ok": True,
                "opened": len(opened),
                "outcomes": outcomes,
                "active": self.n_active,
                "events_left": len(self._events),
                "clock": self.clock.now(),
            }
        return {"cmd": command, "error": f"unknown command {command!r}"}

    # ------------------------------------------------------------------
    def open_stream(self, descriptor: StreamDescriptor) -> None:
        """Build the guarded session for one stream and queue its events."""
        scenario = self.scenario
        spec = scenario.streams[descriptor.spec_index]
        key = (spec.algorithm, spec.dataset)
        bundle = self.bundles[key]
        test = bundle.test
        instance = descriptor.stream_i % test.n_instances
        name = f"{spec.dataset}[{instance}]@{spec.algorithm}"
        length = test.values.shape[2]
        global_index = descriptor.global_index
        arrivals = scenario.arrival.generate(
            length,
            seed=derive_seed(scenario.seed, global_index, "arrival"),
            start=global_index * scenario.stagger_ms / 1000.0,
        )
        if self.virtual:
            classifier = SimulatedClassifier(
                bundle.classifier,
                self.clock,
                scenario.service,
                np.random.default_rng(
                    np.random.SeedSequence(
                        derive_seed(scenario.seed, global_index, "service")
                    )
                ),
            )
            session_clock = breaker_clock = self.clock.now
        else:
            classifier = bundle.classifier
            session_clock, breaker_clock = time.perf_counter, time.monotonic
        breaker = None
        if scenario.breaker is not None:
            breaker = CircuitBreaker(
                failure_threshold=scenario.breaker.threshold,
                recovery_seconds=scenario.breaker.recovery_ms / 1000.0,
                probe_successes=scenario.breaker.probe_successes,
                clock=breaker_clock,
            )
        metrics = MetricsRegistry()
        stream = _ShardStream(
            descriptor=descriptor,
            name=name,
            session=None,  # filled below (observer needs the stream)
            breaker=breaker,
            values=test.values[instance],
            true_label=int(test.labels[instance]),
            n_points=len(arrivals),
            remaining=len(arrivals),
            metrics=metrics,
        )
        stream.session = GuardedStreamingSession(
            classifier,
            length,
            check_every=scenario.check_every,
            guard=InputGuard(bundle.stats, policy=scenario.guard),
            fallback=bundle.fallback,
            deadline_seconds=scenario.deadline_seconds,
            breaker=breaker,
            fault_injector=self.fault_plan,
            corruptor=self.corruptors[key],
            stream_name=name,
            algorithm_name=spec.algorithm,
            metrics=metrics,
            clock=session_clock,
            consult_observer=self._make_observer(stream),
            preemptive_deadline=not self.virtual,
        )
        self._streams[global_index] = stream
        for point, timestamp in enumerate(arrivals):
            heapq.heappush(
                self._events, (float(timestamp), global_index, point)
            )
        if self.first_arrival is None or arrivals[0] < self.first_arrival:
            self.first_arrival = float(arrivals[0])

    def _make_observer(self, stream: _ShardStream):
        deadline = self.scenario.deadline_seconds

        def observe(record) -> None:
            if self.virtual:
                if (
                    record.failure_kind == TIMEOUT
                    and deadline is not None
                    and record.elapsed_seconds < deadline
                ):
                    # A timed-out consultation occupies the server for
                    # the full deadline before being preempted; injected
                    # timeouts raise instantly, so charge the remainder.
                    self.clock.advance(deadline - record.elapsed_seconds)
                response = self.clock.now() - stream.pending_arrival
                self.last_completion = max(
                    self.last_completion, self.clock.now()
                )
            else:
                response = record.elapsed_seconds
            missed = bool(
                record.deadline_missed
                or record.failure_kind == TIMEOUT
                or (deadline is not None and response > deadline + 1e-12)
            )
            stream.misses += missed
            stream.responses.append(response)
            self.responses.append(response)
            emit(
                None, "slo_consult",
                response_seconds=response, deadline_missed=missed,
            )

        return observe

    # ------------------------------------------------------------------
    def run_events(self, max_events: int | None = None) -> list[dict]:
        """Advance up to ``max_events`` arrival events; collect outcomes."""
        completed: list[dict] = []
        processed = 0
        while self._events and (max_events is None or processed < max_events):
            timestamp, global_index, point = heapq.heappop(self._events)
            stream = self._streams[global_index]
            if self.virtual:
                # The consultation starts when both the point has arrived
                # and the server is free; the clock never runs backwards.
                self.clock.advance_to(timestamp)
            stream.pending_arrival = timestamp
            stream.session.push(stream.values[:, point])
            stream.remaining -= 1
            processed += 1
            if stream.remaining == 0:
                completed.append(self._finish(stream))
        return completed

    def _finish(self, stream: _ShardStream) -> dict:
        """Close one fully replayed stream into a picklable outcome."""
        session = stream.session
        decision = session.decision
        if decision is None and session.n_observed:
            decision = session.finalize()
        counters = {
            name: value
            for name, value in stream.metrics.snapshot().items()
            if isinstance(value, int)
        }
        recoveries = 0
        if stream.breaker is not None:
            recoveries = sum(
                1
                for _, to_state, _, _ in stream.breaker.transitions
                if to_state == "closed"
            )
        del self._streams[stream.descriptor.global_index]
        # Streams interleave, so their push spans cannot nest under a
        # per-stream span; a ``stream_completed`` event on the enclosing
        # ``replay`` span records each stream's outcome instead.
        emit(
            None, "stream_completed",
            stream=stream.name,
            decided_at=decision.decided_at if decision else None,
            n_consultations=len(stream.responses),
        )
        return {
            "descriptor": stream.descriptor.as_dict(),
            "name": stream.name,
            "true_label": stream.true_label,
            "decision": decision,
            "responses": stream.responses,
            "n_consults": len(stream.responses),
            "misses": stream.misses,
            "n_points": stream.n_points,
            "counters": counters,
            "breaker_recoveries": recoveries,
            "completion_clock": self.clock.now(),
        }


def run_scenario(
    scenario: Scenario,
    *,
    algorithms=None,
    datasets=None,
) -> ScenarioReport:
    """Replay ``scenario`` through one in-process runtime; report its SLOs.

    ``algorithms``/``datasets`` default to the standard registries at
    the scenario's scale and seed; tests inject tiny custom registries.
    """
    wall_start = time.perf_counter()
    bundles = train_scenario_bundles(scenario, algorithms, datasets)
    runtime = ShardRuntime(scenario, bundles, 0)
    for descriptor in scenario_streams(scenario):
        runtime.open_stream(descriptor)
    # Events a session emits outside a consultation's push span (a
    # rejected, sanitized or corrupted point) land on the replay span.
    with get_tracer().span("replay", scenario=scenario.name):
        outcomes = runtime.run_events()
    outcomes.sort(key=lambda outcome: outcome["descriptor"]["global_index"])
    wall_seconds = time.perf_counter() - wall_start
    # ScenarioReport.makespan_seconds documents both drivers' definitions.
    makespan = (
        runtime.last_completion - (runtime.first_arrival or 0.0)
        if runtime.virtual
        else wall_seconds
    )
    return ScenarioReport.from_outcomes(
        scenario,
        outcomes,
        makespan_seconds=max(makespan, 0.0),
        environment=_environment(wall_seconds),
        responses=runtime.responses,  # consultation order
    )


def _environment(wall_seconds: float) -> dict:
    """Non-deterministic per-run facts, reported but never compared."""
    environment = {
        "wall_seconds": round(wall_seconds, 3),
        "python": sys.version.split()[0],
    }
    try:
        import resource

        environment["peak_rss_kb"] = int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    except (ImportError, OSError):  # pragma: no cover - non-Unix
        environment["peak_rss_kb"] = None
    return environment
