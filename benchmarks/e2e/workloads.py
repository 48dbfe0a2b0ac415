"""The four workloads of the end-to-end benchmark.

Each workload is set up from a seed (data generation and, for serving,
training), then runs *passes* of fixed work until the measurement window
closes. All run in one process, serially, with one client that issues
each call after the previous one returns (a closed loop):

* ``grid-*``: one pass is one cross-validated grid run through
  :class:`repro.core.runner.BenchmarkRunner` (scale 0.05, 2 folds,
  ``workers=1``) — the paper's evaluation loop behind Figures 9-12.
* ``serve-*``: one pass serves the next 8 streams of a seeded pool through
  each trained model, the 8 sensors interleaved round-robin on the shared
  model, each through a :class:`repro.serve.GuardedStreamingSession`
  (lenient guard, majority fallback, circuit breaker, 1 s deadline) —
  the online setting of Figure 13.

A pass reports its wall time, the latency of each unit of work a caller
waits on (one cross-validation fold of a grid cell, train plus predict;
one model consult in serving) and the discrete decisions it made, from
which the benchmark derives digests that must not change between passes,
runs or commits.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

#: Grid settings: the benches' default scale and fold count.
GRID_SCALE = 0.05
GRID_FOLDS = 2
#: Serving: the deployed models are trained on one fixed PowerCons split
#: (18 series); ``--seed`` draws the traffic. Training on a seeded split
#: would measure a different deployment per seed: EDSC's learned shapelets
#: alone move its consult cost between 140 and 460 us across seeds.
SERVE_DATASET = "PowerCons"
SERVE_TRAIN_SCALE = 0.05
SERVE_TRAIN_SEED = 0
#: Sensors interleaved round-robin on one model.
SENSORS = 8
DEADLINE_SECONDS = 1.0
#: Passes whose serving decisions make up a serve workload's digest.
DIGEST_PASSES = 4


@dataclass(frozen=True)
class GridSpec:
    algorithms: tuple[str, ...]
    dataset: str


@dataclass(frozen=True)
class ServeSpec:
    algorithms: tuple[str, ...]
    pool_scale: float


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, GridSpec | ServeSpec] = {
    "grid-weasel": GridSpec(
        ("S-WEASEL", "TEASER", "ECEC"), "DodgerLoopWeekend"
    ),
    "grid-nonweasel": GridSpec(
        ("ECTS", "EDSC", "ECO-K", "S-MINI", "S-MLSTM"), "Maritime"
    ),
    # Pools: PowerCons at scale 6 (2,160 streams) and 1 (360 streams).
    "serve-weasel": ServeSpec(("TEASER", "ECEC"), pool_scale=6.0),
    "serve-distance": ServeSpec(("ECTS", "EDSC"), pool_scale=1.0),
}


@dataclass
class PassResult:
    """What one pass did."""

    seconds: float
    #: Latency of each unit of work, in milliseconds.
    latencies_ms: list[float]
    #: ``{key: decisions}``; decisions are JSON-serialisable lists.
    decisions: dict[str, list]
    attempted: int
    failed: int
    #: Mean accuracy and earliness of the pass's decisions.
    accuracy: float
    earliness: float
    consults: int = 0


def digest(decisions: list) -> str:
    """Short stable hash of a list of discrete decisions."""
    payload = json.dumps(decisions, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def quality(passes: list[PassResult]) -> dict[str, float]:
    """Accuracy, earliness and their harmonic mean (Section 2.2)."""
    from repro.stats.metrics import harmonic_mean

    accuracy = float(np.mean([result.accuracy for result in passes]))
    earliness = float(np.mean([result.earliness for result in passes]))
    return {
        "accuracy": accuracy,
        "earliness": earliness,
        "harmonic_mean": float(harmonic_mean(accuracy, earliness)),
    }


class GridWorkload:
    """Cross-validated grid passes through ``BenchmarkRunner``."""

    def __init__(
        self, spec: GridSpec, seed: int, smoke: bool = False
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.algorithms = spec.algorithms[:1] if smoke else spec.algorithms
        #: Passes the digests need.
        self.min_passes = 1
        self._recorded: dict[str, list] = {}

    def setup(self) -> None:
        from repro.core.registry import (
            AlgorithmRegistry,
            DatasetRegistry,
            default_algorithms,
            default_datasets,
        )

        dataset = default_datasets(scale=GRID_SCALE, seed=self.seed).load(
            self.spec.dataset
        )
        self.dataset = dataset
        self.datasets = DatasetRegistry()
        self.datasets.register(self.spec.dataset, lambda: dataset)
        defaults = default_algorithms()
        self.registry = AlgorithmRegistry()
        for name in self.algorithms:
            info = defaults.get(name)
            self.registry.register(
                name,
                self._recording(name, info.factory),
                category=info.category,
                supports_multivariate=info.supports_multivariate,
            )

    def _recording(self, name: str, factory):
        """A factory whose classifiers record what ``predict`` returns.

        The runner keeps only fold scores; recording on the benchmark's own
        instances yields the per-instance decisions without touching a
        class. Under the voting ensemble each per-variable member records.
        """

        def build():
            classifier = factory()
            predict = classifier.predict

            def recorded(dataset):
                predictions = predict(dataset)
                self._recorded.setdefault(name, []).append(
                    [
                        [int(p.label), int(p.prefix_length)]
                        for p in predictions
                    ]
                )
                return predictions

            classifier.predict = recorded
            return classifier

        return build

    def run_pass(self, index: int) -> PassResult:
        from repro.core.runner import BenchmarkRunner

        self._recorded = {}
        runner = BenchmarkRunner(
            self.registry, self.datasets, n_folds=GRID_FOLDS, seed=self.seed
        )
        start = time.perf_counter()
        report = runner.run()
        seconds = time.perf_counter() - start
        latencies = [
            (fold.train_seconds + fold.test_seconds) * 1e3
            for result in report.results.values()
            for fold in result.folds
        ]
        decisions = {
            f"{name}/{self.spec.dataset}": self._recorded.get(name, [])
            for name in self.algorithms
        }
        results = report.results.values()
        return PassResult(
            seconds=seconds,
            latencies_ms=latencies,
            decisions=decisions,
            attempted=len(self.algorithms),
            failed=len(report.failures),
            accuracy=float(np.mean([r.accuracy for r in results] or [0.0])),
            earliness=float(np.mean([r.earliness for r in results] or [1.0])),
        )

    def digests(self, passes: list[PassResult]) -> dict[str, str]:
        """One digest per cell of the first pass's decisions."""
        first = passes[0].decisions
        return {key: digest(calls) for key, calls in first.items()}

    def check(self, passes: list[PassResult]) -> list[str]:
        """Problems with the grid's outputs (empty when correct).

        Every pass, traced or not, must decide exactly as the first did.
        """
        problems = [
            f"{key}: pass {index} decided differently from pass 0"
            for index, result in enumerate(passes[1:], start=1)
            for key, calls in result.decisions.items()
            if calls != passes[0].decisions[key]
        ]
        classes = set(int(label) for label in np.unique(self.dataset.labels))
        length = self.dataset.length
        for key, calls in passes[0].decisions.items():
            if not calls:
                problems.append(f"{key}: no predictions recorded")
            for call in calls:
                for label, prefix in call:
                    if label not in classes or not 1 <= prefix <= length:
                        problems.append(
                            f"{key}: invalid decision {label} at "
                            f"{prefix}/{length}"
                        )
                        break
        return problems


class ServeWorkload:
    """Interleaved guarded streaming sessions on trained models."""

    def __init__(
        self, spec: ServeSpec, seed: int, smoke: bool = False
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.algorithms = spec.algorithms[:1] if smoke else spec.algorithms
        self.min_passes = 2 if smoke else DIGEST_PASSES

    def setup(self) -> None:
        from repro.core.registry import default_algorithms
        from repro.datasets import ucr
        from repro.serve.fallback import make_fallback
        from repro.serve.guard import GuardStats

        train = ucr.generate(
            SERVE_DATASET, scale=SERVE_TRAIN_SCALE, seed=SERVE_TRAIN_SEED
        )
        self.pool = ucr.generate(
            SERVE_DATASET, scale=self.spec.pool_scale, seed=self.seed + 1000
        )
        defaults = default_algorithms()
        self.models = {}
        for name in self.algorithms:
            model = defaults.get(name).factory()
            model.train(train)
            self.models[name] = model
        self.guard_stats = GuardStats.from_dataset(train)
        self.fallback = make_fallback("majority").fit(train)

    def _session(self, name: str, stream: int):
        from repro.serve.breaker import CircuitBreaker
        from repro.serve.guard import GUARD_LENIENT, InputGuard
        from repro.serve.session import GuardedStreamingSession

        return GuardedStreamingSession(
            self.models[name],
            self.pool.length,
            guard=InputGuard(self.guard_stats, policy=GUARD_LENIENT),
            fallback=self.fallback,
            deadline_seconds=DEADLINE_SECONDS,
            breaker=CircuitBreaker(),
            stream_name=f"stream-{stream}",
            algorithm_name=name,
        )

    def streams(self, index: int) -> list[int]:
        """Pool rows served by pass ``index`` (the pool wraps around)."""
        n = self.pool.n_instances
        return [(index * SENSORS + k) % n for k in range(SENSORS)]

    def run_pass(self, index: int) -> PassResult:
        streams = self.streams(index)
        values = self.pool.values
        latencies: list[float] = []
        decisions: dict[str, list] = {}
        correct: list[bool] = []
        earliness: list[float] = []
        failed = 0
        clock = time.perf_counter
        start = clock()
        for name in self.models:
            sessions = [self._session(name, row) for row in streams]
            for t in range(self.pool.length):
                undecided = 0
                for session, row in zip(sessions, streams):
                    if session.is_decided:
                        continue
                    begin = clock()
                    session.push(values[row, :, t])
                    latencies.append((clock() - begin) * 1e3)
                    undecided += not session.is_decided
                if not undecided:
                    break
            made = []
            for session, row in zip(sessions, streams):
                decision = session.decision
                if decision is None or decision.degraded:
                    failed += 1
                    made.append([row, None])
                    continue
                made.append([row, int(decision.label), decision.decided_at])
                correct.append(decision.label == self.pool.labels[row])
                earliness.append(decision.decided_at / self.pool.length)
            decisions[name] = made
        seconds = clock() - start
        return PassResult(
            seconds=seconds,
            latencies_ms=latencies,
            decisions=decisions,
            attempted=len(streams) * len(self.models),
            failed=failed,
            accuracy=float(np.mean(correct or [0.0])),
            earliness=float(np.mean(earliness or [1.0])),
            consults=len(latencies),
        )

    def digests(self, passes: list[PassResult]) -> dict[str, str]:
        """One digest per model of the first ``min_passes`` passes."""
        merged: dict[str, list] = {}
        for result in passes[: self.min_passes]:
            for name, made in result.decisions.items():
                merged.setdefault(name, []).extend(made)
        return {name: digest(made) for name, made in merged.items()}

    def check(self, passes: list[PassResult]) -> list[str]:
        """Problems with the served decisions (empty when correct).

        A stream served twice (the pool wrapped) must get the same
        decision. The first pass's streams are served again, one at a
        time, through a plain :class:`repro.core.streaming.StreamingSession`
        — no guard, no interleaving, so each model's single-stream caches
        are used — and must reach the same decisions.
        """
        from repro.core.streaming import StreamingSession

        problems = []
        first: dict[tuple[str, int], list] = {}
        for result in passes:
            for name, made in result.decisions.items():
                for decision in made:
                    key = (name, decision[0])
                    if first.setdefault(key, decision) != decision:
                        problems.append(
                            f"{name} stream {decision[0]}: {decision} on "
                            f"re-serve, {first[key]} before"
                        )
        for name, made in passes[0].decisions.items():
            for row, *decided in made:
                session = StreamingSession(self.models[name], self.pool.length)
                plain = session.run(self.pool.values[row])
                if decided != [int(plain.label), plain.decided_at]:
                    problems.append(
                        f"{name} stream {row}: interleaved guarded session "
                        f"decided {decided}, a plain session "
                        f"{[int(plain.label), plain.decided_at]}"
                    )
        return problems


def make_workload(name: str, seed: int, smoke: bool = False):
    spec = WORKLOADS[name]
    if isinstance(spec, GridSpec):
        return GridWorkload(spec, seed, smoke)
    return ServeWorkload(spec, seed, smoke)

