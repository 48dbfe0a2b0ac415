"""Scenario configs: the declarative input of the SLO harness.

A scenario file (YAML or JSON) describes one serve workload end to end —
which datasets and algorithms serve how many streams, how points arrive,
how long consultations take under the virtual clock, what the deadline
is, and which faults are injected. The harness turns that description
into a replay; adding a scenario to the committed trajectory is adding a
file, not code (``docs/slo.md`` documents the schema).

Parsing is strict: unknown keys are rejected with the full list of valid
keys, time quantities carry an explicit ``_ms`` suffix, and fault specs
are validated at load time via
:func:`~repro.serve.chaos.parse_fault_specs` — a malformed scenario
fails before anything is trained.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from ..exceptions import ConfigurationError
from ..robustness.stream import StreamCorruptor
from ..serve.chaos import parse_fault_specs
from ..serve.fallback import FALLBACK_NAMES
from ..serve.guard import GUARD_LENIENT, GUARD_POLICIES
from .arrival import ArrivalSpec

__all__ = [
    "CLOCK_MODES",
    "CLOCK_VIRTUAL",
    "CLOCK_WALL",
    "ServiceModel",
    "StreamSpec",
    "BreakerSpec",
    "CorruptionBlock",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "bundled_scenarios",
    "replicate_scenario",
]

CLOCK_VIRTUAL = "virtual"
CLOCK_WALL = "wall"

#: Clock modes a scenario can replay under.
CLOCK_MODES = (CLOCK_VIRTUAL, CLOCK_WALL)

#: Directory holding the bundled scenario files.
SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"


@dataclass(frozen=True)
class ServiceModel:
    """Deterministic per-consultation service time (virtual clock only).

    ``base_ms + per_point_ms * n_observed`` plus a seeded exponential
    jitter with mean ``jitter_ms`` — linear-in-prefix cost is the shape
    of every 1-NN-style consult in this codebase, and the exponential
    tail is what gives p99.9 something to measure.
    """

    base_ms: float = 1.0
    per_point_ms: float = 0.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        for name in ("base_ms", "per_point_ms", "jitter_ms"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"service.{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.base_ms == 0 and self.per_point_ms == 0:
            raise ConfigurationError(
                "service model needs base_ms > 0 or per_point_ms > 0 "
                "(zero-cost consultations make every SLO trivially pass)"
            )

    def sample(self, rng, n_observed: int) -> float:
        """One service duration in *seconds* for a ``n_observed`` prefix."""
        seconds = (self.base_ms + self.per_point_ms * n_observed) / 1000.0
        if self.jitter_ms > 0:
            seconds += float(rng.exponential(self.jitter_ms / 1000.0))
        return seconds


@dataclass(frozen=True)
class StreamSpec:
    """``count`` streams replaying held-out ``dataset`` instances
    through a trained ``algorithm``."""

    dataset: str
    algorithm: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(
                f"stream count must be >= 1, got {self.count}"
            )


@dataclass(frozen=True)
class BreakerSpec:
    """Circuit-breaker settings (virtual-clock cool-down)."""

    threshold: int = 3
    recovery_ms: float = 0.0
    probe_successes: int = 1


@dataclass(frozen=True)
class CorruptionBlock:
    """Push-time data corruption applied to every replayed stream.

    ``ops`` is a pipeline of ``op:severity[@where]`` specs (see
    ``docs/robustness.md``); ``seed`` defaults to the scenario seed so
    a scenario is still one self-contained deterministic description.
    Severity-0 pipelines are valid and are a bit-identical no-op — the
    degraded scenario's control case.
    """

    ops: tuple[str, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.ops:
            raise ConfigurationError(
                "corruption.ops must be a non-empty list of "
                "op:severity[@where] specs"
            )
        # Fail fast on malformed or stream-incompatible specs — the
        # constructor runs the full spec grammar + stream checks.
        StreamCorruptor(list(self.ops))

    def build(self, seed: int, noise_scale: float = 1.0) -> StreamCorruptor:
        """A fresh corruptor for one replay (corruptors record state).

        ``seed`` is the scenario seed, used when the block does not pin
        its own; ``noise_scale`` references additive noise to the
        bundle's train-time channel std.
        """
        return StreamCorruptor(
            list(self.ops),
            seed=self.seed if self.seed is not None else seed,
            noise_scale=noise_scale,
        )


@dataclass(frozen=True)
class Scenario:
    """One fully described serve workload."""

    name: str
    streams: tuple[StreamSpec, ...]
    description: str = ""
    seed: int = 0
    clock: str = CLOCK_VIRTUAL
    scale: float = 0.08
    deadline_ms: float | None = None
    check_every: int = 1
    guard: str = GUARD_LENIENT
    fallback: str | None = "majority"
    test_fraction: float = 0.3
    stagger_ms: float = 0.0
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    service: ServiceModel = field(default_factory=ServiceModel)
    breaker: BreakerSpec | None = field(default_factory=BreakerSpec)
    faults: tuple[str, ...] = ()
    corruption: CorruptionBlock | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")
        if not self.streams:
            raise ConfigurationError(
                f"scenario {self.name!r} declares no streams"
            )
        if self.clock not in CLOCK_MODES:
            raise ConfigurationError(
                f"unknown clock {self.clock!r}; expected one of "
                f"{', '.join(CLOCK_MODES)}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive or null, got {self.deadline_ms}"
            )
        if self.guard not in GUARD_POLICIES:
            raise ConfigurationError(
                f"unknown guard policy {self.guard!r}; expected one of "
                f"{', '.join(GUARD_POLICIES)}"
            )
        if self.fallback is not None and self.fallback not in FALLBACK_NAMES:
            raise ConfigurationError(
                f"unknown fallback {self.fallback!r}; expected one of "
                f"{', '.join(FALLBACK_NAMES)} or null"
            )
        if self.stagger_ms < 0:
            raise ConfigurationError(
                f"stagger_ms must be >= 0, got {self.stagger_ms}"
            )
        # Fail fast on malformed fault specs — before any training runs.
        parse_fault_specs(list(self.faults))

    # ------------------------------------------------------------------
    @property
    def deadline_seconds(self) -> float | None:
        return None if self.deadline_ms is None else self.deadline_ms / 1000.0

    @property
    def n_streams(self) -> int:
        return sum(spec.count for spec in self.streams)

    def fault_plan(self):
        """A fresh fault injector for one replay (plans record state)."""
        return parse_fault_specs(list(self.faults)) if self.faults else None

    def corruptor(self, noise_scale: float = 1.0) -> StreamCorruptor | None:
        """A fresh push-time corruptor, or ``None`` when the scenario
        declares no corruption or only severity-0 specs (the
        bit-identical control case)."""
        if self.corruption is None:
            return None
        corruptor = self.corruption.build(self.seed, noise_scale)
        return corruptor if corruptor.active else None


# ----------------------------------------------------------------------
# Strict mapping -> dataclass parsing.


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"{where} must be a mapping, got {type(value).__name__}"
        )
    return dict(value)


def _reject_unknown(leftover: Mapping, where: str, valid: tuple[str, ...]):
    if leftover:
        unknown = ", ".join(sorted(str(k) for k in leftover))
        raise ConfigurationError(
            f"unknown key(s) in {where}: {unknown}; valid keys are "
            f"{', '.join(valid)}"
        )


_ARRIVAL_KEYS = ("process", "period_ms", "burst_size", "idle_ms")
_SERVICE_KEYS = ("base_ms", "per_point_ms", "jitter_ms")
_STREAM_KEYS = ("dataset", "algorithm", "count")
_BREAKER_KEYS = ("threshold", "recovery_ms", "probe_successes")
_CORRUPTION_KEYS = ("ops", "seed")
_SCENARIO_KEYS = (
    "name",
    "description",
    "seed",
    "clock",
    "scale",
    "deadline_ms",
    "check_every",
    "guard",
    "fallback",
    "test_fraction",
    "stagger_ms",
    "arrival",
    "service",
    "streams",
    "breaker",
    "faults",
    "corruption",
)


def _parse_arrival(raw: Any, where: str) -> ArrivalSpec:
    mapping = _require_mapping(raw, where)
    spec = ArrivalSpec(
        process=str(mapping.pop("process", "uniform")),
        period_seconds=float(mapping.pop("period_ms", 1000.0)) / 1000.0,
        burst_size=int(mapping.pop("burst_size", 8)),
        idle_seconds=float(mapping.pop("idle_ms", 0.0)) / 1000.0,
    )
    _reject_unknown(mapping, where, _ARRIVAL_KEYS)
    return spec


def _parse_service(raw: Any, where: str) -> ServiceModel:
    mapping = _require_mapping(raw, where)
    model = ServiceModel(
        base_ms=float(mapping.pop("base_ms", 1.0)),
        per_point_ms=float(mapping.pop("per_point_ms", 0.0)),
        jitter_ms=float(mapping.pop("jitter_ms", 0.0)),
    )
    _reject_unknown(mapping, where, _SERVICE_KEYS)
    return model


def _parse_stream(raw: Any, where: str) -> StreamSpec:
    mapping = _require_mapping(raw, where)
    for key in ("dataset", "algorithm"):
        if key not in mapping:
            raise ConfigurationError(f"{where} is missing required {key!r}")
    spec = StreamSpec(
        dataset=str(mapping.pop("dataset")),
        algorithm=str(mapping.pop("algorithm")),
        count=int(mapping.pop("count", 1)),
    )
    _reject_unknown(mapping, where, _STREAM_KEYS)
    return spec


def _parse_corruption(raw: Any, where: str) -> CorruptionBlock | None:
    if raw is None:
        return None
    mapping = _require_mapping(raw, where)
    raw_ops = mapping.pop("ops", [])
    if not isinstance(raw_ops, (list, tuple)) or not raw_ops:
        raise ConfigurationError(
            f"{where}: ops must be a non-empty list of "
            "op:severity[@where] specs"
        )
    seed = mapping.pop("seed", None)
    block = CorruptionBlock(
        ops=tuple(str(spec) for spec in raw_ops),
        seed=None if seed is None else int(seed),
    )
    _reject_unknown(mapping, where, _CORRUPTION_KEYS)
    return block


def _parse_breaker(raw: Any, where: str) -> BreakerSpec | None:
    if raw is None:
        return None
    mapping = _require_mapping(raw, where)
    spec = BreakerSpec(
        threshold=int(mapping.pop("threshold", 3)),
        recovery_ms=float(mapping.pop("recovery_ms", 0.0)),
        probe_successes=int(mapping.pop("probe_successes", 1)),
    )
    _reject_unknown(mapping, where, _BREAKER_KEYS)
    return spec


def parse_scenario(raw: Any, source: str = "scenario") -> Scenario:
    """Build a :class:`Scenario` from a parsed mapping, strictly.

    ``source`` names the config in error messages (the file path when
    loaded from disk).
    """
    mapping = _require_mapping(raw, source)
    if "name" not in mapping:
        raise ConfigurationError(f"{source} is missing required 'name'")
    if "streams" not in mapping:
        raise ConfigurationError(f"{source} is missing required 'streams'")
    raw_streams = mapping.pop("streams")
    if not isinstance(raw_streams, (list, tuple)) or not raw_streams:
        raise ConfigurationError(
            f"{source}: streams must be a non-empty list of "
            "{dataset, algorithm, count} entries"
        )
    streams = tuple(
        _parse_stream(entry, f"{source}: streams[{i}]")
        for i, entry in enumerate(raw_streams)
    )
    raw_faults = mapping.pop("faults", [])
    if not isinstance(raw_faults, (list, tuple)):
        raise ConfigurationError(
            f"{source}: faults must be a list of stage:kind[:indices] specs"
        )
    deadline_ms = mapping.pop("deadline_ms", None)
    scenario = Scenario(
        name=str(mapping.pop("name")),
        description=str(mapping.pop("description", "")),
        seed=int(mapping.pop("seed", 0)),
        clock=str(mapping.pop("clock", CLOCK_VIRTUAL)),
        scale=float(mapping.pop("scale", 0.08)),
        deadline_ms=None if deadline_ms is None else float(deadline_ms),
        check_every=int(mapping.pop("check_every", 1)),
        guard=str(mapping.pop("guard", GUARD_LENIENT)),
        fallback=(
            None
            if (fallback := mapping.pop("fallback", "majority")) in (None, "none")
            else str(fallback)
        ),
        test_fraction=float(mapping.pop("test_fraction", 0.3)),
        stagger_ms=float(mapping.pop("stagger_ms", 0.0)),
        arrival=_parse_arrival(
            mapping.pop("arrival", {}), f"{source}: arrival"
        ),
        service=_parse_service(
            mapping.pop("service", {}), f"{source}: service"
        ),
        breaker=_parse_breaker(
            mapping.pop("breaker", {}), f"{source}: breaker"
        ),
        streams=streams,
        faults=tuple(str(spec) for spec in raw_faults),
        corruption=_parse_corruption(
            mapping.pop("corruption", None), f"{source}: corruption"
        ),
    )
    _reject_unknown(mapping, source, _SCENARIO_KEYS)
    return scenario


# ----------------------------------------------------------------------
# File loading (JSON natively; YAML when PyYAML is installed).


def load_scenario(path: str | Path) -> Scenario:
    """Load and strictly parse one scenario file (``.json``/``.yaml``)."""
    path = Path(path)
    if not path.is_file():
        known = ", ".join(sorted(bundled_scenarios())) or "(none)"
        raise ConfigurationError(
            f"scenario file not found: {path} (bundled scenarios: {known})"
        )
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise ConfigurationError(
                f"{path} is YAML but PyYAML is not installed; install "
                "pyyaml or convert the scenario to JSON"
            ) from None
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise ConfigurationError(
                f"{path} is not valid YAML: {error}"
            ) from error
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{path} is not valid JSON: {error}"
            ) from error
    return parse_scenario(raw, source=str(path))


def bundled_scenarios() -> dict[str, Path]:
    """Name -> path of the scenario files shipped with the package."""
    if not SCENARIO_DIR.is_dir():  # pragma: no cover - packaging error
        return {}
    return {
        candidate.stem: candidate
        for candidate in sorted(SCENARIO_DIR.iterdir())
        if candidate.suffix.lower() in (".json", ".yaml", ".yml")
    }


def resolve_scenario(name_or_path: str | Path) -> Scenario:
    """Load a scenario by bundled name or by file path."""
    bundled = bundled_scenarios()
    key = str(name_or_path)
    if key in bundled:
        return load_scenario(bundled[key])
    return load_scenario(name_or_path)


def replicate_scenario(scenario: Scenario, factor: int) -> Scenario:
    """Scale a scenario's stream mix by ``factor`` (validated copy)."""
    if factor < 1:
        raise ConfigurationError(
            f"--replicate must be >= 1, got {factor}"
        )
    if factor == 1:
        return scenario
    return replace(
        scenario,
        streams=tuple(
            replace(spec, count=spec.count * factor)
            for spec in scenario.streams
        ),
    )
