"""Chaos harness: deterministic fault injection for the serving layer.

PR 2's :class:`~repro.core.resilience.FaultPlan` injects failures into
the offline evaluation grid at (stage, algorithm, dataset, attempt)
granularity. The serving layer reuses the exact same machinery at
*stream* granularity: the stage is ``push`` (corrupt the point at
ingestion) or ``consult`` (fail the classifier consultation), the
``dataset`` slot carries the stream name, and the ``attempt`` slot
carries the 1-based push index. Timeouts are injected by *raising*
:class:`~repro.core.timeouts.EvaluationTimeout` — the whole failure
surface (deadline misses, crashing classifiers, breaker trips and
recoveries) is exercised with zero real delays.

Every injection is recorded in ``plan.injected`` (inherited), so tests
assert the exact failure schedule that ran.
"""

from __future__ import annotations

from typing import Callable

from ..core.resilience import Fault, FaultPlan
from ..core.timeouts import EvaluationTimeout
from ..exceptions import ConfigurationError, DataError, TransientError

__all__ = [
    "STAGE_PUSH",
    "STAGE_CONSULT",
    "ServeFaultPlan",
    "parse_fault_specs",
]

#: Serving-layer stages a fault hook is consulted at.
STAGE_PUSH = "push"
STAGE_CONSULT = "consult"


def _timeout() -> BaseException:
    return EvaluationTimeout("injected consultation timeout")


def _corrupt() -> BaseException:
    return DataError("injected corrupt push")


class ServeFaultPlan(FaultPlan):
    """A :class:`FaultPlan` with streaming-granularity helpers.

    ``at`` is a tuple of 1-based push indices that fail (``None`` =
    every push); ``stream`` matches the session's stream name (``"*"``
    matches any stream — the default, since a replay opens one session
    per instance).
    """

    def corrupt_push(
        self,
        at: tuple[int, ...] | None = (1,),
        stream: str = "*",
        exception: Callable[[], BaseException] = _corrupt,
    ) -> "ServeFaultPlan":
        """Corrupt the point arriving at the given push indices.

        The guarded session treats the raised error as an unusable
        observation: the point is dropped and counted as rejected.
        """
        self.faults.append(
            Fault(
                dataset=stream,
                algorithm="*",
                exception=exception,
                attempts=None if at is None else frozenset(at),
                stage=STAGE_PUSH,
            )
        )
        return self

    def fail_consult(
        self,
        at: tuple[int, ...] | None = (1,),
        stream: str = "*",
        exception: Callable[[], BaseException] = TransientError,
    ) -> "ServeFaultPlan":
        """Make the classifier consultation raise at the given pushes."""
        self.faults.append(
            Fault(
                dataset=stream,
                algorithm="*",
                exception=exception,
                attempts=None if at is None else frozenset(at),
                stage=STAGE_CONSULT,
            )
        )
        return self

    def timeout_consult(
        self,
        at: tuple[int, ...] | None = (1,),
        stream: str = "*",
    ) -> "ServeFaultPlan":
        """Make the consultation miss its deadline at the given pushes.

        Injected as a raised ``EvaluationTimeout`` — no real time passes.
        """
        return self.fail_consult(at=at, stream=stream, exception=_timeout)


def parse_fault_specs(specs: list[str]) -> ServeFaultPlan:
    """Build a :class:`ServeFaultPlan` from CLI fault specs.

    Each spec is ``stage:kind[:indices]`` where stage is ``push`` or
    ``consult``, kind is ``timeout`` / ``error`` / ``corrupt``, and
    indices is a comma-separated list of 1-based push indices (omitted =
    every push). Examples::

        consult:timeout:3,7     # consultations 3 and 7 miss the deadline
        consult:error:5         # consultation 5 raises
        push:corrupt:2          # point 2 arrives unusable
    """
    plan = ServeFaultPlan()
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"bad fault spec {spec!r}; expected stage:kind[:indices]"
            )
        stage, kind = parts[0], parts[1]
        at: tuple[int, ...] | None = None
        if len(parts) == 3 and parts[2]:
            try:
                at = tuple(int(i) for i in parts[2].split(","))
            except ValueError:
                raise ConfigurationError(
                    f"bad fault indices in {spec!r}; expected integers"
                ) from None
            if any(i < 1 for i in at):
                raise ConfigurationError(
                    f"fault indices are 1-based, got {at} in {spec!r}"
                )
        if stage == STAGE_PUSH:
            if kind != "corrupt":
                raise ConfigurationError(
                    f"push faults support kind 'corrupt', got {kind!r}"
                )
            plan.corrupt_push(at=at)
        elif stage == STAGE_CONSULT:
            if kind == "timeout":
                plan.timeout_consult(at=at)
            elif kind == "error":
                plan.fail_consult(at=at)
            else:
                raise ConfigurationError(
                    f"consult faults support kinds 'timeout'/'error', "
                    f"got {kind!r}"
                )
        else:
            raise ConfigurationError(
                f"unknown fault stage {stage!r}; expected "
                f"{STAGE_PUSH!r} or {STAGE_CONSULT!r}"
            )
    return plan
