"""Shard worker: one forked process serving one :class:`ShardRuntime`.

The runtime itself — sessions, seeds, corruptors, observers and the
arrival-event loop — lives in :mod:`repro.slo.harness`, where
:func:`repro.slo.harness.run_scenario` drives the same code in-process;
a one-shard fleet therefore replays a scenario stream-for-stream
identically to the single-server harness. This module holds only what
a forked worker adds: fork-inherited state and the entry point that
serves the coordinator protocol (see :mod:`repro.core.pool`):

* ``tick`` — admit the stream descriptors riding along (three small
  integers each; the trained bundles arrive by fork inheritance, never
  through the pipe), advance up to ``max_events`` arrival events, and
  reply with the **completed** streams' outcomes. A stream's records
  leave the shard only together with its final decision, so a SIGKILL
  mid-tick loses no committed work: the coordinator replays the whole
  stream on a healthy shard.
* ``stop`` / ``hang`` — handled by the generic request/reply loop.

Workers serve under the null tracer: an inherited file-writing tracer
would interleave the worker's push spans, with their own span-id
sequence, into the parent's trace file. A forked fleet's trace carries
the coordinator's spans only.
"""

from __future__ import annotations

from ..core.pool import request_reply_loop
from ..obs.trace import NULL_TRACER, use_tracer
from ..slo.harness import ShardRuntime
from ..slo.scenario import Scenario

__all__ = ["shard_main", "set_shard_state"]

#: Fork-inherited worker state: set in the parent before spawning so the
#: trained bundles travel by copy-on-write (the runner's idiom).
_SHARD_STATE: dict = {}


def set_shard_state(scenario: Scenario, bundles: dict) -> None:
    """Park the scenario and trained bundles for fork inheritance."""
    _SHARD_STATE["scenario"] = scenario
    _SHARD_STATE["bundles"] = bundles


def shard_main(conn, index: int) -> None:
    """Worker entry point: serve the coordinator until told to stop."""
    runtime = ShardRuntime(
        _SHARD_STATE["scenario"], _SHARD_STATE["bundles"], index
    )
    with use_tracer(NULL_TRACER):
        request_reply_loop(conn, runtime.handle, worker=index)
