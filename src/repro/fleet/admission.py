"""Bounded admission queue with explicit load-shedding outcomes.

The fleet front-end admits every requested stream through one bounded
queue before any shard sees it. When the queue is full, the configured
policy decides — explicitly, never silently — which stream pays:

* ``reject-new`` — the offered stream is turned away (shed);
* ``shed-oldest`` — the oldest *waiting* stream is evicted to make room
  (the evictee is shed, the newcomer admitted);
* ``degrade`` — the offered stream never reaches a shard but is not
  dropped either: the coordinator answers it from the batched fallback.

The queue itself only decides placement; what "shed" and "degrade" do
to a stream is the coordinator's business. Failover re-admissions enter
at the *front* (they already waited once) and, when even that is
impossible, are always degraded rather than shed — a stream that was
admitted is never silently lost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from .config import SHED_DEGRADE, SHED_OLDEST, SHED_POLICIES, SHED_REJECT_NEW
from ..exceptions import ConfigurationError

__all__ = ["AdmissionDecision", "AdmissionQueue"]

#: What ``offer`` did with the stream.
ADMITTED = "admitted"
SHED = "shed"
DEGRADED = "degraded"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one :meth:`AdmissionQueue.offer`.

    ``outcome`` applies to the *offered* item; ``displaced`` carries the
    previously waiting item the ``shed-oldest`` policy evicted (always
    shed), ``None`` otherwise.
    """

    outcome: str
    displaced: Any = None


class AdmissionQueue:
    """FIFO backlog of streams waiting for a shard slot, bounded."""

    def __init__(self, capacity: int, policy: str) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"admission capacity must be >= 1, got {capacity}"
            )
        if policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"unknown shed policy {policy!r}; expected one of "
                f"{', '.join(SHED_POLICIES)}"
            )
        self.capacity = capacity
        self.policy = policy
        self._queue: deque = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    def offer(self, item: Any) -> AdmissionDecision:
        """Apply the shedding policy to one newly requested stream."""
        if len(self._queue) < self.capacity:
            self._queue.append(item)
            return AdmissionDecision(ADMITTED)
        if self.policy == SHED_REJECT_NEW:
            return AdmissionDecision(SHED)
        if self.policy == SHED_OLDEST:
            displaced = self._queue.popleft()
            self._queue.append(item)
            return AdmissionDecision(ADMITTED, displaced=displaced)
        # SHED_DEGRADE: the stream is answered by the batched fallback.
        return AdmissionDecision(DEGRADED)

    def readmit(self, item: Any) -> AdmissionDecision:
        """Front-of-queue re-admission after a shard failover.

        Overflow here always degrades (never sheds): the stream was
        already admitted once, so losing its shard must not silently
        revoke that admission.
        """
        if len(self._queue) < self.capacity:
            self._queue.appendleft(item)
            return AdmissionDecision(ADMITTED)
        return AdmissionDecision(DEGRADED)

    def take(self, n: int) -> list[Any]:
        """Pop up to ``n`` items from the front, in admission order."""
        taken = []
        while self._queue and len(taken) < n:
            taken.append(self._queue.popleft())
        return taken
