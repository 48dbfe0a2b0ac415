"""Admission queue semantics: bounded backlog, explicit shedding."""

import pytest

from repro.exceptions import ConfigurationError
from repro.fleet import AdmissionQueue, SHED_DEGRADE, SHED_OLDEST, SHED_REJECT_NEW
from repro.fleet.admission import ADMITTED, DEGRADED, SHED, AdmissionDecision


class TestValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(0, SHED_REJECT_NEW)

    def test_policy_must_be_known(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(4, "drop-everything")


class TestRejectNew:
    def test_overflow_sheds_the_newcomer(self):
        queue = AdmissionQueue(2, SHED_REJECT_NEW)
        decisions = [queue.offer(item) for item in "abc"]
        assert decisions == [
            AdmissionDecision(ADMITTED),
            AdmissionDecision(ADMITTED),
            AdmissionDecision(SHED),
        ]
        # The waiting streams are untouched, in FIFO order.
        assert len(queue) == 2
        assert queue.take(10) == ["a", "b"]


class TestShedOldest:
    def test_overflow_evicts_the_oldest_waiter(self):
        queue = AdmissionQueue(2, SHED_OLDEST)
        decisions = [queue.offer(item) for item in "abc"]
        # The newcomer is admitted; the oldest waiter pays.
        assert decisions == [
            AdmissionDecision(ADMITTED),
            AdmissionDecision(ADMITTED),
            AdmissionDecision(ADMITTED, displaced="a"),
        ]
        assert len(queue) == 2
        assert queue.take(10) == ["b", "c"]


class TestDegrade:
    def test_overflow_degrades_the_newcomer(self):
        queue = AdmissionQueue(1, SHED_DEGRADE)
        decisions = [queue.offer(item) for item in "ab"]
        assert decisions == [
            AdmissionDecision(ADMITTED),
            AdmissionDecision(DEGRADED),
        ]
        assert len(queue) == 1
        assert queue.take(10) == ["a"]


class TestReadmission:
    def test_readmit_enters_at_the_front(self):
        queue = AdmissionQueue(4, SHED_REJECT_NEW)
        queue.offer("a")
        queue.offer("b")
        assert queue.readmit("victim").outcome == ADMITTED
        assert queue.take(10) == ["victim", "a", "b"]

    def test_readmit_overflow_always_degrades_never_sheds(self):
        # A stream that was already admitted must not be silently
        # revoked: even under reject-new, failover overflow degrades.
        queue = AdmissionQueue(1, SHED_REJECT_NEW)
        assert queue.offer("a") == AdmissionDecision(ADMITTED)
        assert queue.readmit("victim") == AdmissionDecision(DEGRADED)
        # Nothing waiting was evicted and the victim was not queued.
        assert queue.take(10) == ["a"]


class TestTake:
    def test_take_pops_in_admission_order_bounded(self):
        queue = AdmissionQueue(8, SHED_REJECT_NEW)
        for item in "abcd":
            queue.offer(item)
        assert queue.take(2) == ["a", "b"]
        assert len(queue) == 2
        assert queue.take(5) == ["c", "d"]
        assert queue.is_empty
        assert queue.take(3) == []
