"""Every kernel op is on a registered algorithm's path.

Trains and predicts the distance-based algorithms of the default
registry (ECTS, EDSC, ECO-K) with every ``NumpyBackend`` op wrapped in a
call counter, and asserts each name in ``OPS`` is called. An op that no
registered algorithm reaches is dead code the conformance suite would
keep testing for nothing.
"""

from __future__ import annotations

import functools
from collections import Counter

from repro.core.registry import default_algorithms
from repro.data import TimeSeriesDataset
from repro.stats.backends import OPS
from repro.stats.backends.numpy_backend import NumpyBackend
from tests.conftest import make_sinusoid_dataset


def test_every_kernel_op_is_called_by_a_registered_algorithm(monkeypatch):
    calls: Counter[str] = Counter()

    def counted(op, method):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            calls[op] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for op in OPS:
        monkeypatch.setattr(
            NumpyBackend, op, counted(op, getattr(NumpyBackend, op))
        )
    registry = default_algorithms(fast=True)
    dataset = make_sinusoid_dataset(24, length=20)
    # Far from every training series: no EDSC shapelet matches, so its
    # nearest-shapelet fallback (the shapelet_match op) runs.
    shifted = TimeSeriesDataset(dataset.values + 100.0, dataset.labels)
    for name in ("ECTS", "EDSC", "ECO-K"):
        model = registry.get(name).factory()
        model.train(dataset)
        model.predict(dataset)
        model.predict(shifted)
    assert {op for op in OPS if calls[op] == 0} == set(), dict(calls)
