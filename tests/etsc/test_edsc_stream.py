"""EDSC's serving stream must answer exactly as the stateless path.

:meth:`EDSC.open_stream` keeps, per shapelet, the minimum window distance
and the earliest match end seen so far, and scores only the windows that
end in newly observed points. Every consult must equal the default
:class:`~repro.core.base.ClassifierStream` (a full ``predict_one`` on the
prefix), and the running minima must be bitwise the best-match distances
of the whole prefix — for any extension steps, for shapelets longer than
the prefix, for a model without shapelets, and after a consult cut short.
"""

from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StreamingSession
from repro.core.base import ClassifierStream
from repro.data import TimeSeriesDataset
from repro.etsc import EDSC
from repro.etsc import edsc as edsc_module
from repro.stats.distance import best_match_distances

LENGTH = 24


def _motif_dataset(n=30, seed=0):
    """Class 1 carries a sharp motif early; class 0 is smooth noise."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    rng.shuffle(labels)
    values = rng.normal(0.0, 0.2, size=(n, LENGTH))
    motif = np.asarray([0.0, 4.0, -4.0, 4.0, 0.0])
    for i in np.flatnonzero(labels == 1):
        start = rng.integers(2, 8)
        values[i, start : start + 5] += motif
    return TimeSeriesDataset(values, labels)


#: Models: short and long shapelets; only long ones (longer than the
#: early prefixes); none at all (no threshold survives k=1000).
_CONFIGS = (
    dict(n_lengths=2, min_length=4),
    dict(n_lengths=2, min_length=10, max_length=16),
    dict(k=1000.0),
)


@cache
def _model(index: int) -> EDSC:
    return EDSC(**_CONFIGS[index]).train(_motif_dataset())


@cache
def _test_rows() -> np.ndarray:
    return _motif_dataset(n=12, seed=1).values[:, 0, :]


def _series(row, scale, shift, nan_at):
    values = _test_rows()[row] * scale + shift
    if nan_at is not None:
        values = values.copy()
        values[nan_at] = np.nan
    return values[None, :]


def _extensions(steps):
    """Prefix lengths reached by extending 1, 2, ... points at a time."""
    ends, t = [], 0
    for step in steps:
        t = min(LENGTH, t + step)
        ends.append(t)
        if t == LENGTH:
            break
    if ends[-1] != LENGTH:
        ends.append(LENGTH)
    return ends


def _full_prefix_minima(model, row):
    t = row.size
    return np.asarray(
        [
            best_match_distances(s.pattern, row[None, :])[0]
            if s.length <= t
            else np.inf
            for s in model.shapelets_
        ]
    )


def _assert_equivalent(model, series, ends):
    stream = model.open_stream()
    default = ClassifierStream(model)
    for t in ends:
        prefix = series[:, :t]
        assert stream.consult(prefix) == default.consult(prefix), f"t={t}"
        np.testing.assert_array_equal(
            stream._minima, _full_prefix_minima(model, prefix[0])
        )


_case = dict(
    model_index=st.integers(0, len(_CONFIGS) - 1),
    row=st.integers(0, 11),
    scale=st.sampled_from([1.0, 3.0]),
    shift=st.sampled_from([0.0, 0.05, 2.0]),
    nan_at=st.one_of(st.none(), st.integers(0, LENGTH - 1)),
    steps=st.lists(st.integers(1, 4), min_size=1, max_size=LENGTH),
)


def _check(model_index, row, scale, shift, nan_at, steps):
    _assert_equivalent(
        _model(model_index),
        _series(row, scale, shift, nan_at),
        _extensions(steps),
    )


class TestEDSCStream:
    def test_models_cover_matches_fallbacks_and_no_shapelets(self):
        assert {s.length for s in _model(0).shapelets_} == {4, 12}
        assert min(s.length for s in _model(1).shapelets_) >= 10
        assert _model(2).shapelets_ == []
        # Amplified rows: some match a shapelet, the rest fall back to
        # the ratio rule at the full length.
        amplified = TimeSeriesDataset(
            _series(slice(None), 3.0, 0.0, None)[0], np.zeros(12, dtype=int)
        )
        fired = [
            p.prefix_length < LENGTH for p in _model(0).predict(amplified)
        ]
        assert any(fired) and not all(fired)

    @settings(max_examples=150, deadline=None)
    @given(**_case)
    def test_every_consult_matches_the_default_stream(self, **case):
        _check(**case)

    @pytest.mark.slow
    @pytest.mark.conformance
    @settings(max_examples=3000, deadline=None)
    @given(**_case)
    def test_every_consult_matches_the_default_stream_deep(self, **case):
        _check(**case)

    @settings(max_examples=60, deadline=None)
    @given(
        model_index=st.integers(0, 1),
        row=st.integers(0, 11),
        steps=st.lists(st.integers(1, 4), min_size=1, max_size=LENGTH),
        fail_at=st.integers(1, 40),
    )
    def test_consult_cut_short_then_continued_or_reopened(
        self, model_index, row, steps, fail_at
    ):
        # A consult interrupted between two shapelets leaves some of them
        # scored; the same stream and a reopened one must both go on to
        # answer as the default stream does.
        model = _model(model_index)
        series = _series(row, 3.0, 0.05, None)
        ends = _extensions(steps)
        kernel = edsc_module.sliding_window_distances
        calls = 0

        def flaky(pattern, matrix):
            nonlocal calls
            calls += 1
            if calls == fail_at:
                raise TimeoutError("consult cut short")
            return kernel(pattern, matrix)

        stream = model.open_stream()
        default = ClassifierStream(model)
        interrupted = None
        with mock.patch.object(edsc_module, "sliding_window_distances", flaky):
            for t in ends:
                try:
                    stream.consult(series[:, :t])
                except TimeoutError:
                    interrupted = t
                    break
        if interrupted is None:
            return
        reopened = model.open_stream()
        for t in ends[ends.index(interrupted):]:
            expected = default.consult(series[:, :t])
            assert stream.consult(series[:, :t]) == expected, f"t={t}"
            assert reopened.consult(series[:, :t]) == expected, f"t={t}"

    def test_repeated_prefix_scores_nothing_new(self):
        # A finalize after the last push consults the same prefix again.
        model = _model(0)
        series = _series(3, 1.0, 0.0, None)
        stream = model.open_stream()
        first = stream.consult(series[:, :10])
        with mock.patch.object(
            edsc_module, "sliding_window_distances",
            side_effect=AssertionError("rescored"),
        ):
            assert stream.consult(series[:, :10]) == first

    def test_sessions_decide_as_on_the_default_stream(self):
        model = _model(0)
        for row in _test_rows():
            stateful = StreamingSession(model, LENGTH)
            stateless = StreamingSession(model, LENGTH)
            stateless._stream = ClassifierStream(model)
            assert stateful.run(row[None, :]) == stateless.run(row[None, :])
