"""Per-stream consult state must be invisible to callers.

ECTS and TEASER open streams that keep work across a growing prefix, so
that consulting them point by point (as ``StreamingSession`` and the
serving layer do) does not recompute work for time-points already seen.
The contract: every stream consult returns exactly what the stateless
``predict_one`` returns for the same prefix, and streams opened on one
shared model never see each other's state.
"""

from collections import Counter

import pytest

from repro.core import StreamingSession
from repro.etsc import ECTS, TEASER
from repro.serve.fallback import PrefixNearestNeighborFallback
from repro.stats.distance import PrefixDistanceCache
from repro.tsc.weasel import WEASEL
from tests.conftest import make_sinusoid_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_sinusoid_dataset(n_instances=24, length=20, seed=3)


def _assert_stream_matches_uncached(classifier, row):
    stream = classifier.open_stream()
    for t in range(1, row.shape[1] + 1):
        streamed = stream.consult(row[:, :t])
        assert streamed == classifier.predict_one(row[:, :t]), f"t={t}"


def _assert_interleaved_match_uncached(classifier, rows, length):
    streams = [classifier.open_stream() for _ in rows]
    for t in range(1, length + 1):
        for stream, row in zip(streams, rows):
            assert stream.consult(row[:, :t]) == classifier.predict_one(
                row[:, :t]
            ), f"t={t}"


class TestECTSStreaming:
    @pytest.fixture(scope="class")
    def trained(self, dataset):
        return ECTS(support=0.0).train(dataset)

    def test_growing_prefix_matches_uncached(self, trained, dataset):
        for row in dataset.values[:4]:
            _assert_stream_matches_uncached(trained, row)

    def test_interleaved_streams_reset_cleanly(self, trained, dataset):
        # Alternate two streams on one model: each keeps its own state,
        # and both still equal the stateless path.
        _assert_interleaved_match_uncached(
            trained, dataset.values[:2], dataset.length
        )

    def test_matches_batch_predict_at_full_length(self, trained, dataset):
        batch = trained.predict(dataset)
        for row, expected in zip(dataset.values, batch):
            stream = trained.open_stream()
            streamed = None
            for t in range(1, dataset.length + 1):
                streamed = stream.consult(row[:, :t])
                if streamed.prefix_length <= t and t >= expected.prefix_length:
                    break
            assert streamed.label == expected.label
            assert streamed.prefix_length == expected.prefix_length

    def test_multi_point_extensions_match_uncached(self, trained, dataset):
        # A session consulting every few points hands the stream several
        # new points at once.
        row = dataset.values[5]
        stream = trained.open_stream()
        for t in (3, 4, 9, 15, 20):
            assert stream.consult(row[:, :t]) == trained.predict_one(
                row[:, :t]
            )


class TestTEASERStreaming:
    @pytest.fixture(scope="class")
    def trained(self, dataset):
        return TEASER(n_prefixes=5, seed=0).train(dataset)

    def test_growing_prefix_matches_uncached(self, trained, dataset):
        for row in dataset.values[:4]:
            _assert_stream_matches_uncached(trained, row)

    def test_short_prefix_before_first_rung_delegates(self, trained, dataset):
        # Prefixes shorter than the first rung are uncacheable (the
        # forced rung keeps seeing the growing prefix) — the stream must
        # still agree with the stateless path.
        row = dataset.values[2]
        first_rung = int(trained._ladder[0])
        stream = trained.open_stream()
        for t in range(1, first_rung + 1):
            assert stream.consult(row[:, :t]) == trained.predict_one(
                row[:, :t]
            )

    def test_interleaved_streams_reset_cleanly(self, trained, dataset):
        _assert_interleaved_match_uncached(
            trained, dataset.values[[0, 3]], dataset.length
        )

    def test_multi_point_extensions_match_uncached(self, trained, dataset):
        row = dataset.values[7]
        stream = trained.open_stream()
        for t in (2, 8, 9, 17, 20):
            assert stream.consult(row[:, :t]) == trained.predict_one(
                row[:, :t]
            )


class TestFallbackStreaming:
    @pytest.fixture(scope="class")
    def fitted(self, dataset):
        return PrefixNearestNeighborFallback().fit(dataset)

    def test_growing_prefix_matches_fresh_instance(self, fitted, dataset):
        stream = fitted.open_stream()
        query = dataset.values[0] + 0.1
        for t in range(1, dataset.length + 1):
            incremental = stream.consult(query[:, :t], dataset.length)
            scratch = fitted.predict_prefix(query[:, :t], dataset.length)
            assert incremental == scratch, f"t={t}"

    def test_switching_queries_resets(self, fitted, dataset):
        # Two streams alternate on one predictor, each extended by
        # several points per consult.
        one, two = dataset.values[0] + 0.2, dataset.values[5] - 0.2
        queries = [(one, fitted.open_stream()), (two, fitted.open_stream())]
        for t in (3, 5, 7, 12):
            for query, stream in queries:
                incremental = stream.consult(query[:, :t], dataset.length)
                scratch = fitted.predict_prefix(query[:, :t], dataset.length)
                assert incremental == scratch


class TestInterleavedSessionsCache:
    """Round-robin sessions on one shared model each keep their own work."""

    @staticmethod
    def _round_robin(classifier, rows, length):
        sessions = [StreamingSession(classifier, length) for _ in rows]
        for t in range(length):
            for session, row in zip(sessions, rows):
                if not session.is_decided:
                    session.push(row[:, t])
        return sessions

    @staticmethod
    def _one_at_a_time(classifier, rows, length):
        return [
            StreamingSession(classifier, length).run(row) for row in rows
        ]

    def test_teaser_computes_each_rung_once_per_stream(
        self, dataset, monkeypatch
    ):
        trained = TEASER(n_prefixes=5, seed=0).train(dataset)
        rows = dataset.values[:4]
        expected = self._one_at_a_time(trained, rows, dataset.length)
        calls = Counter()
        original = WEASEL.predict_proba

        def counted(self, data):
            # One key per (rung, observed prefix): a rung recomputed for
            # the same stream counts twice.
            calls[(id(self), data.values.tobytes())] += 1
            return original(self, data)

        monkeypatch.setattr(WEASEL, "predict_proba", counted)
        sessions = self._round_robin(trained, rows, dataset.length)
        assert calls and max(calls.values()) == 1
        assert [s.decision for s in sessions] == expected

    def test_ects_advances_once_per_pushed_point_per_stream(
        self, dataset, monkeypatch
    ):
        trained = ECTS(support=0.0).train(dataset)
        rows = dataset.values[:4]
        expected = self._one_at_a_time(trained, rows, dataset.length)
        advances = [0]
        original = PrefixDistanceCache.advance

        def counted(self, values):
            advances[0] += 1
            return original(self, values)

        monkeypatch.setattr(PrefixDistanceCache, "advance", counted)
        sessions = self._round_robin(trained, rows, dataset.length)
        assert advances[0] <= sum(s.n_observed for s in sessions)
        assert [s.decision for s in sessions] == expected
