"""Unit coverage for the grid scheduler (repro.core.sched).

The determinism contracts matter more than the numbers: the start order
and the shard bins must be pure functions of their inputs (so every
shard of a split grid independently agrees), and the live ``sched.*``
instruments must be exactly recomputable from a trace.
"""

import json
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pool import available_cores
from repro.core.sched import (
    ClaimBoard,
    ShardSpec,
    claims_directory,
    find_shard_checkpoints,
    largest_dataset_first,
    resolve_workers,
    shard_checkpoint_path,
)
from repro.exceptions import ConfigurationError
from repro.obs.metrics import metrics_from_spans
from repro.obs.trace import Tracer, use_tracer
from tests.conftest import make_sinusoid_dataset
from tests.core.test_parallel import _Fast, _registries, frozen_clock  # noqa: F401


class TestLptOrder:
    """The start order: largest dataset first, canonical order on ties."""

    CELLS = [("A", "d0"), ("B", "d0"), ("A", "d1"), ("B", "d1")]

    def test_longest_first_with_canonical_tiebreak(self):
        cells = self.CELLS + [("A", "d2"), ("B", "d2")]
        sizes = {"d0": 100, "d1": 300, "d2": 100}
        assert largest_dataset_first(cells, sizes) == [
            ("A", "d1"), ("B", "d1"),
            ("A", "d0"), ("B", "d0"), ("A", "d2"), ("B", "d2"),
        ]

    def test_equal_estimates_preserve_fifo(self):
        sizes = {"d0": 7, "d1": 7}
        assert largest_dataset_first(self.CELLS, sizes) == self.CELLS

    def test_missing_estimates_sort_last(self):
        order = largest_dataset_first(self.CELLS, {"d1": 2})
        assert order == [("A", "d1"), ("B", "d1"), ("A", "d0"), ("B", "d0")]


_CANONICAL_GRIDS = st.tuples(
    st.lists(st.sampled_from("ABCDEFGH"), unique=True, max_size=5),
    st.integers(min_value=0, max_value=12),
).map(
    lambda grid: [
        (algorithm, f"d{index}")
        for index in range(grid[1])
        for algorithm in grid[0]
    ]
)


class TestPartition:
    """Shard ``i/n`` owns ``cells[i::n]`` of the canonical grid."""

    @settings(max_examples=200, deadline=None)
    @given(cells=_CANONICAL_GRIDS, count=st.integers(1, 8))
    def test_round_robin_bins_partition_the_grid(self, cells, count):
        bins = [ShardSpec(index, count).bin(cells) for index in range(count)]
        combined = [cell for shard_bin in bins for cell in shard_bin]
        assert sorted(combined) == sorted(cells)
        for shard_bin in bins:
            indices = [cells.index(cell) for cell in shard_bin]
            assert indices == sorted(indices)
        sizes = [len(shard_bin) for shard_bin in bins]
        assert max(sizes) - min(sizes) <= 1

    def test_bins_cover_and_do_not_overlap(self):
        cells = [(a, f"d{i}") for i in range(5) for a in ("A", "B")]
        bins = [ShardSpec(index, 3).bin(cells) for index in range(3)]
        assert bins == [cells[0::3], cells[1::3], cells[2::3]]
        combined = [cell for b in bins for cell in b]
        assert set(combined) == set(cells)
        assert len(combined) == len(cells)

    def test_bins_keep_canonical_order(self):
        cells = [("A", "d0"), ("B", "d0"), ("A", "d1"), ("B", "d1")]
        assert ShardSpec(0, 2).bin(cells) == [("A", "d0"), ("A", "d1")]
        assert ShardSpec(1, 2).bin(cells) == [("B", "d0"), ("B", "d1")]

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardSpec(0, 0)


class _RecordingPool:
    """Stands in for the fork pool: runs each cell at submission and
    records the submission order."""

    submitted: list = []

    def __init__(self, max_workers, mp_context):
        pass

    def submit(self, function, key):
        type(self).submitted.append(key)
        future = Future()
        future.set_result(function(key))
        return future

    def shutdown(self, wait, cancel_futures):
        pass


class TestPoolStartOrder:
    def test_pool_submits_largest_dataset_first(self, monkeypatch):
        from repro.core import AlgorithmRegistry, BenchmarkRunner, DatasetRegistry
        from repro.core import runner as runner_module

        algorithms = AlgorithmRegistry()
        algorithms.register("FAST", _Fast)
        algorithms.register("ALSO", _Fast)
        datasets = DatasetRegistry()
        # values.size = n x V x L: a 360, b 720, c 360, d 720.
        for name, shape in {
            "a": (12, 1, 30), "b": (12, 2, 30),
            "c": (24, 1, 15), "d": (12, 1, 60),
        }.items():
            datasets.register(
                name,
                lambda name=name, shape=shape: make_sinusoid_dataset(
                    shape[0], length=shape[2], n_variables=shape[1], name=name
                ),
            )
        monkeypatch.setattr(_RecordingPool, "submitted", [])
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _RecordingPool)
        report = BenchmarkRunner(
            algorithms, datasets, n_folds=2, seed=0, workers=2
        ).run()
        assert _RecordingPool.submitted == [
            (algorithm, dataset)
            for dataset in ("b", "d", "a", "c")
            for algorithm in ("FAST", "ALSO")
        ]
        # Commitment stays canonical whatever the start order.
        assert list(report.results) == [
            (algorithm, dataset)
            for dataset in ("a", "b", "c", "d")
            for algorithm in ("FAST", "ALSO")
        ]


class TestShardSpec:
    def test_parse(self):
        spec = ShardSpec.parse("1/4")
        assert (spec.index, spec.count) == (1, 4)
        assert str(spec) == "1/4"
        assert spec.owner == "shard-1"

    @pytest.mark.parametrize(
        "text", ["", "1", "a/b", "-1/2", "2/2", "1/0", "0/2/3"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigurationError):
            ShardSpec.parse(text)

    def test_paths(self, tmp_path):
        assert shard_checkpoint_path(tmp_path, 3).name == "shard-3.jsonl"
        assert claims_directory(tmp_path).name == "claims"
        (tmp_path / "shard-10.jsonl").touch()
        (tmp_path / "shard-2.jsonl").touch()
        (tmp_path / "not-a-shard.jsonl").touch()
        names = [p.name for p in find_shard_checkpoints(tmp_path)]
        assert names == ["shard-2.jsonl", "shard-10.jsonl"]


class TestClaimBoard:
    def test_exactly_one_owner_wins(self, tmp_path):
        first = ClaimBoard(tmp_path, "shard-0")
        second = ClaimBoard(tmp_path, "shard-1")
        assert first.claim("ECTS", "PowerCons")
        assert not second.claim("ECTS", "PowerCons")
        assert second.owner_of("ECTS", "PowerCons") == "shard-0"
        assert second.claimed_by_other("ECTS", "PowerCons")
        assert not first.claimed_by_other("ECTS", "PowerCons")

    def test_reclaim_by_owner_is_idempotent(self, tmp_path):
        board = ClaimBoard(tmp_path, "shard-0")
        assert board.claim("A", "d")
        assert board.claim("A", "d")  # resume re-claims its own cell

    def test_unclaimed_cell(self, tmp_path):
        board = ClaimBoard(tmp_path, "shard-0")
        assert board.owner_of("A", "d") is None
        assert not board.claimed_by_other("A", "d")

    def test_unreadable_claim_is_foreign(self, tmp_path):
        board = ClaimBoard(tmp_path, "shard-0")
        board.claim("A", "d")
        claim_files = list(tmp_path.glob("*.claim"))
        assert len(claim_files) == 1
        claim_files[0].write_text("{half a rec")  # writer died mid-write
        assert board.claimed_by_other("A", "d")
        assert not board.claim("A", "d")

    def test_distinct_cells_distinct_files(self, tmp_path):
        board = ClaimBoard(tmp_path, "shard-0")
        board.claim("A", "d1")
        board.claim("A", "d2")
        board.claim("weird/name:with spaces", "d1")
        assert len(list(tmp_path.glob("*.claim"))) == 3


class TestResolveWorkers:
    def test_explicit_integer(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(8) == 8

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            resolve_workers(0)

    def test_rejects_garbage_string(self):
        with pytest.raises(ConfigurationError):
            resolve_workers("many")

    def test_auto_uses_affinity_mask(self, monkeypatch):
        import os

        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
            assert resolve_workers("auto") == 3
            # The 1-core clamp: never oversubscribe a 1-core box.
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert resolve_workers("auto") == 1
        else:  # pragma: no cover - non-Linux fallback
            assert resolve_workers("auto") >= 1

    def test_available_cores_positive(self):
        assert available_cores() >= 1


class TestCliFlags:
    def test_workers_accepts_auto(self):
        from repro.core.cli import build_parser

        arguments = build_parser().parse_args(["--workers", "auto"])
        assert arguments.workers == "auto"

    def test_shard_flag_requires_checkpoint(self, capsys):
        from repro.core.cli import main

        assert main(["--shard", "0/2"]) == 2

    def test_shard_rejects_resume(self):
        from repro.core.cli import main

        assert (
            main(["--shard", "0/2", "--checkpoint", "x", "--resume"]) == 2
        )

    def test_runner_rejects_shard_without_checkpoint(self):
        from repro.core import BenchmarkRunner

        algorithms, datasets = _registries()
        with pytest.raises(ConfigurationError):
            BenchmarkRunner(algorithms, datasets, shard="0/2")

    def test_fleet_shards_accepts_auto(self, monkeypatch):
        import os

        from repro.slo.cli import build_parser

        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            assert build_parser().parse_args(["--shards", "auto"]).shards == 2
        else:  # pragma: no cover - non-Linux fallback
            assert build_parser().parse_args(["--shards", "auto"]).shards >= 1


class TestSchedTelemetry:
    def test_rollup_matches_live_counters(self, frozen_clock):  # noqa: F811
        from repro.core import BenchmarkRunner

        algorithms, datasets = _registries()
        tracer = Tracer()
        runner = BenchmarkRunner(
            algorithms, datasets, n_folds=2, seed=0, workers=2
        )
        with use_tracer(tracer):
            runner.run()
        live = runner.metrics.snapshot()
        rollup = metrics_from_spans(tracer.finished_spans()).snapshot()
        assert live["sched.cells_scheduled"] == 6  # 2 algorithms x 3 datasets
        assert rollup["sched.cells_scheduled"] == 6
        assert rollup.get("sched.steals", 0) == live.get("sched.steals", 0)
        assert not any(name.startswith("sched.estimate") for name in live)

    def test_grid_span_carries_sched_plan(self, frozen_clock):  # noqa: F811
        from repro.core import BenchmarkRunner

        algorithms, datasets = _registries()
        tracer = Tracer()
        runner = BenchmarkRunner(
            algorithms, datasets, n_folds=2, seed=0, workers=2
        )
        with use_tracer(tracer):
            runner.run()
        grid = [s for s in tracer.finished_spans() if s.name == "grid"][0]
        plans = [e for e in grid.events if e["name"] == "sched_plan"]
        assert len(plans) == 1
        assert plans[0]["attributes"] == {"n_cells": 6, "workers": 2}
        cells = [
            event["attributes"]
            for span in tracer.finished_spans()
            for event in span.events
            if event["name"] == "sched_cell"
        ]
        assert len(cells) == 6
        assert set(cells[0]) == {
            "algorithm", "dataset", "actual_seconds", "stolen",
        }

    def test_serial_runs_emit_no_sched_events(self, frozen_clock):  # noqa: F811
        from repro.core import BenchmarkRunner

        algorithms, datasets = _registries()
        tracer = Tracer()
        runner = BenchmarkRunner(algorithms, datasets, n_folds=2, seed=0)
        with use_tracer(tracer):
            runner.run()
        assert "sched.cells_scheduled" not in runner.metrics.snapshot()
        rollup = metrics_from_spans(tracer.finished_spans()).snapshot()
        assert "sched.cells_scheduled" not in rollup


class TestCheckpointTimings:
    def test_timings_roundtrip(self, tmp_path):
        from repro.core.checkpoint import (
            CheckpointWriter,
            load_checkpoint,
        )
        from repro.core.evaluation import EvaluationResult
        from tests.conftest import make_sinusoid_dataset  # noqa: F401

        path = tmp_path / "cp.jsonl"
        fingerprint = {"algorithms": ["A"], "datasets": ["d"]}
        with CheckpointWriter(path, fingerprint) as writer:
            writer.write_result(
                "A", "d", EvaluationResult("A", "d", ()),
                wall_seconds=1.25, cpu_seconds=0.75,
            )
            writer.write_failure(
                "B", "d", "boom", "permanent", attempts=2,
                wall_seconds=0.5, cpu_seconds=0.25,
            )
        state = load_checkpoint(path)
        assert state.timings[("A", "d")] == {
            "wall_seconds": 1.25, "cpu_seconds": 0.75,
        }
        assert state.timings[("B", "d")] == {
            "wall_seconds": 0.5, "cpu_seconds": 0.25,
        }
        assert state.failure_attempts[("B", "d")] == 2

    def test_old_rows_without_timings_still_load(self, tmp_path):
        path = tmp_path / "old.jsonl"
        lines = [
            {"type": "meta", "version": 1, "fingerprint": {}},
            {
                "type": "cell", "algorithm": "A", "dataset": "d",
                "outcome": "failure", "reason": "boom", "kind": "permanent",
                "attempts": 1,
            },
        ]
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n"
        )
        from repro.core.checkpoint import load_checkpoint

        state = load_checkpoint(path)
        assert ("A", "d") in state.failures
        assert state.timings == {}
