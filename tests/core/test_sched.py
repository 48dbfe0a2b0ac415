"""Unit coverage for the cost-model scheduler (repro.core.sched).

The determinism contracts matter more than the numbers: estimates,
LPT order, and shard partitions must be pure functions of their inputs
(so every shard of a split grid independently agrees), and the live
``sched.*`` instruments must be exactly recomputable from a trace.
"""

import json
import time

import pytest

from repro.core.pool import available_cores
from repro.core.sched import (
    CellEstimate,
    ClaimBoard,
    CostModel,
    ShardSpec,
    claims_directory,
    find_shard_checkpoints,
    lpt_order,
    partition_cells,
    resolve_workers,
    shard_checkpoint_path,
)
from repro.exceptions import ConfigurationError
from repro.obs.metrics import metrics_from_spans
from repro.obs.trace import Tracer, use_tracer

from tests.core.test_parallel import _registries, frozen_clock  # noqa: F401


class TestCostModel:
    def test_heuristic_monotone_in_instances(self):
        model = CostModel()
        small = model.heuristic((25, 1, 60), "prefix-based")
        large = model.heuristic((75, 1, 60), "prefix-based")
        assert large > small
        # prefix-based scales quadratically in instances: 3x -> 9x.
        assert large == pytest.approx(small * 9.0)

    def test_heuristic_category_profiles_differ(self):
        model = CostModel()
        shape = (50, 1, 100)
        prefix = model.heuristic(shape, "prefix-based")
        shapelet = model.heuristic(shape, "shapelet-based")
        baseline = model.heuristic(shape, "baseline")
        assert shapelet > prefix > baseline

    def test_unknown_category_and_shape_fall_back(self):
        model = CostModel()
        assert model.heuristic(None, "prefix-based") > 0
        assert model.heuristic((10, 1, 10), "never-heard-of-it") > 0

    def test_measured_beats_calibrated_beats_heuristic(self):
        model = CostModel()
        model.attach_shape("small", (25, 1, 60))
        model.attach_shape("big", (75, 1, 60))
        cold = model.estimate("ECTS", "big", (75, 1, 60), "prefix-based")
        assert cold.source == "heuristic"
        model.record("ECTS", "small", 0.5)
        calibrated = model.estimate(
            "ECTS", "big", (75, 1, 60), "prefix-based"
        )
        assert calibrated.source == "calibrated"
        # The calibration factor scales the big dataset's heuristic by
        # the observed measured/heuristic ratio on the small one: the
        # quadratic instance ratio (9x) carries over from 0.5s.
        assert calibrated.seconds == pytest.approx(4.5)
        model.record("ECTS", "big", 2.0)
        measured = model.estimate("ECTS", "big", (75, 1, 60), "prefix-based")
        assert measured.source == "measured"
        assert measured.seconds == pytest.approx(2.0)

    def test_calibration_is_per_algorithm(self):
        model = CostModel()
        model.attach_shape("d", (30, 1, 50))
        model.record("SLOW", "d", 10.0)
        other = model.estimate("FAST", "e", (30, 1, 50), "prefix-based")
        assert other.source == "heuristic"  # SLOW's history stays SLOW's

    def test_estimates_are_deterministic(self):
        def build():
            model = CostModel()
            model.record("A", "d1", 1.5, shape=(20, 1, 40))
            model.record("A", "d2", 3.0, shape=(40, 1, 40))
            return model.estimate("A", "d3", (60, 1, 40), "prefix-based")

        assert build() == build()


class TestLptOrder:
    CELLS = [("A", "d0"), ("B", "d0"), ("A", "d1"), ("B", "d1")]

    def test_longest_first_with_canonical_tiebreak(self):
        seconds = {
            ("A", "d0"): 1.0,
            ("B", "d0"): 5.0,
            ("A", "d1"): 1.0,
            ("B", "d1"): 3.0,
        }
        assert lpt_order(self.CELLS, seconds) == [
            ("B", "d0"), ("B", "d1"), ("A", "d0"), ("A", "d1"),
        ]

    def test_equal_estimates_preserve_fifo(self):
        seconds = {cell: 1.0 for cell in self.CELLS}
        assert lpt_order(self.CELLS, seconds) == self.CELLS

    def test_missing_estimates_sort_last(self):
        seconds = {("A", "d1"): 2.0}
        order = lpt_order(self.CELLS, seconds)
        assert order[0] == ("A", "d1")
        assert order[1:] == [("A", "d0"), ("B", "d0"), ("B", "d1")]


class TestPartition:
    def test_bins_cover_and_do_not_overlap(self):
        cells = [(a, f"d{i}") for i in range(5) for a in ("A", "B")]
        seconds = {cell: float(i) for i, cell in enumerate(cells)}
        bins = partition_cells(cells, seconds, 3)
        assert sum(len(b) for b in bins) == len(cells)
        combined = [cell for b in bins for cell in b]
        assert set(combined) == set(cells)
        assert len(set(combined)) == len(cells)

    def test_bins_keep_canonical_order(self):
        cells = [("A", "d0"), ("B", "d0"), ("A", "d1"), ("B", "d1")]
        seconds = {cell: 1.0 for cell in cells}
        for shard_bin in partition_cells(cells, seconds, 2):
            indices = [cells.index(cell) for cell in shard_bin]
            assert indices == sorted(indices)

    def test_long_cell_isolated(self):
        cells = [("A", "d0"), ("A", "d1"), ("A", "d2"), ("A", "d3")]
        seconds = {
            ("A", "d0"): 1.0,
            ("A", "d1"): 1.0,
            ("A", "d2"): 10.0,
            ("A", "d3"): 1.0,
        }
        bins = partition_cells(cells, seconds, 2)
        # The 10s cell lands alone; the three 1s cells share the other bin.
        assert [("A", "d2")] in bins
        assert sorted(len(b) for b in bins) == [1, 3]

    def test_partition_is_deterministic_and_history_free(self):
        cells = [(a, f"d{i}") for i in range(7) for a in ("X", "Y", "Z")]
        seconds = {cell: (hash(cell[1]) % 7) + 1.0 for cell in cells}
        assert partition_cells(cells, seconds, 4) == partition_cells(
            cells, seconds, 4
        )

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            partition_cells([], {}, 0)


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
        assert (
            rollup["sched.estimate_error_pct"]
            == live["sched.estimate_error_pct"]
        )

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
        assert plans[0]["attributes"]["n_cells"] == 6

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

    def test_resume_seeds_cost_model(self, tmp_path, monkeypatch):
        from repro.core import BenchmarkRunner

        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        monkeypatch.setattr(time, "process_time", lambda: 0.0)
        algorithms, datasets = _registries()
        checkpoint = tmp_path / "cp.jsonl"
        first = BenchmarkRunner(
            algorithms, datasets, n_folds=2, seed=0,
            checkpoint_path=checkpoint,
        )
        first.run()
        algorithms2, datasets2 = _registries()
        resumed = BenchmarkRunner(
            algorithms2, datasets2, n_folds=2, seed=0,
            resume_from=checkpoint,
        )
        resumed.run()
        # Every checkpointed cell's wall timing fed the model.
        assert resumed.cost_model.n_observations == 6
