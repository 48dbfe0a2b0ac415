"""Parallel grid execution: determinism, fault composition, span stitching.

The contract under test is strong: a ``workers=4`` run must produce a
report JSON and a checkpoint file *byte-identical* to a ``workers=1``
run. Wall-clock timings would differ between any two runs (serial or
not), so these tests pin ``time.perf_counter`` to zero — forked workers
inherit the patch, making every timing field deterministic.
"""

import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.core import (
    AlgorithmRegistry,
    BenchmarkRunner,
    DatasetRegistry,
    EarlyClassifier,
    EarlyPrediction,
)
from repro.core.resilience import FaultPlan, RetryPolicy
from repro.core.results import save_report
from repro.exceptions import ConfigurationError
from repro.obs.trace import Tracer, use_tracer
from tests.conftest import make_sinusoid_dataset


class _Fast(EarlyClassifier):
    supports_multivariate = True

    def _train(self, dataset):
        values, counts = np.unique(dataset.labels, return_counts=True)
        self._majority = int(values[counts.argmax()])

    def _predict(self, dataset):
        return [
            EarlyPrediction(self._majority, 1, dataset.length)
            for _ in range(dataset.n_instances)
        ]


class _Broken(_Fast):
    def _train(self, dataset):
        raise ValueError("deliberately broken")


def _registries(n_datasets=3, broken=False):
    algorithms = AlgorithmRegistry()
    algorithms.register("FAST", _Fast)
    algorithms.register("ALSO", _Fast)
    if broken:
        algorithms.register("BROKEN", _Broken)
    datasets = DatasetRegistry()
    for index in range(n_datasets):
        name = f"ds{index}"
        datasets.register(
            name,
            lambda name=name, index=index: make_sinusoid_dataset(
                12 + index, name=name
            ),
        )
    return algorithms, datasets


def _run(tmp_path, workers, tag, **runner_kwargs):
    """One grid run; returns (report bytes, checkpoint bytes)."""
    algorithms, datasets = runner_kwargs.pop("registries", None) or _registries()
    report_path = tmp_path / f"report_{tag}.json"
    checkpoint_path = tmp_path / f"checkpoint_{tag}.jsonl"
    runner = BenchmarkRunner(
        algorithms,
        datasets,
        n_folds=2,
        seed=0,
        workers=workers,
        checkpoint_path=checkpoint_path,
        **runner_kwargs,
    )
    report = runner.run()
    save_report(report, report_path)
    return report_path.read_bytes(), checkpoint_path.read_bytes(), report


@pytest.fixture
def frozen_clock(monkeypatch):
    """Pin wall and CPU clocks so every timing field — including the
    checkpoint rows' wall/cpu seconds — is 0.0 in the parent and all
    forks."""
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(time, "process_time", lambda: 0.0)


class TestByteIdenticalMerge:
    def test_parallel_report_and_checkpoint_match_serial(
        self, tmp_path, frozen_clock
    ):
        serial_report, serial_checkpoint, _ = _run(tmp_path, 1, "serial")
        parallel_report, parallel_checkpoint, report = _run(
            tmp_path, 4, "parallel"
        )
        assert parallel_report == serial_report
        assert parallel_checkpoint == serial_checkpoint
        assert len(report.results) == 6  # 2 algorithms x 3 datasets

    def test_parallel_merge_is_canonical_order(self, tmp_path, frozen_clock):
        _, checkpoint_bytes, _ = _run(tmp_path, 3, "order")
        lines = [
            json.loads(line)
            for line in checkpoint_bytes.decode().splitlines()
        ]
        cells = [
            (record["algorithm"], record["dataset"])
            for record in lines
            if record["type"] == "cell"
        ]
        # Dataset-major, registry algorithm order — exactly serial order.
        assert cells == [
            (algorithm, dataset)
            for dataset in ("ds0", "ds1", "ds2")
            for algorithm in ("FAST", "ALSO")
        ]

    def test_failures_merge_identically(self, tmp_path, frozen_clock):
        serial = _run(
            tmp_path, 1, "serial_broken",
            registries=_registries(broken=True),
        )
        parallel = _run(
            tmp_path, 4, "parallel_broken",
            registries=_registries(broken=True),
        )
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]
        report = parallel[2]
        assert len(report.failures) == 3  # BROKEN on every dataset
        assert all(
            "deliberately broken" in reason
            for reason in report.failures.values()
        )

    def test_transient_faults_and_retries_compose(
        self, tmp_path, frozen_clock
    ):
        def fault_setup():
            plan = (
                FaultPlan()
                .fail("ds1", "FAST", attempts=(1,))  # retried, then fine
                .fail("ds2", "ALSO", attempts=None)  # exhausts retries
            )
            policy = RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0,
                sleep=lambda _: None,
            )
            return {"fault_injector": plan, "retry_policy": policy}

        serial = _run(tmp_path, 1, "serial_faults", **fault_setup())
        parallel = _run(tmp_path, 4, "parallel_faults", **fault_setup())
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]
        report = parallel[2]
        assert ("FAST", "ds1") in report.results  # transient: recovered
        assert ("ALSO", "ds2") in report.failures  # exhausted retries

    def test_load_failures_merge_identically(self, tmp_path, frozen_clock):
        def fault_setup():
            return {
                "fault_injector": FaultPlan().fail(
                    "ds1", attempts=None, stage="load"
                )
            }

        serial = _run(tmp_path, 1, "serial_load", **fault_setup())
        parallel = _run(tmp_path, 4, "parallel_load", **fault_setup())
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]
        report = parallel[2]
        assert all(dataset == "ds1" for _, dataset in report.failures)
        assert len(report.failures) == 2


class TestParallelResume:
    def test_resume_skips_completed_cells_across_modes(
        self, tmp_path, frozen_clock
    ):
        # Run serially with a failure, then resume in parallel: completed
        # cells are not re-run, and the final report matches an
        # uninterrupted serial run cell-for-cell.
        checkpoint = tmp_path / "resume.jsonl"
        algorithms, datasets = _registries(broken=True)
        first = BenchmarkRunner(
            algorithms, datasets, n_folds=2, seed=0,
            checkpoint_path=checkpoint,
        )
        first_report = first.run()
        algorithms2, datasets2 = _registries(broken=True)
        resumed = BenchmarkRunner(
            algorithms2, datasets2, n_folds=2, seed=0,
            resume_from=checkpoint, workers=4,
        )
        resumed_report = resumed.run()
        assert set(resumed_report.results) == set(first_report.results)
        assert set(resumed_report.failures) == set(first_report.failures)
        # Nothing new ran: the metrics registry saw zero fresh cells.
        assert resumed.metrics.counter("cells_total").value == 0


class TestSpanStitching:
    def test_worker_spans_attach_under_grid_span(self, tmp_path, frozen_clock):
        algorithms, datasets = _registries(n_datasets=2)
        tracer = Tracer()
        runner = BenchmarkRunner(
            algorithms, datasets, n_folds=2, seed=0, workers=2
        )
        with use_tracer(tracer):
            runner.run()
        spans = tracer.finished_spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        grid = by_name["grid"][0]
        cells = by_name["cell"]
        assert len(cells) == 4  # 2 algorithms x 2 datasets
        assert all(span.parent_id == grid.span_id for span in cells)
        # Nested evaluation spans survived the trip and re-parented.
        ids = {span.span_id for span in spans}
        assert len(ids) == len(spans)  # remapping kept ids unique
        cell_ids = {span.span_id for span in cells}
        children = [
            span
            for span in spans
            if span.parent_id in cell_ids and span.name != "cell"
        ]
        assert children  # fold/fit/predict spans came back from workers
        assert {span.attributes["algorithm"] for span in cells} == {
            "FAST", "ALSO",
        }

    def test_adopt_spans_remaps_and_forwards(self):
        worker = Tracer()
        with worker.span("cell", algorithm="A") :
            with worker.span("fold"):
                pass
        records = [
            {
                "type": "span",
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "start_unix": span.start_unix,
                "duration": span.duration,
                "status": span.status,
                "thread": span.thread_name,
                "memory_peak_bytes": span.memory_peak_bytes,
                "attributes": span.attributes,
                "events": span.events,
            }
            for span in worker.finished_spans()
        ]
        forwarded = []
        parent = Tracer(on_finish=forwarded.append)
        with parent.span("grid") as grid:
            pass
        adopted = parent.adopt_spans(records, parent_id=grid.span_id)
        names = {span.name: span for span in adopted}
        assert names["cell"].parent_id == grid.span_id
        assert names["fold"].parent_id == names["cell"].span_id
        assert names["cell"].span_id != records[1]["span_id"]
        assert [span.name for span in forwarded[-2:]] == ["fold", "cell"]
        assert names["cell"].attributes == {"algorithm": "A"}


class TestPoolLifecycle:
    def test_workers_are_joined_when_run_returns(self, tmp_path):
        _run(tmp_path, 2, "joined")
        assert multiprocessing.active_children() == []


class TestConfiguration:
    def test_workers_validated(self):
        algorithms, datasets = _registries()
        with pytest.raises(ConfigurationError):
            BenchmarkRunner(algorithms, datasets, workers=0)

    def test_cli_accepts_workers_flag(self):
        from repro.core.cli import build_parser

        arguments = build_parser().parse_args(["--workers", "4"])
        assert arguments.workers == 4
