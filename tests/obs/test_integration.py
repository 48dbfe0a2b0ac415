"""Instrumentation threaded through the pipeline: runner, CLI, parity.

The acceptance bar: a traced grid run produces nested
``grid/cell/fold/fit/predict`` spans; with instrumentation disabled the
``RunReport`` values are identical to an uninstrumented run.
"""

import io
import json
import time

import numpy as np
import pytest

from repro.core import (
    AlgorithmRegistry,
    BenchmarkRunner,
    DatasetRegistry,
    EarlyClassifier,
    EarlyPrediction,
    StreamingSession,
)
from repro.core.cli import main
from repro.obs import (
    TraceReader,
    TraceWriter,
    Tracer,
    emit,
    metrics_from_spans,
    read_spans,
    use_tracer,
)
from repro.obs.summary import main as summary_main, summarize_trace
from tests.conftest import make_sinusoid_dataset


class _Deterministic(EarlyClassifier):
    supports_multivariate = True

    def _train(self, dataset):
        values, counts = np.unique(dataset.labels, return_counts=True)
        self._majority = int(values[counts.argmax()])

    def _predict(self, dataset):
        prefix = min(2, dataset.length)
        return [
            EarlyPrediction(self._majority, prefix, dataset.length)
            for _ in range(dataset.n_instances)
        ]


class _Sleepy(_Deterministic):
    def _train(self, dataset):
        time.sleep(10.0)


def _registries():
    algorithms = AlgorithmRegistry()
    algorithms.register("DET", _Deterministic)
    datasets = DatasetRegistry()
    datasets.register(
        "PowerCons", lambda: make_sinusoid_dataset(16, name="PowerCons")
    )
    datasets.register(
        "toy", lambda: make_sinusoid_dataset(14, length=20, name="toy")
    )
    return algorithms, datasets


class TestRunnerTracing:
    def test_grid_produces_nested_spans(self):
        algorithms, datasets = _registries()
        tracer = Tracer()
        with use_tracer(tracer):
            BenchmarkRunner(algorithms, datasets, n_folds=2).run()
        spans = tracer.finished_spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        assert set(by_name) == {
            "grid", "load", "cell", "fold", "fit", "predict"
        }
        assert len(by_name["grid"]) == 1
        assert len(by_name["load"]) == 2  # one per dataset
        assert len(by_name["cell"]) == 2  # 1 algorithm x 2 datasets
        assert len(by_name["fold"]) == 4
        assert len(by_name["fit"]) == len(by_name["predict"]) == 4
        grid = by_name["grid"][0]
        ids = {span.span_id: span for span in spans}
        for cell in by_name["cell"]:
            assert cell.parent_id == grid.span_id
            assert set(cell.attributes) >= {"algorithm", "dataset"}
        for load in by_name["load"]:
            assert load.parent_id == grid.span_id
            assert load.status == "ok"
        for fold in by_name["fold"]:
            assert ids[fold.parent_id].name == "cell"
        for leaf in by_name["fit"] + by_name["predict"]:
            assert ids[leaf.parent_id].name == "fold"

    def test_timeout_becomes_span_annotation(self):
        algorithms = AlgorithmRegistry()
        algorithms.register("SLEEPY", _Sleepy)
        datasets = DatasetRegistry()
        datasets.register("toy", lambda: make_sinusoid_dataset(12))
        tracer = Tracer()
        with use_tracer(tracer):
            runner = BenchmarkRunner(
                algorithms, datasets, n_folds=2, time_budget_seconds=0.3
            )
            report = runner.run()
        assert ("SLEEPY", "toy") in report.failures
        cells = [s for s in tracer.finished_spans() if s.name == "cell"]
        assert len(cells) == 1
        assert cells[0].status == "timeout"
        assert "budget" in cells[0].attributes["reason"]
        assert runner.metrics.snapshot()["cells_timeout"] == 1

    def test_error_becomes_span_annotation(self):
        from repro.exceptions import ConvergenceError

        class _Broken(_Deterministic):
            def _train(self, dataset):
                raise ConvergenceError("deliberate failure")

        algorithms = AlgorithmRegistry()
        algorithms.register("BROKEN", _Broken)
        datasets = DatasetRegistry()
        datasets.register("toy", lambda: make_sinusoid_dataset(12))
        tracer = Tracer()
        with use_tracer(tracer):
            runner = BenchmarkRunner(algorithms, datasets, n_folds=2)
            runner.run()
        (cell,) = [s for s in tracer.finished_spans() if s.name == "cell"]
        assert cell.status == "error"
        assert runner.metrics.snapshot()["cells_failed"] == 1

    def test_runner_metrics_on_success(self):
        algorithms, datasets = _registries()
        runner = BenchmarkRunner(algorithms, datasets, n_folds=2)
        runner.run()
        snap = runner.metrics.snapshot()
        assert snap["cells_total"] == 2
        assert snap["cells_completed"] == 2
        assert snap["grid_completion"] == 1.0
        assert snap["cell_seconds"]["count"] == 2


class TestNoOpParity:
    def test_report_values_identical_with_tracing_on_and_off(self):
        """Instrumentation must not change any reported metric value."""

        def run_once():
            algorithms, datasets = _registries()
            return BenchmarkRunner(
                algorithms, datasets, n_folds=2, seed=7
            ).run()

        plain = run_once()
        with use_tracer(Tracer()):
            traced = run_once()
        assert set(plain.results) == set(traced.results)
        assert plain.failures == traced.failures
        for key, result in plain.results.items():
            other = traced.results[key]
            # Deterministic metrics must be byte-identical.
            assert result.accuracy == other.accuracy
            assert result.f1 == other.f1
            assert result.earliness == other.earliness
            assert result.harmonic_mean == other.harmonic_mean
            # Wall-clock metrics are measured either way (never zeroed
            # or rescaled by instrumentation).
            assert result.train_seconds > 0.0
            assert other.train_seconds > 0.0

    def test_streaming_decisions_identical_with_tracing(self):
        dataset = make_sinusoid_dataset(16)
        classifier = _Deterministic()
        classifier.train(dataset)

        def decide():
            session = StreamingSession(classifier, dataset.length)
            return session.run(dataset.values[0]), session

        plain, _ = decide()
        with use_tracer(Tracer()) as tracer:
            traced, session = decide()
        assert plain == traced
        names = [s.name for s in tracer.finished_spans()]
        assert "stream" in names
        assert names.count("push") == len(session.push_latencies)


class TestCliTrace:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "out.jsonl"
        out = io.StringIO()
        code = main(
            [
                "--algorithms", "ECTS",
                "--datasets", "PowerCons",
                "--scale", "0.08",
                "--folds", "2",
                "--trace", str(path),
            ],
            out=out,
        )
        assert code == 0
        assert "trace written to" in out.getvalue()
        for line in path.read_text().strip().splitlines():
            json.loads(line)
        spans = read_spans(path)
        names = {span.name for span in spans}
        assert {"grid", "cell", "fold", "fit", "predict"} <= names
        # The trace is self-sufficient for the summary tool.
        text = summarize_trace(path)
        assert "cells_completed" in text
        assert "span.fit.seconds" in text

    def test_module_tracer_restored_after_cli(self, tmp_path):
        from repro.obs.trace import NullTracer, get_tracer

        main(
            [
                "--algorithms", "ECTS",
                "--datasets", "PowerCons",
                "--scale", "0.08",
                "--folds", "2",
                "--trace", str(tmp_path / "out.jsonl"),
            ],
            out=io.StringIO(),
        )
        assert isinstance(get_tracer(), NullTracer)

    def test_summary_cli_prints_counters(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            tracer = Tracer(on_finish=writer.write_span)
            with use_tracer(tracer), tracer.span("cell") as cell:
                cell.set_status("timeout")
                emit(None, "cell_committed", status="timeout", seconds=0.0)
        out = io.StringIO()
        assert summary_main([str(path)], out=out) == 0
        text = out.getvalue()
        assert "cells_timeout" in text
        assert "spans: 1" in text

    def test_summary_cli_missing_file(self, tmp_path):
        assert summary_main([str(tmp_path / "nope.jsonl")]) == 1

    def test_progress_flag_logs_cells(self, tmp_path, capsys):
        import logging

        from repro.obs.logging import ROOT_LOGGER_NAME

        root = logging.getLogger(ROOT_LOGGER_NAME)
        before_handlers = list(root.handlers)
        before_level = root.level
        try:
            code = main(
                [
                    "--algorithms", "ECTS",
                    "--datasets", "PowerCons",
                    "--scale", "0.08",
                    "--folds", "2",
                    "--progress",
                ],
                out=io.StringIO(),
            )
            assert code == 0
            err = capsys.readouterr().err
            assert "cell 1/1 (100.0%)" in err
            assert "done in" in err
        finally:
            root.handlers = before_handlers
            root.setLevel(before_level)


class TestTraceMetricsAgreement:
    def test_trace_recomputation_matches_runner_counters(self):
        algorithms, datasets = _registries()
        tracer = Tracer()
        with use_tracer(tracer):
            runner = BenchmarkRunner(algorithms, datasets, n_folds=2)
            runner.run()
        recomputed = metrics_from_spans(tracer.finished_spans()).snapshot()
        live = runner.metrics.snapshot()
        assert recomputed["cells_total"] == live["cells_total"]
        assert recomputed["cells_completed"] == live["cells_completed"]


def _grid_fault(case):
    """A ``FaultPlan`` for one fault case of the grid parity test."""
    from repro.core.resilience import FaultPlan
    from repro.core.timeouts import EvaluationTimeout
    from repro.exceptions import DataFormatError

    if case == "permanent-load":
        return FaultPlan().fail(
            "alpha",
            exception=lambda: DataFormatError("corrupt file"),
            attempts=None, stage="load",
        )
    if case == "transient-load":
        return FaultPlan().fail("alpha", attempts=(1,), stage="load")
    if case == "transient-cell":
        return FaultPlan().fail("alpha", "FAST", attempts=(1,))
    assert case == "budget-timeout"
    return FaultPlan().fail(
        "alpha", "FAST",
        exception=lambda: EvaluationTimeout("budget burnt"),
        attempts=None,
    )


class TestGridRollupParity:
    """Every counter a grid run keeps live is rebuilt from its trace."""

    @pytest.mark.parametrize(
        "case, counter",
        [
            ("permanent-load", "datasets_failed"),
            ("transient-load", "load_retries"),
            ("transient-cell", "cell_retries"),
            ("budget-timeout", "cells_timeout"),
        ],
    )
    def test_rollup_equals_live_metrics(self, case, counter):
        from tests.core.test_resilience import (
            _no_sleep_policy,
            _registries as fault_registries,
        )

        algorithms, datasets = fault_registries()
        policy, _ = _no_sleep_policy(max_attempts=2, jitter=0.0)
        runner = BenchmarkRunner(
            algorithms, datasets, n_folds=2,
            retry_policy=policy, fault_injector=_grid_fault(case),
        )
        tracer = Tracer()
        with use_tracer(tracer):
            runner.run()
        live = runner.metrics.snapshot()
        live.pop("grid_completion")  # progress, live only
        rollup = metrics_from_spans(tracer.finished_spans()).snapshot()
        assert live[counter] == 1
        assert live["cells_total"] == 2
        assert {
            key: value
            for key, value in rollup.items()
            if not key.startswith("span.")
        } == live
        assert rollup["cell_seconds"]["count"] == live["cell_seconds"]["count"]
