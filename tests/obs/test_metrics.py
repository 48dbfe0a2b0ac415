"""Tests for counters, gauges, timer histograms, and trace aggregation."""

import threading

import pytest

from repro.exceptions import ReproError
from repro.obs.events import TraceWriter, read_spans
from repro.obs.metrics import (
    EVENT_METRICS,
    Counter,
    Gauge,
    MetricsRegistry,
    TimerHistogram,
    emit,
    metrics_from_spans,
)
from repro.obs.trace import Tracer, use_tracer


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("cells")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(ReproError, match="Gauge"):
            Counter("cells").inc(-1)

    def test_gauge_keeps_last_value(self):
        gauge = Gauge("completion")
        gauge.set(0.25)
        gauge.set(0.75)
        assert gauge.value == 0.75

    def test_timer_quantiles_are_order_statistics(self):
        timer = TimerHistogram("latency")
        timer.observe_many([0.1, 0.2, 0.3, 0.4, 0.5])
        assert timer.count == 5
        assert timer.quantile(0.0) == pytest.approx(0.1)
        assert timer.quantile(0.5) == pytest.approx(0.3)
        assert timer.quantile(1.0) == pytest.approx(0.5)
        assert timer.quantile(0.25) == pytest.approx(0.2)

    def test_timer_summary_fields(self):
        timer = TimerHistogram("latency")
        timer.observe(2.0)
        timer.observe(4.0)
        summary = timer.summary()
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(3.0)
        assert summary["max"] == pytest.approx(4.0)
        assert summary["total"] == pytest.approx(6.0)

    def test_empty_timer_summary_is_zeros(self):
        assert TimerHistogram("t").summary()["count"] == 0

    def test_empty_timer_quantile_raises(self):
        with pytest.raises(ReproError, match="no observations"):
            TimerHistogram("t").quantile(0.5)

    def test_bad_quantile_rejected(self):
        timer = TimerHistogram("t")
        timer.observe(1.0)
        with pytest.raises(ReproError, match=r"\[0, 1\]"):
            timer.quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ReproError, match="already registered"):
            registry.timer("a")

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("cells").inc(2)
        registry.gauge("completion").set(0.5)
        registry.timer("cell_seconds").observe(1.0)
        snap = registry.snapshot()
        assert snap["cells"] == 2
        assert snap["completion"] == 0.5
        assert snap["cell_seconds"]["count"] == 1

    def test_summarize_mentions_everything(self):
        registry = MetricsRegistry()
        registry.counter("cells_timeout").inc()
        registry.gauge("grid_completion").set(1.0)
        registry.timer("push_latency").observe(0.001)
        text = registry.summarize()
        assert "cells_timeout" in text
        assert "grid_completion" in text
        assert "push_latency" in text
        assert "p95" in text

    def test_empty_registry_summarizes(self):
        assert "no metrics" in MetricsRegistry().summarize()

    def test_thread_safe_updates(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.counter("n").inc()
                registry.timer("t").observe(0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n").value == 8000
        assert registry.timer("t").count == 8000


class TestMetricsFromSpans:
    def make_spans(self):
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("grid"):
            with tracer.span("cell", algorithm="A", dataset="D1"):
                with tracer.span("fold", fold=0):
                    with tracer.span("fit"):
                        pass
                    with tracer.span("predict", n_test=7):
                        pass
            emit(
                None, "cell_committed", algorithm="A", dataset="D1",
                status="completed", seconds=0.5, predictions=7,
            )
            with tracer.span("cell", algorithm="B", dataset="D1") as cell:
                cell.set_status("timeout")
            emit(
                None, "cell_committed", algorithm="B", dataset="D1",
                status="timeout", seconds=1.0,
            )
            with tracer.span("cell", algorithm="C", dataset="D1") as cell:
                cell.set_status("error")
            emit(
                None, "cell_committed", algorithm="C", dataset="D1",
                status="failed", seconds=0.1,
            )
        return tracer.finished_spans()

    def test_cell_status_counters(self):
        registry = metrics_from_spans(self.make_spans())
        snap = registry.snapshot()
        assert snap["cells_total"] == 3
        assert snap["cells_completed"] == 1
        assert snap["cells_timeout"] == 1
        assert snap["cells_failed"] == 1
        assert snap["predictions_emitted"] == 7

    def test_per_name_timers(self):
        registry = metrics_from_spans(self.make_spans())
        snap = registry.snapshot()
        assert snap["span.cell.seconds"]["count"] == 3
        assert snap["span.fit.seconds"]["count"] == 1
        assert snap["span.grid.seconds"]["count"] == 1

    def test_works_on_loaded_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            for span in self.make_spans():
                writer.write_span(span)
        registry = metrics_from_spans(read_spans(path))
        assert registry.snapshot()["cells_timeout"] == 1


#: Sample attributes per table entry; an entry missing here is emitted
#: once with no attributes, which suffices for a plain event counter.
SAMPLE_EVENTS = {
    "cell_committed": [
        {"status": "completed", "seconds": 0.5, "predictions": 7},
        {"status": "completed", "seconds": 0.25, "retries": 2},
        {"status": "timeout", "seconds": 3.0, "retries": 1},
        {"status": "failed", "seconds": 0.0},
    ],
    "sched_cell": [
        {"actual_seconds": 1.5, "stolen": False},
        {"actual_seconds": 4.0, "stolen": True},
    ],
    "breaker_transition": [
        {"from_state": "closed", "to_state": "open", "reason": "x"},
        {"from_state": "open", "to_state": "half_open", "reason": "y"},
        {"from_state": "half_open", "to_state": "open", "reason": "z"},
    ],
    "consult_failed": [
        {"kind": "timeout", "error": "late"},
        {"kind": "permanent", "error": "boom"},
        {"kind": "transient", "error": "flaky"},
    ],
    "corrupted_push": [
        {"push_index": 2, "ops": "missing_blocks,additive_noise"},
        {"push_index": 3, "ops": "missing_blocks"},
    ],
    "slo_consult": [
        {"response_seconds": 0.004, "deadline_missed": False},
        {"response_seconds": 0.031, "deadline_missed": True},
    ],
    "fleet_stream": [
        {"outcome": "decided", "admitted": True, "failovers": 1},
        {"outcome": "degraded", "admitted": True, "failovers": 3},
        {"outcome": "shed", "admitted": False, "failovers": 0},
        {"outcome": "no_decision", "admitted": True, "failovers": 0},
    ],
}


class TestCounterTable:
    def test_samples_name_only_table_entries(self):
        assert set(SAMPLE_EVENTS) <= set(EVENT_METRICS)

    @pytest.mark.parametrize("name", sorted(EVENT_METRICS))
    def test_live_registry_equals_trace_rollup(self, name, tmp_path):
        live = MetricsRegistry()
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            tracer = Tracer(on_finish=writer.write_span)
            with use_tracer(tracer), tracer.span("run"):
                for attributes in SAMPLE_EVENTS.get(name, [{}]):
                    emit(live, name, **attributes)
        expected = live.snapshot()
        assert expected, f"{name} updated no instrument"
        for spans in (tracer.finished_spans(), read_spans(path)):
            rollup = metrics_from_spans(spans).snapshot()
            assert {
                key: value
                for key, value in rollup.items()
                if not key.startswith("span.")
            } == expected

    def test_emit_without_registry_only_records_the_event(self):
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("run") as span:
            emit(None, "fallback_consult", push_index=4)
        assert span.events[0]["name"] == "fallback_consult"
        assert span.events[0]["attributes"] == {"push_index": 4}

    def test_events_outside_the_table_update_nothing(self):
        registry = MetricsRegistry()
        emit(registry, "attempt_failed", attempt=1)
        assert registry.snapshot() == {}

    def test_zero_amounts_create_no_counter(self):
        registry = MetricsRegistry()
        emit(registry, "sched_cell", actual_seconds=1.0, stolen=False)
        assert "sched.steals" not in registry.snapshot()
