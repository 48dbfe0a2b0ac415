"""Serving replays on the wall clock, in-process and through the CLI.

A wall-clock scenario replays a fitted model over streamed instances and
measures real consultation latencies; ``run_scenario`` drives it
in-process and ``etsc-bench serve-slo`` from a scenario file.
"""

import io
import json

from repro.core import AlgorithmRegistry, DatasetRegistry
from repro.core.cli import main as cli_main
from repro.core.registry import default_algorithms
from repro.slo import parse_scenario, run_scenario
from tests.conftest import make_sinusoid_dataset

INFO = default_algorithms(fast=True).get("ECTS")


def wall_clock_scenario(n_streams):
    return {
        "name": "serve-sim",
        "seed": 0,
        "clock": "wall",
        "deadline_ms": None,
        "streams": [
            {"dataset": "fuzzable", "algorithm": "ECTS", "count": n_streams}
        ],
    }


def replay(n_streams):
    algorithms = AlgorithmRegistry()
    algorithms.register("ECTS", INFO.factory)
    datasets = DatasetRegistry()
    datasets.register(
        "fuzzable",
        lambda: make_sinusoid_dataset(
            40, length=16, noise=0.1, name="fuzzable"
        ),
    )
    return run_scenario(
        parse_scenario(wall_clock_scenario(n_streams)),
        algorithms=algorithms,
        datasets=datasets,
    )


class TestRunServeSim:
    def test_clean_replay_all_model_sourced(self):
        report = replay(n_streams=5)
        assert report.n_decided == report.n_streams == 5
        assert all(d.source == "model" for d in report.decisions)
        assert report.degraded_decisions == 0
        assert report.breaker_trips == 0
        assert report.latency is not None
        assert report.latency.count >= 5

    def test_render_mentions_the_key_numbers(self):
        text = replay(n_streams=3).render()
        assert "3/3 decided" in text
        assert "breaker" in text
        assert "p99" in text


class TestServeSimCli:
    def run_cli(self, tmp_path, *extra):
        scenario = {
            **wall_clock_scenario(2),
            "scale": 0.05,
            "streams": [
                {"dataset": "PowerCons", "algorithm": "ECTS", "count": 2}
            ],
        }
        path = tmp_path / "serve-sim.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        out = io.StringIO()
        code = cli_main(["serve-slo", "--scenario", str(path), *extra], out)
        return code, out.getvalue()

    def test_clean_run_exits_zero(self, tmp_path):
        code, text = self.run_cli(tmp_path)
        assert code == 0
        assert "2/2 decided" in text

    def test_flat_flag_interface_still_works(self):
        # The historical subcommand-free CLI must be untouched.
        out = io.StringIO()
        assert cli_main(["--list"], out) == 0
        assert "algorithms:" in out.getvalue()

    def test_trace_written(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        code, text = self.run_cli(tmp_path, "--trace", str(trace))
        assert code == 0
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        names = {r.get("name") for r in records}
        assert "replay" in names and "push" in names
        # Each completed stream is an event on the replay span.
        completed = [
            event["attributes"]
            for r in records
            if r.get("name") == "replay"
            for event in r.get("events") or ()
            if event["name"] == "stream_completed"
        ]
        assert len(completed) == 2
        assert all(c["n_consultations"] >= 1 for c in completed)
