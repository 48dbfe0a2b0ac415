"""The ``etsc-bench serve-slo`` command: listing, running, exit codes."""

import io
import json
import re

import pytest

from repro.core.cli import main as root_main
from repro.slo.cli import main as slo_main


def tiny_scenario_file(tmp_path, **overrides):
    raw = {
        "name": "cli-tiny",
        "seed": 5,
        "clock": "virtual",
        "scale": 0.08,
        "deadline_ms": 25.0,
        "stagger_ms": 11.0,
        "arrival": {"process": "uniform", "period_ms": 80.0},
        "service": {"base_ms": 2.0, "per_point_ms": 0.04, "jitter_ms": 1.0},
        "streams": [{"dataset": "PowerCons", "algorithm": "ECTS", "count": 2}],
        "breaker": {"threshold": 3, "recovery_ms": 100.0},
    }
    raw.update(overrides)
    path = tmp_path / "cli-tiny.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


class TestListing:
    def test_list_names_bundled_scenarios(self):
        out = io.StringIO()
        assert slo_main(["--list"], out) == 0
        text = out.getvalue()
        for name in ("baseline", "bursty", "faulty", "overload"):
            assert name in text

    def test_root_cli_dispatches_serve_slo(self):
        out = io.StringIO()
        assert root_main(["serve-slo", "--list"], out) == 0
        assert "baseline" in out.getvalue()


class TestRunning:
    def test_run_scenario_file_writes_report_and_json(self, tmp_path):
        scenario = tiny_scenario_file(tmp_path)
        output = tmp_path / "reports.json"
        trace = tmp_path / "trace.jsonl"
        out = io.StringIO()
        code = slo_main(
            [
                "--scenario",
                str(scenario),
                "--output",
                str(output),
                "--trace",
                str(trace),
            ],
            out,
        )
        assert code == 0
        text = out.getvalue()
        assert "scenario 'cli-tiny'" in text
        assert "deadline miss(es)" in text
        payload = json.loads(output.read_text(encoding="utf-8"))
        report = payload["scenarios"]["cli-tiny"]
        assert report["scenario"]["n_streams"] == 2
        assert report["latency"]["count"] > 0
        assert "environment" in report
        # The trace is real JSONL with one record per line.
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines and all(json.loads(line) for line in lines)

    @pytest.mark.parametrize(
        "overrides, degraded",
        [
            ({}, "0 degraded decision(s) (0.0%)"),
            (
                {"deadline_ms": 30000.0, "faults": ["consult:timeout"]},
                "2 degraded decision(s) (100.0%)",
            ),
        ],
        ids=["clean", "all-timeouts"],
    )
    def test_wall_clock_replay_reports_and_traces(
        self, tmp_path, overrides, degraded
    ):
        scenario = tiny_scenario_file(
            tmp_path,
            **{"clock": "wall", "deadline_ms": None, **overrides},
        )
        trace = tmp_path / "wall.jsonl"
        out = io.StringIO()
        code = slo_main(
            ["--scenario", str(scenario), "--trace", str(trace)], out
        )
        assert code == 0
        text = out.getvalue()
        assert "wall clock" in text
        assert "2/2 decided" in text
        assert degraded in text
        trips = int(re.search(r"breaker +(\d+) trip", text).group(1))
        assert (trips >= 1) == bool(overrides)
        records = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        assert {"replay", "push"} <= {r.get("name") for r in records}
        # Each completed stream is an event on the replay span.
        completed = [
            event["attributes"]
            for r in records
            if r.get("name") == "replay"
            for event in r.get("events") or ()
            if event["name"] == "stream_completed"
        ]
        assert len(completed) == 2
        assert all(c["decided_at"] is not None for c in completed)


    @pytest.mark.parametrize("shards", ["0", "2"])
    def test_corrupt_and_replicate_work_with_and_without_shards(
        self, tmp_path, shards
    ):
        scenario = tiny_scenario_file(tmp_path)
        output = tmp_path / "reports.json"
        out = io.StringIO()
        code = slo_main(
            [
                "--scenario", str(scenario),
                "--shards", shards,
                "--corrupt", "missing_blocks:3",
                "--replicate", "2",
                "--output", str(output),
            ],
            out,
        )
        assert code == 0
        assert "corruption" in out.getvalue()
        report = json.loads(output.read_text(encoding="utf-8"))[
            "scenarios"
        ]["cli-tiny"]
        assert report["scenario"]["n_streams"] == 4
        assert report["counters"]["serve.corrupted_points"] > 0
        assert ("fleet" in report) == (shards != "0")


class TestExitCodes:
    def test_unknown_scenario_is_a_config_error(self):
        out = io.StringIO()
        assert slo_main(["--scenario", "no-such-scenario"], out) == 2
        assert "scenario file not found" in out.getvalue()

    def test_malformed_scenario_fails_fast(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"name": "bad", "streams": [], "clock": "virtual"}),
            encoding="utf-8",
        )
        out = io.StringIO()
        assert slo_main(["--scenario", str(path)], out) == 2
        assert "non-empty" in out.getvalue()

    def test_bad_fault_spec_in_a_scenario_file_is_a_config_error(
        self, tmp_path
    ):
        scenario = tiny_scenario_file(tmp_path, faults=["network:melt"])
        out = io.StringIO()
        assert slo_main(["--scenario", str(scenario)], out) == 2
        assert "error: unknown fault stage 'network'" in out.getvalue()

    def test_unknown_algorithm_fails_before_any_training(
        self, tmp_path, monkeypatch
    ):
        trained = []
        monkeypatch.setattr(
            "repro.slo.harness.wrap_for_dataset",
            lambda factory, train: trained.append(train),
        )
        scenario = tiny_scenario_file(
            tmp_path,
            streams=[
                {"dataset": "PowerCons", "algorithm": "TEASER"},
                {"dataset": "PowerCons", "algorithm": "ORACLE"},
            ],
        )
        out = io.StringIO()
        assert slo_main(["--scenario", str(scenario)], out) == 2
        text = out.getvalue()
        assert "error: unknown algorithm name(s): ORACLE" in text
        assert "(registered: ECEC, " in text
        assert trained == []

    @pytest.mark.parametrize("flag", ["--kill-shard", "--hang-shard"])
    def test_shard_faults_without_shards_are_a_config_error(
        self, tmp_path, monkeypatch, flag
    ):
        trained = []
        monkeypatch.setattr(
            "repro.slo.harness.wrap_for_dataset",
            lambda factory, train: trained.append(train),
        )
        scenario = tiny_scenario_file(tmp_path)
        out = io.StringIO()
        code = slo_main(["--scenario", str(scenario), flag, "0@1"], out)
        assert code == 2
        assert (
            "names shard 0 but the fleet has only 0 shard(s)"
            in out.getvalue()
        )
        assert trained == []

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--policy", "degrade"),
            ("--max-active", "1"),
            ("--admission-capacity", "4"),
            ("--tick-events", "3"),
            ("--heartbeat-timeout", "5"),
            ("--failover-limit", "1"),
        ],
    )
    def test_fleet_flags_without_shards_are_a_config_error(
        self, tmp_path, monkeypatch, flag, value
    ):
        trained = []
        monkeypatch.setattr(
            "repro.slo.harness.wrap_for_dataset",
            lambda factory, train: trained.append(train),
        )
        scenario = tiny_scenario_file(tmp_path)
        out = io.StringIO()
        code = slo_main(["--scenario", str(scenario), flag, value], out)
        assert code == 2
        text = out.getvalue()
        assert text.startswith("error: ") and flag in text
        assert "--shards" in text
        assert trained == []

    def test_unknown_key_error_is_actionable(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(
            json.dumps(
                {
                    "name": "typo",
                    "deadline": 10,
                    "streams": [
                        {"dataset": "PowerCons", "algorithm": "ECTS"}
                    ],
                }
            ),
            encoding="utf-8",
        )
        out = io.StringIO()
        assert slo_main(["--scenario", str(path)], out) == 2
        text = out.getvalue()
        assert "unknown key(s)" in text and "deadline_ms" in text
