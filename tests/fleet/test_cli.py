"""``etsc-bench serve-slo --shards N``: the fleet through the one command."""

import io
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.slo.cli import main as slo_main
from repro.slo.scenario import parse_scenario, replicate_scenario


def fleet_main(argv, out):
    """``serve-slo`` over a two-shard fleet (later flags override)."""
    return slo_main(["--shards", "2", *argv], out)


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
        "fallback": "prefix-1nn",
    }
    raw.update(overrides)
    path = tmp_path / "cli-tiny.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


class TestListing:
    def test_list_names_bundled_scenarios(self):
        out = io.StringIO()
        assert fleet_main(["--list"], out) == 0
        text = out.getvalue()
        for name in ("baseline", "bursty", "faulty", "overload"):
            assert name in text


class TestReplication:
    def test_replicate_multiplies_every_stream_spec(self):
        scenario = parse_scenario(
            {
                "name": "r",
                "clock": "virtual",
                "streams": [
                    {"dataset": "PowerCons", "algorithm": "ECTS", "count": 2},
                    {"dataset": "PowerCons", "algorithm": "ECTS", "count": 3},
                ],
            }
        )
        scaled = replicate_scenario(scenario, 4)
        assert [spec.count for spec in scaled.streams] == [8, 12]
        assert replicate_scenario(scenario, 1) is scenario

    def test_replicate_factor_must_be_positive(self):
        scenario = parse_scenario(
            {
                "name": "r",
                "clock": "virtual",
                "streams": [
                    {"dataset": "PowerCons", "algorithm": "ECTS", "count": 1}
                ],
            }
        )
        with pytest.raises(ConfigurationError):
            replicate_scenario(scenario, 0)


class TestRunning:
    def test_run_with_kill_writes_report_json_and_trace(self, tmp_path):
        scenario = tiny_scenario_file(tmp_path)
        output = tmp_path / "fleet.json"
        trace = tmp_path / "trace.jsonl"
        out = io.StringIO()
        code = fleet_main(
            [
                "--scenario",
                str(scenario),
                "--tick-events",
                "16",
                "--kill-shard",
                "1@1",
                "--output",
                str(output),
                "--trace",
                str(trace),
            ],
            out,
        )
        assert code == 0
        text = out.getvalue()
        assert "cli-tiny" in text
        assert "failover" in text
        payload = json.loads(output.read_text(encoding="utf-8"))
        report = payload["scenarios"]["cli-tiny"]
        streams = report["streams"]
        # The chaos contract, as CI asserts it: a SIGKILLed shard run
        # completes with every stream accounted and failover on record.
        assert streams["requested"] == 2
        assert streams["requested"] == (
            streams["decided"]
            + streams["no_decision"]
            + streams["degraded"]
            + streams["shed"]
        )
        assert report["slo"]["failovers"] >= 1
        assert "environment" in report
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines and all(json.loads(line) for line in lines)


class TestExitCodes:
    def test_unknown_scenario_is_a_config_error(self):
        out = io.StringIO()
        assert fleet_main(["--scenario", "no-such-scenario"], out) == 2
        assert "scenario file not found" in out.getvalue()

    def test_malformed_fault_spec_fails_fast(self, tmp_path):
        scenario = tiny_scenario_file(tmp_path)
        out = io.StringIO()
        code = fleet_main(
            ["--scenario", str(scenario), "--kill-shard", "nope"], out
        )
        assert code == 2
        assert "fault spec" in out.getvalue()

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
        assert fleet_main(["--scenario", str(scenario)], out) == 2
        text = out.getvalue()
        assert "error: unknown algorithm name(s): ORACLE" in text
        assert "(registered: ECEC, " in text
        assert trained == []

    def test_wall_clock_scenario_is_rejected(self, tmp_path):
        scenario = tiny_scenario_file(
            tmp_path, clock="wall", deadline_ms=None
        )
        out = io.StringIO()
        assert fleet_main(["--scenario", str(scenario)], out) == 2
        assert "virtual" in out.getvalue()
