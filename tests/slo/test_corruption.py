"""Scenario corruption blocks: parsing, replay counters, severity-0
byte-identity, the bundled degraded scenario, and the --corrupt CLI."""

import io
import json

import pytest

from repro.core import AlgorithmRegistry, DatasetRegistry
from repro.etsc import ECTS
from repro.exceptions import ConfigurationError
from repro.slo import (
    bundled_scenarios,
    parse_scenario,
    resolve_scenario,
    run_scenario,
)
from repro.slo.cli import main as slo_main
from tests.conftest import make_sinusoid_dataset
from tests.slo.test_cli import tiny_scenario_file


def tiny_registries():
    algorithms = AlgorithmRegistry()
    algorithms.register("ECTS", lambda: ECTS(support=0.0))
    datasets = DatasetRegistry()
    datasets.register(
        "sinusoid", lambda: make_sinusoid_dataset(24, length=20, noise=0.1)
    )
    return algorithms, datasets


def tiny_scenario(**overrides):
    raw = {
        "name": "tiny-corrupt",
        "seed": 3,
        "clock": "virtual",
        "deadline_ms": 12.0,
        "stagger_ms": 7.0,
        "arrival": {"process": "uniform", "period_ms": 40.0},
        "service": {"base_ms": 1.0, "per_point_ms": 0.1, "jitter_ms": 0.5},
        "streams": [{"dataset": "sinusoid", "algorithm": "ECTS", "count": 3}],
    }
    raw.update(overrides)
    return parse_scenario(raw)


def replay(scenario):
    algorithms, datasets = tiny_registries()
    return run_scenario(scenario, algorithms=algorithms, datasets=datasets)


class TestParsing:
    def test_corruption_block_parses(self):
        scenario = tiny_scenario(
            corruption={"ops": ["missing_blocks:2", "additive_noise:1@mid"]}
        )
        assert scenario.corruption.ops == (
            "missing_blocks:2", "additive_noise:1@mid",
        )
        assert scenario.corruption.seed is None
        assert scenario.corruptor() is not None

    def test_unknown_corruption_key_rejected(self):
        with pytest.raises(ConfigurationError, match="corruption"):
            tiny_scenario(
                corruption={"ops": ["missing_blocks:2"], "spice": 11}
            )

    def test_empty_ops_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            tiny_scenario(corruption={"ops": []})

    def test_stream_incompatible_op_fails_at_parse_time(self):
        with pytest.raises(ConfigurationError, match="no push-time"):
            tiny_scenario(corruption={"ops": ["label_noise:3"]})

    def test_malformed_spec_fails_at_parse_time(self):
        with pytest.raises(ConfigurationError, match="op:severity"):
            tiny_scenario(corruption={"ops": ["missing_blocks"]})

    def test_severity_zero_pipeline_yields_no_corruptor(self):
        scenario = tiny_scenario(corruption={"ops": ["missing_blocks:0"]})
        assert scenario.corruption is not None
        assert scenario.corruptor() is None

    def test_block_seed_overrides_scenario_seed(self):
        scenario = tiny_scenario(
            corruption={"ops": ["missing_blocks:2"], "seed": 17}
        )
        assert scenario.corruptor().seed == 17
        defaulted = tiny_scenario(corruption={"ops": ["missing_blocks:2"]})
        assert defaulted.corruptor().seed == defaulted.seed


class TestReplay:
    def test_corruption_counters_flow_into_the_report(self):
        report = replay(
            tiny_scenario(corruption={"ops": ["missing_blocks:4"]})
        )
        assert report.counters["serve.corrupted_points"] > 0
        assert (
            report.counters["serve.corruption.missing_blocks"]
            == report.counters["serve.corrupted_points"]
        )
        assert "corruption" in report.render()
        assert "missing_blocks" in report.render()

    def test_corrupted_replay_is_deterministic(self):
        scenario = {"ops": ["missing_blocks:3", "additive_noise:2@tail"]}
        first = replay(tiny_scenario(corruption=scenario))
        second = replay(tiny_scenario(corruption=scenario))
        assert json.dumps(
            first.deterministic_dict(), sort_keys=True
        ) == json.dumps(second.deterministic_dict(), sort_keys=True)

    def test_severity_zero_is_byte_identical_to_clean(self):
        clean = replay(tiny_scenario())
        noop = replay(
            tiny_scenario(
                corruption={
                    "ops": ["missing_blocks:0", "additive_noise:0"]
                }
            )
        )
        assert json.dumps(
            clean.deterministic_dict(), sort_keys=True
        ) == json.dumps(noop.deterministic_dict(), sort_keys=True)

    def test_corruption_changes_the_trajectory(self):
        clean = replay(tiny_scenario())
        corrupted = replay(
            tiny_scenario(corruption={"ops": ["missing_blocks:5"]})
        )
        assert json.dumps(
            clean.deterministic_dict(), sort_keys=True
        ) != json.dumps(corrupted.deterministic_dict(), sort_keys=True)


class TestBundledDegradedScenario:
    def test_degraded_is_bundled(self):
        assert "degraded" in bundled_scenarios()

    def test_degraded_declares_corruption(self):
        scenario = resolve_scenario("degraded")
        assert scenario.corruption is not None
        assert scenario.corruptor() is not None
        assert any(
            "missing_blocks" in op for op in scenario.corruption.ops
        )


class TestCorruptCliFlag:
    def test_corrupt_override_reaches_the_report(self, tmp_path):
        scenario = tiny_scenario_file(tmp_path)
        output = tmp_path / "reports.json"
        out = io.StringIO()
        code = slo_main(
            [
                "--scenario", str(scenario),
                "--corrupt", "missing_blocks:3",
                "--output", str(output),
            ],
            out,
        )
        assert code == 0
        assert "corruption" in out.getvalue()
        payload = json.loads(output.read_text(encoding="utf-8"))
        counters = payload["scenarios"]["cli-tiny"]["counters"]
        assert counters["serve.corrupted_points"] > 0

    def test_corruption_seed_without_corrupt_is_a_usage_error(
        self, tmp_path
    ):
        out = io.StringIO()
        code = slo_main(
            [
                "--scenario", str(tiny_scenario_file(tmp_path)),
                "--corruption-seed", "7",
            ],
            out,
        )
        assert code == 2
        text = out.getvalue()
        assert "--corruption-seed" in text and "--corrupt " in text
        assert "scenario 'cli-tiny'" not in text

    def test_malformed_corrupt_spec_is_a_usage_error(self, tmp_path):
        out = io.StringIO()
        code = slo_main(
            [
                "--scenario", str(tiny_scenario_file(tmp_path)),
                "--corrupt", "label_noise:3",
            ],
            out,
        )
        assert code == 2
        assert "no push-time" in out.getvalue()
