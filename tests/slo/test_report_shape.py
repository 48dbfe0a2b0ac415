"""One report shape for both serving drivers, pinned to the committed files.

``cli-tiny`` (ECTS on PowerCons, scale 0.08) is replayed in process and
through a two-shard fleet. Both drivers return a :class:`ScenarioReport`.
Without the fleet section its nested keys are those of a committed
``BENCH_SERVE.json`` entry, with it those of a ``BENCH_FLEET.json``
entry; and ``serve-slo --output`` writes exactly what the library
drivers return, environment aside.
"""

import io
import json
from pathlib import Path

import pytest

from repro.fleet import FleetConfig, run_fleet
from repro.slo import ScenarioReport, load_scenario, run_scenario
from repro.slo.cli import main as slo_main
from tests.fleet.test_cli import tiny_scenario_file

REPO_ROOT = Path(__file__).resolve().parents[2]


def key_paths(value, prefix=""):
    """Every nested key path; counter names are data, not shape."""
    if isinstance(value, list):
        return {
            path for item in value for path in key_paths(item, prefix + "[]")
        }
    if not isinstance(value, dict):
        return set()
    paths = set()
    for key, child in value.items():
        path = f"{prefix}/{key}"
        paths.add(path)
        if key != "counters":
            paths |= key_paths(child, path)
    return paths


def committed_entries(filename, section):
    payload = json.loads((REPO_ROOT / filename).read_text(encoding="utf-8"))
    return list(payload[section].values())


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tiny_scenario_file(tmp_path_factory.mktemp("shape"))


@pytest.fixture(scope="module")
def reports(scenario_path):
    scenario = load_scenario(scenario_path)
    return {
        0: run_scenario(scenario),
        2: run_fleet(scenario, FleetConfig(n_shards=2)),
    }


@pytest.mark.parametrize(
    "shards, filename, section",
    [(0, "BENCH_SERVE.json", "scenarios"), (2, "BENCH_FLEET.json", "fleets")],
    ids=["in-process", "fleet"],
)
def test_keys_match_the_committed_trajectory(
    reports, shards, filename, section
):
    report = reports[shards]
    assert isinstance(report, ScenarioReport)
    assert (report.fleet is not None) == bool(shards)
    ours = key_paths(report.deterministic_dict())
    for entry in committed_entries(filename, section):
        entry.pop("environment", None)
        assert key_paths(entry) == ours


@pytest.mark.parametrize("shards", [0, 2])
def test_cli_output_equals_the_library_driver(
    reports, scenario_path, tmp_path, shards
):
    output = tmp_path / "reports.json"
    argv = [
        "--scenario", str(scenario_path),
        "--shards", str(shards),
        "--output", str(output),
    ]
    assert slo_main(argv, io.StringIO()) == 0
    written = json.loads(output.read_text(encoding="utf-8"))
    report = written["scenarios"]["cli-tiny"]
    assert "wall_seconds" in report.pop("environment")
    expected = json.loads(json.dumps(reports[shards].deterministic_dict()))
    assert report == expected
