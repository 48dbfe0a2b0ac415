"""The kernel backend must not leak into fleet reports.

Two guarantees, asserted through the real ``serve-slo --shards 2
--replicate`` CLI path (which trains real classifiers and batches fallback consults
through the prefix kernels). The ``naive`` reference is substituted by
patching ``repro.stats.backends.DEFAULT_BACKEND``; forked shard workers
inherit the patched value.

* **Determinism per backend**: a double run on the same backend produces
  byte-identical reports — the kernels introduce no hidden state or
  ordering nondeterminism.
* **No leakage across exact backends**: ``naive`` and ``numpy`` declare
  every serving-path op exact (bit-identical), so their reports must be
  byte-identical to each other — the reference kernels are invisible to
  serving behaviour, not just "close".
"""

import io
import json

import pytest

import repro.stats.backends
from repro.slo.cli import main as slo_main

from .test_cli import tiny_scenario_file


def _run_fleet(scenario, tmp_path, tag):
    output = tmp_path / f"{tag}.json"
    out = io.StringIO()
    argv = [
        "--scenario", str(scenario),
        "--shards", "2",
        "--tick-events", "16",
        "--replicate", "2",
        "--output", str(output),
    ]
    assert slo_main(argv, out) == 0
    payload = json.loads(output.read_text(encoding="utf-8"))
    report = payload["scenarios"]["cli-tiny"]
    # Host/interpreter metadata legitimately varies between runs.
    report.pop("environment")
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("backend", ("naive", "numpy"))
def test_replicated_double_run_is_byte_identical(
    backend, tmp_path, monkeypatch
):
    monkeypatch.setattr(repro.stats.backends, "DEFAULT_BACKEND", backend)
    assert repro.stats.backends.get_backend().name == backend
    scenario = tiny_scenario_file(tmp_path)
    first = _run_fleet(scenario, tmp_path, f"{backend}-a")
    second = _run_fleet(scenario, tmp_path, f"{backend}-b")
    assert first == second, f"double run diverged under {backend!r}"
    assert backend not in first, "backend name leaked into the report"


def test_exact_backends_produce_identical_reports(tmp_path, monkeypatch):
    scenario = tiny_scenario_file(tmp_path)
    numpy_report = _run_fleet(scenario, tmp_path, "numpy")
    monkeypatch.setattr(repro.stats.backends, "DEFAULT_BACKEND", "naive")
    naive = _run_fleet(scenario, tmp_path, "naive")
    assert naive == numpy_report, (
        "naive and numpy backends disagree on serving behaviour"
    )
