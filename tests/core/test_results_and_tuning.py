"""Tests for report persistence."""

import pytest

from repro.core import (
    AlgorithmRegistry,
    BenchmarkRunner,
    DatasetRegistry,
)
from repro.core.results import load_report, report_to_markdown, save_report
from repro.etsc import ECTS
from repro.exceptions import DataFormatError
from tests.conftest import make_sinusoid_dataset


@pytest.fixture(scope="module")
def small_report():
    algorithms = AlgorithmRegistry()
    algorithms.register("ECTS", ECTS, category="prefix-based")
    datasets = DatasetRegistry()
    datasets.register(
        "PowerCons", lambda: make_sinusoid_dataset(20, name="PowerCons")
    )
    runner = BenchmarkRunner(algorithms, datasets, n_folds=2)
    return runner.run()


class TestReportPersistence:
    def test_roundtrip(self, small_report, tmp_path):
        path = tmp_path / "report.json"
        save_report(small_report, path)
        loaded = load_report(path)
        assert set(loaded.results) == set(small_report.results)
        original = small_report.results[("ECTS", "PowerCons")]
        restored = loaded.results[("ECTS", "PowerCons")]
        assert restored.accuracy == pytest.approx(original.accuracy)
        assert restored.earliness == pytest.approx(original.earliness)
        assert len(restored.folds) == len(original.folds)

    def test_categories_roundtrip(self, small_report, tmp_path):
        path = tmp_path / "report.json"
        save_report(small_report, path)
        loaded = load_report(path)
        assert (
            loaded.categories["PowerCons"].names()
            == small_report.categories["PowerCons"].names()
        )

    def test_aggregation_works_after_reload(self, small_report, tmp_path):
        path = tmp_path / "report.json"
        save_report(small_report, path)
        loaded = load_report(path)
        table = loaded.metric_by_category("accuracy")
        assert "Common" in table

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(DataFormatError, match="version"):
            load_report(path)

    def test_markdown_rendering(self, small_report):
        markdown = report_to_markdown(small_report)
        assert "| PowerCons |" in markdown
        assert "## accuracy" in markdown
        assert "## earliness" in markdown

    def test_markdown_marks_failures(self, small_report, tmp_path):
        small_report.failures[("GHOST", "PowerCons")] = "did not train"
        try:
            markdown = report_to_markdown(small_report)
            assert "GHOST" in markdown
            assert "--" in markdown
        finally:
            del small_report.failures[("GHOST", "PowerCons")]
