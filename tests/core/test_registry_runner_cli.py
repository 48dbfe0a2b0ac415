"""Tests for the registries, the grid runner, and the CLI."""

import io

import numpy as np
import pytest

from repro.core import (
    AlgorithmRegistry,
    BenchmarkRunner,
    DatasetRegistry,
    EarlyClassifier,
    EarlyPrediction,
    default_algorithms,
    default_datasets,
)
from repro.core.cli import build_parser, main
from repro.core.runner import aggregate_by_category
from repro.core.categorization import canonical_categories
from repro.exceptions import RegistryError
from tests.conftest import make_sinusoid_dataset


class _FastEarly(EarlyClassifier):
    supports_multivariate = True

    def _train(self, dataset):
        values, counts = np.unique(dataset.labels, return_counts=True)
        self._majority = int(values[counts.argmax()])

    def _predict(self, dataset):
        return [
            EarlyPrediction(self._majority, 1, dataset.length)
            for _ in range(dataset.n_instances)
        ]


class _FailingEarly(_FastEarly):
    def _train(self, dataset):
        from repro.exceptions import ConvergenceError

        raise ConvergenceError("deliberate failure")


class TestAlgorithmRegistry:
    def test_register_and_get(self):
        registry = AlgorithmRegistry()
        registry.register("fast", _FastEarly, category="model-based")
        info = registry.get("fast")
        assert info.category == "model-based"
        assert info.language == "Python"
        assert "fast" in registry
        assert len(registry) == 1

    def test_duplicate_rejected(self):
        registry = AlgorithmRegistry()
        registry.register("fast", _FastEarly)
        with pytest.raises(RegistryError, match="already"):
            registry.register("fast", _FastEarly)

    def test_unknown_name_lists_known(self):
        registry = AlgorithmRegistry()
        registry.register("fast", _FastEarly)
        with pytest.raises(RegistryError, match="fast"):
            registry.get("slow")

    def test_default_algorithms_match_table2(self):
        registry = default_algorithms()
        assert set(registry.names()) == {
            "ECEC", "ECO-K", "ECTS", "EDSC", "TEASER",
            "S-MINI", "S-WEASEL", "S-MLSTM",
        }
        assert registry.get("ECEC").category == "model-based"
        assert registry.get("ECTS").category == "prefix-based"
        assert registry.get("EDSC").category == "shapelet-based"
        assert registry.get("S-MINI").supports_multivariate

    def test_paper_parameter_profile_builds(self):
        registry = default_algorithms(fast=False)
        # Constructing the factories must work; don't train (slow).
        for info in registry:
            assert isinstance(info.factory(), EarlyClassifier)


class TestDatasetRegistry:
    def test_register_and_load(self):
        registry = DatasetRegistry()
        registry.register("toy", lambda: make_sinusoid_dataset(10))
        assert registry.load("toy").n_instances == 10

    def test_duplicate_rejected(self):
        registry = DatasetRegistry()
        registry.register("toy", lambda: make_sinusoid_dataset(10))
        with pytest.raises(RegistryError):
            registry.register("toy", lambda: make_sinusoid_dataset(10))

    def test_unknown_rejected(self):
        with pytest.raises(RegistryError):
            DatasetRegistry().load("nothing")

    def test_default_datasets_are_the_papers_twelve(self):
        registry = default_datasets(scale=0.05)
        assert len(registry) == 12
        for name in registry.names():
            assert canonical_categories(name) is not None


def _toy_registries(include_failing=False):
    algorithms = AlgorithmRegistry()
    algorithms.register("FAST", _FastEarly)
    if include_failing:
        algorithms.register("BROKEN", _FailingEarly)
    datasets = DatasetRegistry()
    datasets.register(
        "PowerCons", lambda: make_sinusoid_dataset(20, name="PowerCons")
    )
    datasets.register(
        "LSST",
        lambda: make_sinusoid_dataset(
            20, n_variables=2, name="LSST"
        ),
    )
    return algorithms, datasets


class TestRunner:
    def test_grid_produces_results_and_categories(self):
        algorithms, datasets = _toy_registries()
        report = BenchmarkRunner(algorithms, datasets, n_folds=2).run()
        assert set(report.results) == {
            ("FAST", "PowerCons"), ("FAST", "LSST")
        }
        # Canonical Table 3 assignments are used for the papers' names.
        assert report.categories["PowerCons"].common
        assert report.categories["LSST"].large

    def test_failures_recorded_not_raised(self):
        algorithms, datasets = _toy_registries(include_failing=True)
        report = BenchmarkRunner(algorithms, datasets, n_folds=2).run()
        assert ("BROKEN", "PowerCons") in report.failures
        assert "deliberate" in report.failures[("BROKEN", "PowerCons")]
        assert ("FAST", "PowerCons") in report.results

    def test_metric_by_category_aggregates(self):
        algorithms, datasets = _toy_registries()
        report = BenchmarkRunner(algorithms, datasets, n_folds=2).run()
        table = report.metric_by_category("accuracy")
        assert "Common" in table
        assert "FAST" in table["Common"]

    def test_unknown_metric_rejected(self):
        algorithms, datasets = _toy_registries()
        report = BenchmarkRunner(algorithms, datasets, n_folds=2).run()
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            report.metric_by_category("rmse")

    def test_time_budget_records_timeout(self):
        algorithms, datasets = _toy_registries()
        runner = BenchmarkRunner(
            algorithms, datasets, n_folds=2, time_budget_seconds=0.0
        )
        report = runner.run()
        assert report.failures
        assert all("budget" in reason for reason in report.failures.values())

    def test_subgrid_selection(self):
        algorithms, datasets = _toy_registries()
        report = BenchmarkRunner(algorithms, datasets, n_folds=2).run(
            dataset_names=["PowerCons"]
        )
        assert set(report.results) == {("FAST", "PowerCons")}

    def test_online_feasibility_cells(self):
        algorithms, datasets = _toy_registries()
        datasets_with_frequency = DatasetRegistry()
        datasets_with_frequency.register(
            "PowerCons",
            lambda: make_sinusoid_dataset(20, name="PowerCons"),
        )
        report = BenchmarkRunner(
            algorithms, datasets_with_frequency, n_folds=2
        ).run(algorithm_names=["FAST"])
        # The toy dataset carries no frequency -> no cells.
        assert report.online_feasibility() == {}


class TestAggregation:
    def test_mean_over_member_datasets(self):
        from repro.core.evaluation import EvaluationResult, FoldResult

        def result(value):
            fold = FoldResult(value, value, 0.5, 0.5, 1.0, 1.0, 4)
            return EvaluationResult("A", "D", (fold,))

        results = {
            ("A", "PowerCons"): result(0.8),
            ("A", "DodgerLoopGame"): result(0.6),
        }
        categories = {
            "PowerCons": canonical_categories("PowerCons"),
            "DodgerLoopGame": canonical_categories("DodgerLoopGame"),
        }
        table = aggregate_by_category(results, categories, "accuracy")
        assert table["Common"]["A"] == pytest.approx(0.7)
        assert table["Univariate"]["A"] == pytest.approx(0.7)


class TestCli:
    def test_list_mode(self):
        out = io.StringIO()
        assert main(["--list"], out=out) == 0
        text = out.getvalue()
        assert "ECEC" in text
        assert "Maritime" in text

    def test_parser_defaults(self):
        arguments = build_parser().parse_args([])
        assert arguments.scale == 0.1
        assert arguments.folds == 5

    def test_tiny_run(self):
        out = io.StringIO()
        code = main(
            [
                "--algorithms", "ECTS",
                "--datasets", "PowerCons",
                "--scale", "0.08",
                "--folds", "2",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "ECTS on PowerCons" in text
        assert "accuracy by dataset category" in text


class TestCliExtras:
    def test_list_shows_exactly_the_default_algorithms(self):
        out = io.StringIO()
        assert main(["--list"], out=out) == 0
        lines = out.getvalue().splitlines()
        listed = lines[1 : lines.index("datasets:")]
        assert [line.split()[0] for line in listed] == [
            info.name for info in default_algorithms()
        ]
        assert len(listed) == 8

    def test_extended_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--list", "--extended"], out=io.StringIO())
        assert exit_info.value.code == 2
        assert "--extended" in capsys.readouterr().err

    def test_save_report_and_significance(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "run.json"
        code = main(
            [
                "--algorithms", "ECTS", "TEASER",
                "--datasets", "PowerCons", "DodgerLoopGame",
                "--scale", "0.08",
                "--folds", "2",
                "--save-report", str(path),
                "--significance",
            ],
            out=out,
        )
        assert code == 0
        assert path.exists()
        text = out.getvalue()
        assert "average ranks" in text
        assert "report saved" in text
        from repro.core.results import load_report

        restored = load_report(path)
        assert len(restored.results) == 4

    def test_significance_unavailable_for_single_algorithm(self):
        out = io.StringIO()
        code = main(
            [
                "--algorithms", "ECTS",
                "--datasets", "PowerCons",
                "--scale", "0.08",
                "--folds", "2",
                "--significance",
            ],
            out=out,
        )
        assert code == 0
        assert "significance analysis unavailable" in out.getvalue()


class TestRunnerCategorisationPaths:
    def test_custom_dataset_uses_measured_categories(self):
        algorithms = AlgorithmRegistry()
        algorithms.register("FAST", _FastEarly)
        datasets = DatasetRegistry()
        datasets.register(
            "my-own-data",
            lambda: make_sinusoid_dataset(20, length=50, name="my-own-data"),
        )
        runner = BenchmarkRunner(
            algorithms, datasets, n_folds=2, wide_threshold=40
        )
        report = runner.run()
        # Not one of the paper's twelve -> measured flags with the custom
        # threshold apply: length 50 > 40 makes it Wide.
        assert report.categories["my-own-data"].wide

    def test_frequency_roundtrips_through_persistence(self, tmp_path):
        from repro.core.results import load_report, save_report
        from repro.data import TimeSeriesDataset

        algorithms = AlgorithmRegistry()
        algorithms.register("FAST", _FastEarly)
        datasets = DatasetRegistry()

        def with_frequency():
            base = make_sinusoid_dataset(20, name="timed")
            return TimeSeriesDataset(
                base.values, base.labels, name="timed", frequency_seconds=8.0
            )

        datasets.register("timed", with_frequency)
        report = BenchmarkRunner(algorithms, datasets, n_folds=2).run()
        cells = report.online_feasibility()
        assert ("FAST", "timed") in cells
        path = tmp_path / "report.json"
        save_report(report, path)
        restored = load_report(path)
        assert ("FAST", "timed") in restored.online_feasibility()
