"""Tests for the Friedman/Nemenyi significance toolchain."""

import numpy as np
import pytest

from repro.core.significance import (
    SignificanceReport,
    compare_algorithms,
    friedman_test,
    nemenyi_critical_difference,
    rank_matrix,
)
from repro.exceptions import DataError


class TestRankMatrix:
    def test_higher_is_better_ranks(self):
        scores = np.asarray([[0.9, 0.5, 0.7]])
        np.testing.assert_array_equal(
            rank_matrix(scores, higher_is_better=True), [[1, 3, 2]]
        )

    def test_lower_is_better_ranks(self):
        scores = np.asarray([[0.9, 0.5, 0.7]])
        np.testing.assert_array_equal(
            rank_matrix(scores, higher_is_better=False), [[3, 1, 2]]
        )

    def test_ties_share_average_rank(self):
        scores = np.asarray([[0.5, 0.5, 0.1]])
        np.testing.assert_allclose(rank_matrix(scores), [[1.5, 1.5, 3.0]])

    def test_nan_ranked_worst(self):
        scores = np.asarray([[0.9, np.nan, 0.7]])
        ranks = rank_matrix(scores)
        assert ranks[0, 1] == 3.0

    def test_rejects_non_2d(self):
        with pytest.raises(DataError):
            rank_matrix(np.asarray([1.0, 2.0]))


class TestFriedman:
    def test_consistent_rankings_are_significant(self):
        # One algorithm always best, one always worst across 10 datasets.
        ranks = np.tile([1.0, 2.0, 3.0], (10, 1))
        chi_squared, iman_davenport, p_value = friedman_test(ranks)
        assert chi_squared == pytest.approx(20.0)
        assert iman_davenport == float("inf")
        assert p_value == 0.0

    def test_random_rankings_not_significant(self, rng):
        scores = rng.normal(size=(12, 4))
        ranks = rank_matrix(scores)
        _, _, p_value = friedman_test(ranks)
        assert p_value > 0.01

    def test_requires_two_by_two(self):
        with pytest.raises(DataError):
            friedman_test(np.asarray([[1.0, 2.0]]))


class TestNemenyi:
    def test_reference_value(self):
        # Demsar's example scale: CD grows with k, shrinks with N.
        cd_small = nemenyi_critical_difference(3, 20)
        cd_large = nemenyi_critical_difference(8, 20)
        assert cd_small < cd_large
        more_data = nemenyi_critical_difference(3, 100)
        assert more_data < cd_small

    def test_known_value_k5_n10(self):
        cd = nemenyi_critical_difference(5, 10)
        assert cd == pytest.approx(2.728 * np.sqrt(5 * 6 / 60.0), rel=1e-6)

    def test_untabulated_k_rejected(self):
        with pytest.raises(DataError):
            nemenyi_critical_difference(11, 10)

    def test_only_alpha_005(self):
        with pytest.raises(DataError):
            nemenyi_critical_difference(3, 10, alpha=0.01)


class TestCompareAlgorithms:
    def _report(self):
        from repro.core import AlgorithmRegistry, BenchmarkRunner, DatasetRegistry
        from repro.etsc import ECTS, TEASER
        from tests.conftest import make_sinusoid_dataset

        algorithms = AlgorithmRegistry()
        algorithms.register("ECTS", ECTS)
        algorithms.register("TEASER", lambda: TEASER(n_prefixes=4))
        datasets = DatasetRegistry()
        for seed in range(3):
            datasets.register(
                f"toy{seed}",
                lambda seed=seed: make_sinusoid_dataset(
                    20, seed=seed, name=f"toy{seed}"
                ),
            )
        return BenchmarkRunner(algorithms, datasets, n_folds=2).run()

    def test_full_analysis(self):
        report = compare_algorithms(self._report(), metric="accuracy")
        assert isinstance(report, SignificanceReport)
        assert set(report.algorithms) == {"ECTS", "TEASER"}
        assert len(report.average_ranks) == 2
        assert all(1.0 <= rank <= 2.0 for rank in report.average_ranks)
        markdown = report.to_markdown()
        assert "average rank" in markdown
        assert "Nemenyi" in markdown

    def test_earliness_metric_flips_orientation(self):
        from repro.core import RunReport
        from repro.core.evaluation import EvaluationResult, FoldResult

        def result(algorithm, dataset, earliness):
            fold = FoldResult(0.9, 0.9, earliness, 0.5, 1.0, 1.0, 4)
            return EvaluationResult(algorithm, dataset, (fold,))

        report = RunReport()
        for dataset in ("d1", "d2"):
            report.results[("EARLY", dataset)] = result("EARLY", dataset, 0.2)
            report.results[("LATE", dataset)] = result("LATE", dataset, 0.9)
        by_earliness = compare_algorithms(report, metric="earliness")
        ranks = dict(zip(by_earliness.algorithms, by_earliness.average_ranks))
        # Lower earliness is better -> EARLY must take rank 1 everywhere.
        assert ranks["EARLY"] == 1.0
        assert ranks["LATE"] == 2.0

    def test_significantly_different_uses_cd(self):
        report = SignificanceReport(
            algorithms=("A", "B"),
            average_ranks=(1.0, 2.0),
            chi_squared=1.0,
            iman_davenport=1.0,
            p_value=0.5,
            critical_difference=0.5,
        )
        assert report.significantly_different("A", "B")
        wide = SignificanceReport(
            algorithms=("A", "B"),
            average_ranks=(1.0, 1.2),
            chi_squared=1.0,
            iman_davenport=1.0,
            p_value=0.5,
            critical_difference=0.5,
        )
        assert not wide.significantly_different("A", "B")

    def test_cd_diagram_renders(self):
        report = SignificanceReport(
            algorithms=("A", "B", "C"),
            average_ranks=(1.2, 2.0, 2.8),
            chi_squared=5.0,
            iman_davenport=4.0,
            p_value=0.03,
            critical_difference=0.9,
        )
        diagram = report.cd_diagram(width=40)
        lines = diagram.splitlines()
        assert lines[0].startswith("CD ")
        assert diagram.count("+") == 3
        assert "A (1.20)" in diagram
        assert "C (2.80)" in diagram
        # Best-ranked algorithm listed first.
        assert diagram.index("A (1.20)") < diagram.index("B (2.00)")
