"""Tests for the One-Class SVM, standard scaler, and feature selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError, NotFittedError
from repro.stats import (
    OneClassSVM,
    SelectKBest,
    StandardScaler,
    chi2_scores,
    information_gain,
    rbf_kernel,
)


class TestRbfKernel:
    def test_diagonal_is_one(self, rng):
        rows = rng.normal(size=(5, 3))
        kernel = rbf_kernel(rows, rows, gamma=0.5)
        np.testing.assert_allclose(np.diag(kernel), 1.0)

    def test_values_in_unit_interval(self, rng):
        kernel = rbf_kernel(
            rng.normal(size=(4, 2)), rng.normal(size=(6, 2)), gamma=1.0
        )
        assert ((kernel > 0) & (kernel <= 1)).all()

    def test_rejects_non_positive_gamma(self):
        with pytest.raises(DataError):
            rbf_kernel(np.zeros((2, 2)), np.zeros((2, 2)), gamma=0.0)


class TestOneClassSVM:
    def test_training_rejection_near_nu(self, rng):
        rows = rng.normal(size=(200, 2))
        model = OneClassSVM(nu=0.2).fit(rows)
        rejected = (model.predict(rows) == -1).mean()
        assert rejected == pytest.approx(0.2, abs=0.05)

    def test_far_outliers_rejected(self, rng):
        rows = rng.normal(size=(100, 2))
        model = OneClassSVM(nu=0.05).fit(rows)
        outliers = np.full((5, 2), 50.0)
        assert (model.predict(outliers) == -1).all()

    def test_center_of_mass_accepted(self, rng):
        rows = rng.normal(size=(100, 2))
        model = OneClassSVM(nu=0.1).fit(rows)
        assert model.predict(np.zeros((1, 2)))[0] == 1

    def test_decision_function_sign_consistent_with_predict(self, rng):
        rows = rng.normal(size=(60, 3))
        model = OneClassSVM(nu=0.15).fit(rows)
        queries = rng.normal(size=(20, 3)) * 3
        scores = model.decision_function(queries)
        np.testing.assert_array_equal(
            np.where(scores >= 0, 1, -1), model.predict(queries)
        )

    def test_tiny_training_set(self):
        model = OneClassSVM(nu=0.5).fit(np.asarray([[0.0, 0.0], [0.1, 0.1]]))
        assert model.predict(np.asarray([[0.05, 0.05]])).shape == (1,)

    def test_constant_rows_handled(self):
        model = OneClassSVM(nu=0.3).fit(np.ones((10, 2)))
        assert model.predict(np.ones((1, 2)))[0] in (-1, 1)

    @pytest.mark.parametrize("nu", [0.0, 1.5, -0.2])
    def test_bad_nu_rejected(self, nu):
        with pytest.raises(DataError):
            OneClassSVM(nu=nu)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            OneClassSVM().predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected_with_their_count(self, rng, bad):
        # Before this check the fit "succeeded" with NaN alpha and rho,
        # and the model rejected every sample.
        rows = rng.normal(size=(6, 3))
        rows[1, 0] = bad
        rows[4, 2] = bad
        rows[4, 1] = bad
        with pytest.raises(DataError, match="2 of 6 row"):
            OneClassSVM(nu=0.2).fit(rows)


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        matrix = rng.normal(5, 3, size=(100, 4))
        scaled = StandardScaler().fit_transform(matrix)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_untouched(self):
        matrix = np.column_stack([np.ones(10), np.arange(10.0)])
        scaled = StandardScaler().fit_transform(matrix)
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_transform_uses_training_statistics(self, rng):
        train = rng.normal(0, 1, size=(50, 2))
        scaler = StandardScaler().fit(train)
        shifted = train + 100.0
        expected = float(
            (scaler.transform(train) + 100.0 / scaler.scale_).mean()
        )
        assert scaler.transform(shifted).mean() == pytest.approx(expected)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestChi2:
    def test_informative_feature_scores_higher(self, rng):
        labels = np.asarray([0] * 50 + [1] * 50)
        informative = np.where(labels == 1, 5.0, 0.0) + rng.uniform(
            0, 0.1, 100
        )
        noise = rng.uniform(0, 5, 100)
        scores = chi2_scores(
            np.column_stack([informative, noise]), labels
        )
        assert scores[0] > scores[1]

    def test_zero_column_scores_zero(self):
        labels = np.asarray([0, 1, 0, 1])
        scores = chi2_scores(np.zeros((4, 2)), labels)
        np.testing.assert_allclose(scores, 0.0)

    def test_negative_features_rejected(self):
        with pytest.raises(DataError):
            chi2_scores(np.asarray([[-1.0]]), np.asarray([0]))

    def test_select_k_best_keeps_top(self, rng):
        labels = np.asarray([0] * 30 + [1] * 30)
        strong = np.where(labels == 1, 10.0, 0.0)
        features = np.column_stack(
            [rng.uniform(0, 1, 60), strong, rng.uniform(0, 1, 60)]
        )
        selector = SelectKBest(1).fit(features, labels)
        assert selector.selected_.tolist() == [1]
        assert selector.transform(features).shape == (60, 1)

    def test_select_k_larger_than_features_keeps_all(self, rng):
        features = rng.uniform(0, 1, size=(20, 3))
        labels = np.asarray([0, 1] * 10)
        assert SelectKBest(10).fit_transform(features, labels).shape == (20, 3)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            SelectKBest(1).transform(np.zeros((2, 2)))

    @given(k=st.integers(-3, 0))
    @settings(max_examples=4, deadline=None)
    def test_bad_k_rejected(self, k):
        with pytest.raises(DataError):
            SelectKBest(k)


class TestInformationGain:
    def test_perfect_split_gains_full_entropy(self):
        values = np.asarray([0.0, 1.0, 2.0, 3.0])
        labels = np.asarray([0, 0, 1, 1])
        assert information_gain(values, labels, 1.5) == pytest.approx(1.0)

    def test_useless_split_gains_nothing(self):
        values = np.asarray([0.0, 1.0, 2.0, 3.0])
        labels = np.asarray([0, 1, 0, 1])
        assert information_gain(values, labels, 1.5) == pytest.approx(0.0)

    def test_gain_never_negative(self, rng):
        values = rng.normal(size=40)
        labels = rng.integers(0, 2, 40)
        for split in np.quantile(values, [0.25, 0.5, 0.75]):
            assert information_gain(values, labels, split) >= -1e-12
