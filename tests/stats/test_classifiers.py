"""Tests for the tabular classifiers: logistic regression, trees, gradient
boosting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError, NotFittedError
from repro.stats import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    LogisticRegression,
    accuracy,
    softmax,
)


def _linearly_separable(rng, n=80, d=4):
    features = rng.normal(size=(n, d))
    labels = (features[:, 0] + features[:, 1] > 0).astype(int)
    return features, labels


def _three_class(rng, n=90):
    features = rng.normal(size=(n, 2))
    angles = np.arctan2(features[:, 1], features[:, 0])
    labels = np.digitize(angles, [-np.pi / 3, np.pi / 3])
    return features, labels


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        probabilities = softmax(rng.normal(size=(5, 4)))
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_large_logits_stable(self):
        probabilities = softmax(np.asarray([[1000.0, 0.0]]))
        assert np.isfinite(probabilities).all()
        assert probabilities[0, 0] == pytest.approx(1.0)


class TestLogisticRegression:
    def test_separable_data_high_accuracy(self, rng):
        features, labels = _linearly_separable(rng)
        model = LogisticRegression().fit(features, labels)
        assert accuracy(labels, model.predict(features)) > 0.95

    def test_multiclass(self, rng):
        features, labels = _three_class(rng)
        model = LogisticRegression().fit(features, labels)
        assert accuracy(labels, model.predict(features)) > 0.8
        assert model.classes_.tolist() == [0, 1, 2]

    def test_probabilities_valid(self, rng):
        features, labels = _three_class(rng)
        probabilities = (
            LogisticRegression().fit(features, labels).predict_proba(features)
        )
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        assert (probabilities >= 0).all()

    def test_non_contiguous_labels_roundtrip(self, rng):
        features, labels = _linearly_separable(rng)
        shifted = labels * 7 + 3  # labels {3, 10}
        model = LogisticRegression().fit(features, shifted)
        assert set(np.unique(model.predict(features))) <= {3, 10}

    def test_regularisation_shrinks_weights(self, rng):
        features, labels = _linearly_separable(rng)
        loose = LogisticRegression(l2=1e-6).fit(features, labels)
        tight = LogisticRegression(l2=10.0).fit(features, labels)
        assert np.abs(tight.weights_).sum() < np.abs(loose.weights_).sum()

    def test_single_class_training_predicts_it(self, rng):
        features = rng.normal(size=(5, 2))
        model = LogisticRegression().fit(features, np.ones(5, dtype=int))
        assert (model.predict(features) == 1).all()

    def test_feature_count_mismatch_rejected(self, rng):
        features, labels = _linearly_separable(rng)
        model = LogisticRegression().fit(features, labels)
        with pytest.raises(DataError):
            model.predict(np.zeros((1, 99)))

    def test_negative_l2_rejected(self):
        with pytest.raises(DataError):
            LogisticRegression(l2=-1.0)


class TestDecisionTrees:
    def test_regressor_fits_step_function(self):
        features = np.linspace(0, 1, 50)[:, None]
        targets = (features[:, 0] > 0.5).astype(float)
        model = DecisionTreeRegressor(max_depth=2).fit(features, targets)
        predictions = model.predict(features)
        assert np.abs(predictions - targets).max() < 0.05

    def test_regressor_depth_one_is_single_split(self, rng):
        features = rng.normal(size=(40, 1))
        targets = features[:, 0] ** 2
        model = DecisionTreeRegressor(max_depth=1).fit(features, targets)
        assert len(np.unique(model.predict(features))) <= 2

    def test_regressor_constant_target_is_leaf(self, rng):
        features = rng.normal(size=(10, 2))
        model = DecisionTreeRegressor().fit(features, np.full(10, 3.0))
        np.testing.assert_allclose(model.predict(features), 3.0)

    def test_classifier_xor_needs_depth_two(self, rng):
        features = rng.uniform(-1, 1, size=(200, 2))
        labels = ((features[:, 0] > 0) ^ (features[:, 1] > 0)).astype(int)
        shallow = DecisionTreeClassifier(max_depth=1).fit(features, labels)
        deep = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert accuracy(labels, deep.predict(features)) > 0.95
        assert accuracy(labels, deep.predict(features)) > accuracy(
            labels, shallow.predict(features)
        )

    def test_classifier_proba_rows_sum_to_one(self, rng):
        features, labels = _three_class(rng)
        probabilities = (
            DecisionTreeClassifier(max_depth=4)
            .fit(features, labels)
            .predict_proba(features)
        )
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_min_samples_leaf_respected(self, rng):
        features = rng.normal(size=(30, 1))
        labels = (features[:, 0] > 0).astype(int)
        model = DecisionTreeClassifier(
            max_depth=10, min_samples_leaf=10
        ).fit(features, labels)
        _, counts = np.unique(
            model.predict_proba(features).argmax(axis=1), return_counts=True
        )
        assert counts.min() >= 10 or len(counts) == 1

    def test_predict_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_zero_samples_rejected(self):
        with pytest.raises(DataError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))


class TestGradientBoosting:
    def test_beats_single_stump_on_xor(self, rng):
        features = rng.uniform(-1, 1, size=(200, 2))
        labels = ((features[:, 0] > 0) ^ (features[:, 1] > 0)).astype(int)
        model = GradientBoostingClassifier(
            n_estimators=30, max_depth=2, seed=0
        ).fit(features, labels)
        assert accuracy(labels, model.predict(features)) > 0.9

    def test_multiclass(self, rng):
        features, labels = _three_class(rng)
        model = GradientBoostingClassifier(n_estimators=20).fit(
            features, labels
        )
        assert accuracy(labels, model.predict(features)) > 0.85

    def test_probabilities_valid(self, rng):
        features, labels = _three_class(rng)
        probabilities = (
            GradientBoostingClassifier(n_estimators=5)
            .fit(features, labels)
            .predict_proba(features)
        )
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        assert (probabilities > 0).all()

    def test_more_rounds_reduce_training_error(self, rng):
        features, labels = _linearly_separable(rng, n=60)
        few = GradientBoostingClassifier(n_estimators=2, seed=1).fit(
            features, labels
        )
        many = GradientBoostingClassifier(n_estimators=40, seed=1).fit(
            features, labels
        )
        assert accuracy(labels, many.predict(features)) >= accuracy(
            labels, few.predict(features)
        )

    def test_subsampling_still_learns(self, rng):
        features, labels = _linearly_separable(rng)
        model = GradientBoostingClassifier(
            n_estimators=25, subsample=0.5, seed=0
        ).fit(features, labels)
        assert accuracy(labels, model.predict(features)) > 0.85

    def test_non_contiguous_labels(self, rng):
        features, labels = _linearly_separable(rng)
        model = GradientBoostingClassifier(n_estimators=5).fit(
            features, labels + 40
        )
        assert set(np.unique(model.predict(features))) <= {40, 41}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"subsample": 0.0},
        ],
    )
    def test_bad_hyperparameters_rejected(self, kwargs):
        with pytest.raises(DataError):
            GradientBoostingClassifier(**kwargs)

    @given(seed=st.integers(0, 5))
    @settings(max_examples=6, deadline=None)
    def test_deterministic_given_seed(self, seed):
        rng = np.random.default_rng(0)
        features, labels = _linearly_separable(rng, n=40)
        first = GradientBoostingClassifier(
            n_estimators=5, subsample=0.7, seed=seed
        ).fit(features, labels)
        second = GradientBoostingClassifier(
            n_estimators=5, subsample=0.7, seed=seed
        ).fit(features, labels)
        np.testing.assert_allclose(
            first.predict_proba(features), second.predict_proba(features)
        )
