"""CART decision trees (classification and regression).

These are the base learners behind :mod:`repro.stats.boosting`, which in turn
stands in for the XGBoost base classifiers that ECONOMY-K trains per
time-point. Splits are found exactly by scanning sorted feature columns with
vectorised prefix statistics.

The regression tree sorts each feature once per fit (:func:`presort`, a
stable argsort) and never again: a node filters its parent's per-feature
orders by the split mask, and a stable order restricted to a subset is that
subset's own stable argsort. Each node then scores every split of every
feature in one pass over an ``(n_features, n_node)`` matrix of sorted
targets. :class:`~repro.stats.boosting.GradientBoostingClassifier` presorts
once for all its trees and hands each stage's subsample of those orders to
:meth:`DecisionTreeRegressor.fit_presorted`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.preprocessing import LabelEncoder
from ..exceptions import DataError, NotFittedError

__all__ = ["DecisionTreeRegressor", "DecisionTreeClassifier", "presort"]


@dataclass
class _Node:
    """A tree node; leaves have ``feature == -1`` and carry ``value``."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: np.ndarray | float = 0.0


def _validate_matrix(features: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets)
    if features.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {features.shape}")
    if features.shape[0] != targets.shape[0]:
        raise DataError("features and targets must have equal length")
    if features.shape[0] == 0:
        raise DataError("cannot fit a tree on zero samples")
    return features, targets


def presort(features: np.ndarray) -> np.ndarray:
    """Stable per-feature sort orders, shape ``(n_features, n_samples)``."""
    return np.ascontiguousarray(np.argsort(features, axis=0, kind="stable").T)


class DecisionTreeRegressor:
    """Exact-split CART regression tree minimising squared error."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
    ) -> None:
        if max_depth < 1:
            raise DataError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.min_samples_split = max(2, min_samples_split)
        self._root: _Node | None = None

    def _build(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        rows: np.ndarray,
        order: np.ndarray,
        depth: int,
    ) -> _Node:
        """Grow the subtree over ``rows`` (ascending sample indices).

        ``order[f]`` lists ``rows`` sorted stably by feature ``f``. For a
        split after sorted position ``i`` the MSE drop is proportional to
        ``S_l^2 / n_l + S_r^2 / n_r`` (larger is better). The best split is
        the first position of the first feature reaching the largest score.
        """
        n = len(rows)
        total = targets[rows].sum()
        node = _Node(value=float(total / n))  # bitwise ``targets[rows].mean()``
        if depth >= self.max_depth or n < self.min_samples_split or not len(order):
            return node
        n_features = len(order)
        feature_index = np.arange(n_features)
        sorted_values = features.T[feature_index[:, None], order]
        prefix = np.cumsum(targets[order], axis=1)
        positions = np.arange(1, n)
        # Valid split positions: enough samples each side, and a value change.
        valid = (positions >= self.min_samples_leaf) & (
            positions <= n - self.min_samples_leaf
        )
        valid = valid & (sorted_values[:, 1:] > sorted_values[:, :-1])
        left_sum = prefix[:, :-1]
        left_count = positions.astype(float)
        right_count = n - left_count
        right_sum = prefix[:, -1:] - left_sum
        gain = left_sum**2 / left_count + right_sum**2 / right_count
        gain = np.where(valid, gain, -np.inf)
        best_positions = gain.argmax(axis=1)
        best_gains = gain[feature_index, best_positions]
        feature = int(best_gains.argmax())
        best_gain = best_gains[feature]
        baseline = total**2 / n
        if best_gain == -np.inf or best_gain <= baseline + 1e-12:
            return node
        position = best_positions[feature]
        threshold = 0.5 * (
            sorted_values[feature, position] + sorted_values[feature, position + 1]
        )
        go_left = features[:, feature] <= threshold
        row_left, order_left = go_left[rows], go_left[order]
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(
            features,
            targets,
            rows[row_left],
            order[order_left].reshape(n_features, -1),
            depth + 1,
        )
        node.right = self._build(
            features,
            targets,
            rows[~row_left],
            order[~order_left].reshape(n_features, -1),
            depth + 1,
        )
        return node

    def fit_presorted(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        rows: np.ndarray,
        order: np.ndarray,
    ) -> "DecisionTreeRegressor":
        """Grow the tree on ``features[rows]``, ``targets[rows]``.

        ``features`` is a float matrix and ``targets`` a float vector over
        all samples; ``rows`` holds the ascending indices of the samples to
        fit on and ``order`` is :func:`presort` of ``features`` restricted
        to ``rows`` (shape ``(n_features, len(rows))``). The tree is the one
        ``fit(features[rows], targets[rows])`` grows.
        """
        self._root = self._build(features, targets, rows, order, depth=0)
        return self

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on ``(features, targets)``."""
        features, targets = _validate_matrix(features, targets)
        return self.fit_presorted(
            features,
            targets.astype(float),
            np.arange(len(targets)),
            presort(features),
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Mean target of the leaf each row falls into."""
        if self._root is None:
            raise NotFittedError("DecisionTreeRegressor used before fit")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        out = np.empty(features.shape[0])
        for i, row in enumerate(features):
            node = self._root
            while node.feature >= 0:
                assert node.left is not None and node.right is not None
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


class DecisionTreeClassifier:
    """Exact-split CART classification tree minimising Gini impurity."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
    ) -> None:
        if max_depth < 1:
            raise DataError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.min_samples_split = max(2, min_samples_split)
        self._root: _Node | None = None
        self._encoder = LabelEncoder()

    @property
    def classes_(self) -> np.ndarray:
        """Distinct class labels seen during fit."""
        if self._encoder.classes_ is None:
            raise NotFittedError("DecisionTreeClassifier used before fit")
        return self._encoder.classes_

    def _gini(self, counts: np.ndarray) -> float:
        total = counts.sum()
        if total == 0:
            return 0.0
        proportions = counts / total
        return float(1.0 - np.sum(proportions**2))

    def _best_split_gini(
        self, column: np.ndarray, one_hot: np.ndarray
    ) -> tuple[float, float] | None:
        order = np.argsort(column, kind="stable")
        sorted_values = column[order]
        sorted_one_hot = one_hot[order]
        n = len(sorted_values)
        prefix = np.cumsum(sorted_one_hot, axis=0)
        total = prefix[-1]
        positions = np.arange(1, n)
        valid = (positions >= self.min_samples_leaf) & (
            positions <= n - self.min_samples_leaf
        )
        valid &= sorted_values[1:] > sorted_values[:-1]
        if not valid.any():
            return None
        left = prefix[:-1]
        right = total[None, :] - left
        left_n = positions.astype(float)
        right_n = n - left_n
        left_gini = 1.0 - np.sum(left**2, axis=1) / left_n**2
        right_gini = 1.0 - np.sum(right**2, axis=1) / right_n**2
        weighted = (left_n * left_gini + right_n * right_gini) / n
        weighted = np.where(valid, weighted, np.inf)
        best = int(weighted.argmin())
        threshold = 0.5 * (sorted_values[best] + sorted_values[best + 1])
        return threshold, float(weighted[best])

    def _build(self, features: np.ndarray, one_hot: np.ndarray, depth: int) -> _Node:
        counts = one_hot.sum(axis=0)
        node = _Node(value=counts / counts.sum())
        parent_gini = self._gini(counts)
        if (
            depth >= self.max_depth
            or len(one_hot) < self.min_samples_split
            or parent_gini == 0.0
        ):
            return node
        best_impurity = np.inf
        best_feature = -1
        best_threshold = 0.0
        for feature in range(features.shape[1]):
            split = self._best_split_gini(features[:, feature], one_hot)
            if split is not None and split[1] < best_impurity:
                best_threshold, best_impurity = split
                best_feature = feature
        if best_feature < 0 or best_impurity >= parent_gini - 1e-12:
            return node
        mask = features[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._build(features[mask], one_hot[mask], depth + 1)
        node.right = self._build(features[~mask], one_hot[~mask], depth + 1)
        return node

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree on ``(features, labels)``."""
        features, labels = _validate_matrix(features, labels)
        encoded = self._encoder.fit_transform(labels)
        n_classes = len(self._encoder.classes_)
        one_hot = np.zeros((len(encoded), n_classes))
        one_hot[np.arange(len(encoded)), encoded] = 1.0
        self._root = self._build(features, one_hot, depth=0)
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Leaf class-frequency vector per row."""
        if self._root is None:
            raise NotFittedError("DecisionTreeClassifier used before fit")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        out = np.empty((features.shape[0], len(self.classes_)))
        for i, row in enumerate(features):
            node = self._root
            while node.feature >= 0:
                assert node.left is not None and node.right is not None
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most frequent class of the leaf each row falls into."""
        probabilities = self.predict_proba(features)
        return self._encoder.inverse_transform(probabilities.argmax(axis=1))
