"""Gradient-boosted decision trees for classification.

ECONOMY-K trains a base classifier per time-point; the paper suggests
XGBoost. This module is the from-scratch stand-in: multinomial gradient
boosting with shallow CART regression trees fitted to softmax residuals —
the same additive-logit model family, without the second-order and sparsity
engineering of the original library.
"""

from __future__ import annotations

import numpy as np

from ..data.preprocessing import LabelEncoder
from ..exceptions import DataError, NotFittedError
from .linear import softmax
from .tree import DecisionTreeRegressor, presort

__all__ = ["GradientBoostingClassifier"]


class GradientBoostingClassifier:
    """Multinomial gradient boosting over shallow regression trees.

    Each boosting round fits one tree per class to the negative gradient of
    the multinomial cross-entropy (``one_hot - softmax(logits)``) and adds a
    shrunken copy of its predictions to the running logits.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth:
        Depth of the regression trees.
    min_samples_leaf:
        Minimum samples per tree leaf.
    subsample:
        Row-sampling fraction per round (stochastic gradient boosting);
        1.0 disables sampling.
    seed:
        Seed for the subsampling generator.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        min_samples_leaf: int = 2,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise DataError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < learning_rate <= 1.0:
            raise DataError(
                f"learning_rate must be in (0, 1], got {learning_rate}"
            )
        if not 0.0 < subsample <= 1.0:
            raise DataError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self._encoder = LabelEncoder()
        self._stages: list[list[DecisionTreeRegressor]] = []
        self._base_logits: np.ndarray | None = None

    @property
    def classes_(self) -> np.ndarray:
        """Distinct class labels seen during fit."""
        if self._encoder.classes_ is None:
            raise NotFittedError("GradientBoostingClassifier used before fit")
        return self._encoder.classes_

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "GradientBoostingClassifier":
        """Fit the boosted ensemble on ``(features, labels)``."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise DataError(
                f"expected a 2-D feature matrix, got shape {features.shape}"
            )
        encoded = self._encoder.fit_transform(labels)
        n_samples = features.shape[0]
        n_classes = len(self._encoder.classes_)
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), encoded] = 1.0

        # Base score: class log-priors, the optimal constant model.
        priors = np.clip(one_hot.mean(axis=0), 1e-12, None)
        self._base_logits = np.log(priors)
        logits = np.tile(self._base_logits, (n_samples, 1))

        rng = np.random.default_rng(self.seed)
        self._stages = []
        if n_classes < 2:
            return self
        # Every tree's splits are read from this one sort (see tree.py).
        order = presort(features)
        rows, stage_order = np.arange(n_samples), order
        for _ in range(self.n_estimators):
            residuals = one_hot - softmax(logits)
            if self.subsample < 1.0:
                chosen = rng.random(n_samples) < self.subsample
                if not chosen.any():
                    chosen[rng.integers(n_samples)] = True
                rows = np.flatnonzero(chosen)
                stage_order = order[chosen[order]].reshape(len(order), len(rows))
            stage: list[DecisionTreeRegressor] = []
            for class_index in range(n_classes):
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                )
                tree.fit_presorted(
                    features, residuals[:, class_index], rows, stage_order
                )
                logits[:, class_index] += self.learning_rate * tree.predict(
                    features
                )
                stage.append(tree)
            self._stages.append(stage)
        return self

    def _logits(self, features: np.ndarray) -> np.ndarray:
        if self._base_logits is None:
            raise NotFittedError("GradientBoostingClassifier used before fit")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        logits = np.tile(self._base_logits, (features.shape[0], 1))
        for stage in self._stages:
            for class_index, tree in enumerate(stage):
                logits[:, class_index] += self.learning_rate * tree.predict(
                    features
                )
        return logits

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Per-class probabilities (columns follow ``classes_``)."""
        logits = self._logits(features)
        if logits.shape[1] == 1:
            return np.ones_like(logits)
        return softmax(logits)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most probable class label per row."""
        probabilities = self.predict_proba(features)
        return self._encoder.inverse_transform(probabilities.argmax(axis=1))
