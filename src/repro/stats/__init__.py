"""From-scratch statistical/ML substrates used by the ETSC algorithms."""

from .backends import get_backend
from .boosting import GradientBoostingClassifier
from .distance import (
    best_match_distances,
    euclidean,
    min_subseries_distance,
    pairwise_squared_euclidean,
    sliding_window_view,
    squared_euclidean,
)
from .feature_selection import SelectKBest, chi2_scores, information_gain
from .hierarchical import AgglomerativeClustering, Merge, linkage_merge_order
from .kmeans import KMeans
from .linear import LogisticRegression, softmax
from .metrics import (
    accuracy,
    confusion_matrix,
    earliness,
    f1_score,
    harmonic_mean,
    precision_recall_f1,
)
from .nearest import KNeighborsClassifier, nearest_neighbor_indices
from .scaling import StandardScaler
from .svm import OneClassSVM, rbf_kernel
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "get_backend",
    "GradientBoostingClassifier",
    "euclidean",
    "squared_euclidean",
    "pairwise_squared_euclidean",
    "min_subseries_distance",
    "best_match_distances",
    "sliding_window_view",
    "SelectKBest",
    "chi2_scores",
    "information_gain",
    "AgglomerativeClustering",
    "Merge",
    "linkage_merge_order",
    "KMeans",
    "LogisticRegression",
    "softmax",
    "accuracy",
    "confusion_matrix",
    "earliness",
    "f1_score",
    "harmonic_mean",
    "precision_recall_f1",
    "KNeighborsClassifier",
    "nearest_neighbor_indices",
    "StandardScaler",
    "OneClassSVM",
    "rbf_kernel",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
]
