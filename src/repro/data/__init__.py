"""Data containers, preprocessing, splitting, and file I/O."""

from .dataset import TimeSeriesDataset
from .io import (
    load_arff,
    load_csv,
    load_multivariate_csv,
    save_arff,
    save_csv,
)
from .preprocessing import (
    LabelEncoder,
    fill_missing,
    fill_missing_array,
    z_normalize,
    z_normalize_dataset,
)
from .splits import stratified_indices, stratified_k_fold, train_test_split

__all__ = [
    "TimeSeriesDataset",
    "LabelEncoder",
    "fill_missing",
    "fill_missing_array",
    "z_normalize",
    "z_normalize_dataset",
    "stratified_indices",
    "stratified_k_fold",
    "train_test_split",
    "load_csv",
    "save_csv",
    "load_multivariate_csv",
    "load_arff",
    "save_arff",
]
