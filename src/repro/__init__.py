"""repro — a framework to evaluate Early Time-Series Classification
algorithms (reproduction of Akasiadis et al., EDBT 2024).

Quick start::

    from repro import default_algorithms, default_datasets, evaluate

    datasets = default_datasets(scale=0.1)
    algorithms = default_algorithms()
    dataset = datasets.load("PowerCons")
    result = evaluate(
        algorithms.get("TEASER").factory, dataset, "TEASER", n_folds=5
    )
    print(result.accuracy, result.earliness, result.harmonic_mean)

The public API re-exports the framework core (interfaces, evaluation,
registries), the eight evaluated algorithms, the three full time-series
classifiers, the dataset container, and the Section 2.2 metrics.

Importing the package limits BLAS to one thread per process (before
numpy loads it) unless the caller set the variable: the grid's pool
workers and fleet shards are already one process per core, and a
multi-threaded BLAS in each oversubscribes the machine.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
del _variable

from .core import (  # noqa: E402
    AlgorithmRegistry,
    BenchmarkRunner,
    DatasetRegistry,
    StreamingDecision,
    StreamingSession,
    compare_algorithms,
    EarlyClassifier,
    EarlyPrediction,
    EvaluationResult,
    FullTSClassifier,
    RunReport,
    VotingEnsemble,
    canonical_categories,
    categorize,
    collect_predictions,
    default_algorithms,
    default_datasets,
    evaluate,
    wrap_for_dataset,
)
from .data import TimeSeriesDataset, fill_missing, stratified_k_fold, train_test_split
from .etsc import ECEC, ECTS, EDSC, STRUT, TEASER, EconomyK, s_mini, s_mlstm, s_weasel
from .exceptions import ReproError
from .stats import accuracy, earliness, f1_score, harmonic_mean
from .tsc import MLSTMFCN, WEASEL, MiniROCKET

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "TimeSeriesDataset",
    "fill_missing",
    "stratified_k_fold",
    "train_test_split",
    "EarlyClassifier",
    "FullTSClassifier",
    "EarlyPrediction",
    "collect_predictions",
    "EvaluationResult",
    "AlgorithmRegistry",
    "DatasetRegistry",
    "BenchmarkRunner",
    "RunReport",
    "canonical_categories",
    "StreamingDecision",
    "StreamingSession",
    "compare_algorithms",
    "VotingEnsemble",
    "categorize",
    "default_algorithms",
    "default_datasets",
    "evaluate",
    "wrap_for_dataset",
    "ECEC",
    "ECTS",
    "EDSC",
    "STRUT",
    "TEASER",
    "EconomyK",
    "s_mini",
    "s_mlstm",
    "s_weasel",
    "WEASEL",
    "MiniROCKET",
    "MLSTMFCN",
    "accuracy",
    "earliness",
    "f1_score",
    "harmonic_mean",
    "ReproError",
]
