"""Framework core: interfaces, evaluation harness, registries, runner."""

from .base import EarlyClassifier, FullTSClassifier
from .categorization import (
    PAPER_TABLE3,
    DatasetCategories,
    canonical_categories,
    categorize,
    category_names,
)
from .evaluation import EvaluationResult, FoldResult, evaluate
from .prediction import EarlyPrediction, collect_predictions
from .registry import (
    AlgorithmInfo,
    AlgorithmRegistry,
    DatasetRegistry,
    default_algorithms,
    default_datasets,
)
from .charts import grouped_bars, heatmap, horizontal_bars
from .checkpoint import (
    CheckpointState,
    CheckpointWriter,
    grid_fingerprint,
    load_checkpoint,
)
from .resilience import (
    FaultPlan,
    RetryPolicy,
    classify_failure,
    failure_reason,
)
from .pool import available_cores
from .results import load_report, report_to_markdown, save_report
from .sched import (
    ClaimBoard,
    ShardSpec,
    merge_checkpoint_states,
    resolve_workers,
)
from .significance import (
    SignificanceReport,
    compare_algorithms,
    friedman_test,
    nemenyi_critical_difference,
    rank_matrix,
)
from .streaming import LatencySummary, StreamingDecision, StreamingSession
from .runner import BenchmarkRunner, RunReport, aggregate_by_category
from .timeouts import EvaluationTimeout, time_limit
from .voting import VotingEnsemble, wrap_for_dataset

__all__ = [
    "EarlyClassifier",
    "FullTSClassifier",
    "EarlyPrediction",
    "collect_predictions",
    "DatasetCategories",
    "categorize",
    "category_names",
    "canonical_categories",
    "PAPER_TABLE3",
    "EvaluationResult",
    "FoldResult",
    "evaluate",
    "AlgorithmInfo",
    "AlgorithmRegistry",
    "DatasetRegistry",
    "default_algorithms",
    "default_datasets",
    "BenchmarkRunner",
    "RunReport",
    "aggregate_by_category",
    "VotingEnsemble",
    "wrap_for_dataset",
    "save_report",
    "load_report",
    "report_to_markdown",
    "EvaluationTimeout",
    "time_limit",
    "RetryPolicy",
    "FaultPlan",
    "classify_failure",
    "failure_reason",
    "CheckpointState",
    "CheckpointWriter",
    "grid_fingerprint",
    "load_checkpoint",
    "grouped_bars",
    "heatmap",
    "horizontal_bars",
    "SignificanceReport",
    "compare_algorithms",
    "friedman_test",
    "nemenyi_critical_difference",
    "rank_matrix",
    "StreamingDecision",
    "StreamingSession",
    "LatencySummary",
    "ClaimBoard",
    "ShardSpec",
    "available_cores",
    "merge_checkpoint_states",
    "resolve_workers",
]
