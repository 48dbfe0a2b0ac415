"""Grid orchestration: datasets x algorithms -> per-category aggregates.

This is the outer loop of the paper's empirical comparison (Section 6):
run every registered algorithm on every registered dataset under stratified
k-fold cross-validation, respect a per-pair time budget (the paper kills
runs after 48 hours — EDSC never finished the 'Wide' datasets), and
aggregate each metric over the Table 3 dataset categories to produce the
series plotted in Figures 9-12 and the online-feasibility heatmap of
Figure 13.

Fault tolerance: every cell (including the dataset load) is crash-
isolated — *any* exception is caught, classified (timeout / transient /
permanent / data-format, see :mod:`repro.core.resilience`), recorded in
``RunReport.failures`` with traceback context on the cell span, and the
grid keeps going. Transient failures are retried with exponential
backoff. With a checkpoint attached, each cell's outcome is appended to
an append-only JSONL file as it completes, and ``resume_from=`` restores
a killed run, skipping finished cells (see
:mod:`repro.core.checkpoint`).

Every run goes through one plan -> dispatch -> commit pipeline:

* **Plan.** Every requested name is checked against the registries (an
  unknown one raises :class:`~repro.exceptions.ConfigurationError`
  before anything runs), a resumed checkpoint's outcomes are restored,
  and the cells left to run become a *plan*: the ordered list of cells
  to commit. A plain run plans the pending grid in canonical order
  (dataset-major, registry algorithm order). ``shard="i/n"`` (with a
  checkpoint *directory*) plans the cells of its cost-balanced bin it
  could claim, then a second plan of unclaimed cells stolen from
  sibling bins (see :mod:`repro.core.sched` and ``etsc-bench
  merge-checkpoints``). Only a run that schedules — ``workers > 1`` or
  a shard — loads its datasets up front and carries per-cell cost
  estimates; a serial run makes none and emits no ``sched_*`` events.
* **Dispatch.** By default each cell executes in-process when the
  commit loop reaches it, so a serial run loads a dataset only when it
  gets there. With ``workers > 1`` and at least two cells pending, the
  plan's cells are submitted to a fork-based ``ProcessPoolExecutor``
  longest-estimated-first (LPT): workers inherit the loaded datasets,
  run the same attempt loop on a private tracer, and ship the outcome
  plus serialised spans back. If the pool breaks (a worker died hard),
  the affected cells re-run in the parent. ``workers="auto"`` sizes the
  pool to the cores this process is allowed to use.
* **Commit.** One loop records each cell — report entry, checkpoint
  line, metrics, progress, ``sched_cell`` event — in plan order, and
  stitches worker span trees under the grid span via
  :meth:`repro.obs.trace.Tracer.adopt_spans`. The schedule changes only
  *when* cells execute, never what is written, so a pool run's report
  and checkpoint are byte-identical to a serial run's (modulo
  wall-clock timings). A checkpoint file holds each dataset's line
  once, written just before that dataset's first committed cell; a
  resumed file does not repeat it.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from ..data.dataset import TimeSeriesDataset
from ..exceptions import CheckpointError, ConfigurationError, ReproError
from ..obs.events import span_to_record
from ..obs.logging import GridProgress, get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer, get_tracer, use_tracer
from .categorization import (
    DatasetCategories,
    canonical_categories,
    categorize,
    category_names,
)
from .checkpoint import CheckpointWriter, grid_fingerprint, load_checkpoint
from .evaluation import EvaluationResult, evaluate
from .registry import AlgorithmRegistry, DatasetRegistry
from .resilience import (
    TIMEOUT,
    RetryPolicy,
    failure_reason,
    format_traceback,
)
from .sched import (
    CellEstimate,
    ClaimBoard,
    CostModel,
    ShardSpec,
    claims_directory,
    find_shard_checkpoints,
    lpt_order,
    partition_cells,
    resolve_workers,
    shard_checkpoint_path,
    write_canonical_checkpoint,
)
from .timeouts import time_limit

_logger = get_logger("core.runner")

__all__ = ["RunReport", "BenchmarkRunner", "aggregate_by_category"]

_METRIC_ATTRIBUTES = (
    "accuracy",
    "f1",
    "earliness",
    "harmonic_mean",
    "train_seconds",
    "test_seconds",
)


@dataclass
class RunReport:
    """Everything one grid run produced.

    ``results[(algorithm, dataset)]`` holds the cross-validated scores;
    ``failures[(algorithm, dataset)]`` holds the reason a pair was skipped
    (timeout or error) — mirroring the hatched cells of Figure 13.
    """

    results: dict[tuple[str, str], EvaluationResult] = field(
        default_factory=dict
    )
    failures: dict[tuple[str, str], str] = field(default_factory=dict)
    categories: dict[str, DatasetCategories] = field(default_factory=dict)

    def algorithms(self) -> list[str]:
        """Algorithm names appearing in results or failures."""
        names: list[str] = []
        for algorithm, _ in list(self.results) + list(self.failures):
            if algorithm not in names:
                names.append(algorithm)
        return names

    def datasets(self) -> list[str]:
        """Dataset names appearing in results or failures."""
        names: list[str] = []
        for _, dataset in list(self.results) + list(self.failures):
            if dataset not in names:
                names.append(dataset)
        return names

    def metric_by_category(self, metric: str) -> dict[str, dict[str, float]]:
        """``{category: {algorithm: mean metric}}`` over member datasets."""
        if metric not in _METRIC_ATTRIBUTES:
            raise ReproError(
                f"metric must be one of {_METRIC_ATTRIBUTES}, got {metric!r}"
            )
        return aggregate_by_category(self.results, self.categories, metric)

    def online_feasibility(self) -> dict[tuple[str, str], float | None]:
        """Figure 13 cells: per-instance test time over observation period.

        Values below 1 mean the algorithm keeps up with the stream; ``None``
        marks pairs that failed to train (the hatched cells). Datasets
        without a known observation frequency are skipped.
        """
        cells: dict[tuple[str, str], float | None] = {}
        frequencies: dict[str, float] = {}
        for (algorithm, dataset), result in self.results.items():
            frequency = self._frequencies.get(dataset)
            if frequency is None or frequency <= 0:
                continue
            cells[(algorithm, dataset)] = (
                result.test_seconds_per_instance / frequency
            )
        for key in self.failures:
            if key[1] in self._frequencies:
                cells[key] = None
        return cells

    _frequencies: dict[str, float] = field(default_factory=dict)


def aggregate_by_category(
    results: dict[tuple[str, str], EvaluationResult],
    categories: dict[str, DatasetCategories],
    metric: str,
) -> dict[str, dict[str, float]]:
    """Average a metric per (category, algorithm) over member datasets.

    Pairs that failed are simply absent — exactly how the paper's bar
    charts omit EDSC on 'Wide' datasets.
    """
    table: dict[str, dict[str, list[float]]] = {
        name: {} for name in category_names()
    }
    for (algorithm, dataset), result in results.items():
        dataset_categories = categories.get(dataset)
        if dataset_categories is None:
            continue
        value = float(getattr(result, metric))
        for category in dataset_categories.names():
            table[category].setdefault(algorithm, []).append(value)
    return {
        category: {
            algorithm: float(np.mean(values))
            for algorithm, values in per_algorithm.items()
        }
        for category, per_algorithm in table.items()
        if per_algorithm
    }




@dataclass
class _CellOutcome:
    """What one cell attempt loop produced (success or terminal failure).

    Separating the *attempt* (runs in a worker or the parent) from the
    *bookkeeping* (metrics, report, checkpoint, telemetry — always the
    parent, always in plan order) is what lets pool runs commit
    deterministically.
    """

    algorithm: str
    dataset: str
    result: EvaluationResult | None
    reason: str | None
    kind: str | None
    attempts: int
    elapsed: float
    retries: int
    cpu_seconds: float = 0.0


@dataclass
class _Plan:
    """The cells one dispatch commits, in commit order.

    ``estimates`` is set only when the run schedules (a pool or a shard);
    only then are ``sched_cell`` events and ``sched.*`` metrics recorded.
    """

    cells: list[tuple[str, str]]
    estimates: dict[tuple[str, str], CellEstimate] | None = None
    stolen: bool = False


@dataclass
class _Grid:
    """The state one :meth:`BenchmarkRunner.run` threads through its stages."""

    report: RunReport
    checkpoint: CheckpointWriter | None
    telemetry: GridProgress
    tracer: Any
    span: Any
    workers: int
    datasets: dict[str, TimeSeriesDataset] = field(default_factory=dict)
    #: ``{dataset: (reason, kind, attempts)}`` for terminal load failures.
    load_failures: dict[str, tuple[str, str, int]] = field(
        default_factory=dict
    )


#: Fork-inherited state for pool workers. Registries hold closures (not
#: picklable), so the parent parks itself and the preloaded datasets here
#: right before forking; workers read them back by key instead of
#: receiving them over the pipe.
_WORKER_STATE: dict[str, Any] | None = None


def _evaluate_cell_worker(
    key: tuple[str, str],
) -> tuple[_CellOutcome, list[dict[str, Any]]]:
    """Pool entry point: run one cell, return its outcome and spans.

    Spans are recorded on a worker-private tracer (the fork-inherited
    parent tracer must not be used — its ``on_finish`` may hold the
    parent's trace-file handle) and shipped back as plain dicts for
    ``Tracer.adopt_spans`` to stitch under the grid span.
    """
    state = _WORKER_STATE
    assert state is not None, "worker used without fork-inherited state"
    runner: BenchmarkRunner = state["runner"]
    algorithm_name, dataset_name = key
    dataset = state["datasets"][dataset_name]
    parent_tracer = get_tracer()
    if parent_tracer.enabled:
        tracer: Any = Tracer(
            trace_memory=getattr(parent_tracer, "_trace_memory", False)
        )
    else:
        tracer = parent_tracer  # the null tracer: record nothing
    with use_tracer(tracer):
        outcome = runner._execute_cell(
            algorithm_name, dataset_name, dataset, tracer
        )
    records = [span_to_record(span) for span in tracer.finished_spans()]
    return outcome, records


class BenchmarkRunner:
    """Run the full algorithms x datasets grid with budgets and fallbacks.

    Parameters
    ----------
    algorithms, datasets:
        The registries to iterate.
    n_folds:
        Cross-validation folds (the paper uses 5).
    time_budget_seconds:
        Per-pair wall-clock budget. Checked *between* pairs and recorded as
        a skip when a pair exceeded it — a cooperative version of the
        paper's 48-hour kill rule (no mid-run preemption).
    wide_threshold, large_threshold:
        Categorisation thresholds, exposed so reduced-scale runs can scale
        them together with the data.
    progress:
        Optional callable receiving human-readable progress lines.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry` to record run
        counters into (cells completed / timed out / failed / retried,
        grid completion). A fresh registry is created when omitted; it is
        always available as ``runner.metrics`` after construction.
    retry_policy:
        :class:`repro.core.resilience.RetryPolicy` governing how many
        attempts a transiently-failing cell gets and the backoff between
        them. The default policy makes a single attempt (no retries).
        Timeouts and permanent/data-format failures are never retried.
    checkpoint_path:
        Write an append-only JSONL checkpoint of every cell outcome to
        this path as the grid runs, so a killed run can be resumed.
    resume_from:
        Path of a checkpoint from a previous (killed) run. Its completed
        cells are restored into the report and skipped; the checkpoint's
        grid fingerprint must match this run's (seed, folds, budget,
        algorithm/dataset lists) or
        :class:`repro.exceptions.CheckpointMismatchError` is raised.
        When ``checkpoint_path`` is omitted, new outcomes append to the
        resumed file.
    fault_injector:
        Deterministic fault-injection hook for tests: a callable
        ``(stage, algorithm, dataset, attempt)`` consulted before every
        dataset load (``stage="load"``) and evaluation attempt
        (``stage="evaluate"``); raising injects the failure. See
        :class:`repro.core.resilience.FaultPlan`.
    fingerprint_extra:
        Extra key/value context folded into the checkpoint fingerprint
        (the CLI records the scale factor and registry profile here).
    workers:
        Number of worker processes evaluating cells concurrently
        (default 1 = in-process serial), or ``"auto"`` to size the pool
        to the cores this process may actually run on
        (:func:`repro.core.pool.available_cores` — clamps to 1 on a
        1-core box instead of oversubscribing). Requires the ``fork``
        start method (silently degrades to serial where unavailable).
        Cells are submitted longest-estimated-first; results, checkpoint
        lines, and report contents are committed in plan order,
        identical to a serial run.
    shard:
        ``"i/n"`` (or a :class:`repro.core.sched.ShardSpec`) runs only
        the ``i``-th of ``n`` cost-balanced bins of the grid, writing to
        ``<checkpoint_path>/shard-i.jsonl`` — ``checkpoint_path`` must
        then be a *directory* shared by all shards. An idle shard steals
        unclaimed cells from its siblings (disable with
        ``shard_steal=False``). Shard runs resume implicitly from their
        own file; ``resume_from`` is rejected.
    shard_steal:
        Whether a shard that drains its own bin steals unclaimed,
        uncompleted cells from sibling bins (default ``True``).
    cost_model:
        The :class:`repro.core.sched.CostModel` estimating per-cell
        durations, which sets the pool's dispatch order. A fresh one is
        created when omitted; resume seeds it with the checkpoint's
        recorded wall timings either way.

    Tracing is picked up from the process-wide tracer
    (:func:`repro.obs.trace.get_tracer`) at :meth:`run` time; per-cell
    progress telemetry goes through the ``repro.core.runner`` logger
    (silent unless logging is configured).
    """

    def __init__(
        self,
        algorithms: AlgorithmRegistry,
        datasets: DatasetRegistry,
        n_folds: int = 5,
        time_budget_seconds: float = float("inf"),
        wide_threshold: int | None = None,
        large_threshold: int | None = None,
        seed: int = 0,
        progress: Callable[[str], None] | None = None,
        metrics: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        checkpoint_path: str | os.PathLike | None = None,
        resume_from: str | os.PathLike | None = None,
        fault_injector: Callable[[str, str, str, int], None] | None = None,
        fingerprint_extra: dict | None = None,
        workers: int | str = 1,
        shard: str | ShardSpec | None = None,
        shard_steal: bool = True,
        cost_model: CostModel | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        if isinstance(shard, str):
            shard = ShardSpec.parse(shard)
        self.shard = shard
        self.shard_steal = shard_steal
        self.cost_model = cost_model or CostModel()
        if shard is not None:
            if checkpoint_path is None:
                raise ConfigurationError(
                    "shard mode requires checkpoint_path (a directory "
                    "shared by all shards)"
                )
            if resume_from is not None:
                raise ConfigurationError(
                    "shard mode resumes implicitly from its own "
                    "shard-<i>.jsonl; resume_from is not supported"
                )
        self.algorithms = algorithms
        self.datasets = datasets
        self.n_folds = n_folds
        self.time_budget_seconds = time_budget_seconds
        self.wide_threshold = wide_threshold
        self.large_threshold = large_threshold
        self.seed = seed
        self.progress = progress or (lambda line: None)
        self.metrics = metrics or MetricsRegistry()
        self.retry_policy = retry_policy or RetryPolicy()
        self.checkpoint_path = checkpoint_path
        self.resume_from = resume_from
        self.fault_injector = fault_injector
        self.fingerprint_extra = fingerprint_extra

    def _categorize(self, dataset: TimeSeriesDataset) -> DatasetCategories:
        # The paper's 12 datasets keep their published Table 3 assignment
        # regardless of the generation scale; unknown datasets are measured.
        canonical = canonical_categories(dataset.name)
        if canonical is not None:
            return canonical
        kwargs = {}
        if self.wide_threshold is not None:
            kwargs["wide_threshold"] = self.wide_threshold
        if self.large_threshold is not None:
            kwargs["large_threshold"] = self.large_threshold
        return categorize(dataset, **kwargs)

    def fingerprint(
        self,
        algorithm_names: list[str] | None = None,
        dataset_names: list[str] | None = None,
    ) -> dict:
        """The checkpoint fingerprint :meth:`run` would use for this grid."""
        return grid_fingerprint(
            seed=self.seed,
            n_folds=self.n_folds,
            time_budget_seconds=self.time_budget_seconds,
            algorithms=algorithm_names or self.algorithms.names(),
            datasets=dataset_names or self.datasets.names(),
            wide_threshold=self.wide_threshold,
            large_threshold=self.large_threshold,
            extra=self.fingerprint_extra,
        )

    def _open_checkpoint(
        self,
        report: RunReport,
        fingerprint: dict,
        path: str | os.PathLike | None,
        resume_from: str | os.PathLike | None,
    ) -> tuple[CheckpointWriter | None, set[tuple[str, str]]]:
        """Restore a resumed run's state and open the checkpoint writer.

        Returns ``(writer, completed_keys)``; the writer is ``None`` when
        ``path`` is. Restored outcomes are copied into ``report`` before
        any cell runs.
        """
        completed: set[tuple[str, str]] = set()
        state = None
        if resume_from is not None:
            state = load_checkpoint(resume_from)
            state.validate_fingerprint(fingerprint)
            report.results.update(state.results)
            report.failures.update(state.failures)
            report.categories.update(state.categories)
            report._frequencies.update(state.frequencies)
            completed = state.completed_keys()
            self._seed_cost_model(state)
            _logger.info(
                "resuming from %s: %d cells already complete "
                "(%d results, %d failures)",
                resume_from,
                len(completed),
                len(state.results),
                len(state.failures),
            )
        if path is None:
            return None, completed
        if state is not None and os.path.realpath(
            str(path)
        ) != os.path.realpath(str(resume_from)):
            # Resuming into a fresh checkpoint file: re-record the
            # restored outcomes (in canonical order) so it stands alone.
            write_canonical_checkpoint(state, path)
        writer = CheckpointWriter(
            path, fingerprint, append=state is not None
        )
        return writer, completed

    def _seed_cost_model(self, state) -> None:
        """Feed a resumed checkpoint's recorded wall timings to the model."""
        seeded = 0
        for (algorithm, dataset), timings in state.timings.items():
            wall = timings.get("wall_seconds")
            if wall is not None:
                self.cost_model.record(algorithm, dataset, wall)
                seeded += 1
        if seeded:
            _logger.info(
                "cost model seeded with %d measured cell timings", seeded
            )

    def run(
        self,
        algorithm_names: list[str] | None = None,
        dataset_names: list[str] | None = None,
    ) -> RunReport:
        """Evaluate the (sub)grid and return the aggregated report.

        An unknown algorithm or dataset name raises
        :class:`repro.exceptions.ConfigurationError` listing the
        registered names, before any cell runs. In shard mode
        (``shard="i/n"``) only this shard's bin (plus any stolen cells)
        is evaluated and the returned report is partial — merge the
        shard checkpoints (``etsc-bench merge-checkpoints`` or
        :func:`repro.core.sched.merge_checkpoint_states`) for the
        canonical full report.
        """
        algorithm_names = algorithm_names or self.algorithms.names()
        dataset_names = dataset_names or self.datasets.names()
        self._check_names(algorithm_names, dataset_names)
        fingerprint = self.fingerprint(algorithm_names, dataset_names)
        path: str | os.PathLike | None
        if self.shard is None:
            path = self.checkpoint_path or self.resume_from
            resume_from = self.resume_from
        else:
            # A shard appends to shard-<i>.jsonl in the directory all
            # shards share, resuming implicitly if the file exists.
            directory = Path(self.checkpoint_path)
            directory.mkdir(parents=True, exist_ok=True)
            path = shard_checkpoint_path(directory, self.shard.index)
            resume_from = path if path.exists() else None
        report = RunReport()
        checkpoint, completed = self._open_checkpoint(
            report, fingerprint, path, resume_from
        )
        cells = [
            (algorithm_name, dataset_name)
            for dataset_name in dataset_names
            for algorithm_name in algorithm_names
        ]
        pending = [key for key in cells if key not in completed]
        tracer = get_tracer()
        workers = self._effective_workers()
        try:
            with tracer.span(
                "grid",
                n_algorithms=len(algorithm_names),
                n_datasets=len(dataset_names),
                n_folds=self.n_folds,
                time_budget_seconds=self.time_budget_seconds,
                seed=self.seed,
                resumed_cells=len(completed),
                workers=workers,
            ) as span:
                grid = _Grid(
                    report, checkpoint,
                    GridProgress(len(pending), logger=_logger),
                    tracer, span, workers,
                )
                if self.shard is None:
                    plans: Iterable[_Plan] = [self._plan(grid, pending)]
                else:
                    plans = self._shard_plans(
                        grid, cells, pending, fingerprint, Path(path)
                    )
                for plan in plans:
                    self._dispatch(grid, plan)
        finally:
            if checkpoint is not None:
                checkpoint.close()
        return report

    def _check_names(
        self, algorithm_names: list[str], dataset_names: list[str]
    ) -> None:
        """Fail fast on a name neither registry knows."""
        for kind, names, registry in (
            ("algorithm", algorithm_names, self.algorithms),
            ("dataset", dataset_names, self.datasets),
        ):
            unknown = [name for name in names if name not in registry]
            if unknown:
                raise ConfigurationError(
                    f"unknown {kind} name(s): {', '.join(unknown)} "
                    f"(registered: {', '.join(registry.names())})"
                )

    def _effective_workers(self) -> int:
        """Worker count after platform gating (fork-only parallelism)."""
        if self.workers <= 1:
            return 1
        if "fork" not in multiprocessing.get_all_start_methods():
            _logger.warning(
                "workers=%d requested but the 'fork' start method is "
                "unavailable on this platform; running serially",
                self.workers,
            )
            return 1
        return self.workers

    # ------------------------------------------------------------------
    # Plan: which cells to commit, in which order (repro.core.sched).

    def _plan(self, grid: _Grid, pending: list[tuple[str, str]]) -> _Plan:
        """A plain run's plan: the pending grid in canonical order."""
        if grid.workers == 1:
            return _Plan(pending)
        # Pool workers inherit the datasets by fork, so each is loaded
        # exactly once, here, before any worker starts.
        for dataset_name in dict.fromkeys(name for _, name in pending):
            self._load(grid, dataset_name)
        plan = _Plan(pending, self._cell_estimates(pending, grid.datasets))
        grid.span.add_event(
            "sched_plan",
            n_cells=len(pending),
            workers=grid.workers,
            estimated_total_seconds=sum(
                est.seconds for est in plan.estimates.values()
            ),
        )
        return plan

    def _shard_plans(
        self,
        grid: _Grid,
        cells: list[tuple[str, str]],
        pending: list[tuple[str, str]],
        fingerprint: dict,
        own_path: Path,
    ) -> Iterator[_Plan]:
        """A shard's plans: its claimed own-bin cells, then stolen ones.

        Shards coordinate purely through atomic claim files — no locks,
        no coordinator. A generator, so the steal plan is drawn up only
        after the own-bin plan is committed.
        """
        shard = self.shard
        assert shard is not None
        grid.span.set_attribute("shard", str(shard))
        # Load every dataset once: any bin's cells may execute here
        # (stealing), and the partition heuristic needs the shapes.
        for dataset_name in dict.fromkeys(name for _, name in cells):
            self._load(grid, dataset_name)
        # Partition on the *pure heuristic* over the full grid — never
        # on recorded history — so every shard, whatever it has resumed
        # or measured, derives identical bins. (Should shards still
        # disagree — say a transient load failure hid a shape from one —
        # the claim board keeps each cell single-run; only balance
        # suffers.)
        heuristics = {
            (algorithm_name, dataset_name): self.cost_model.heuristic(
                grid.datasets[dataset_name].values.shape
                if dataset_name in grid.datasets
                else None,
                self.algorithms.get(algorithm_name).category,
            )
            for algorithm_name, dataset_name in cells
        }
        own_bin = partition_cells(cells, heuristics, shard.count)[shard.index]
        # Dispatch order may use the full cost model (history-calibrated);
        # only the partition must stay history-free.
        estimates = self._cell_estimates(cells, grid.datasets)
        seconds = {key: est.seconds for key, est in estimates.items()}
        todo = set(pending)
        runnable = lpt_order([key for key in own_bin if key in todo], seconds)
        claims = ClaimBoard(claims_directory(own_path.parent), shard.owner)
        claimed = [key for key in runnable if claims.claim(*key)]
        grid.span.add_event(
            "sched_plan",
            n_cells=len(claimed),
            workers=grid.workers,
            shard=str(shard),
            bin_cells=len(own_bin),
            estimated_total_seconds=sum(seconds[key] for key in claimed),
        )
        if len(claimed) < len(runnable):
            _logger.info(
                "shard %s: %d own-bin cells already claimed by siblings",
                shard, len(runnable) - len(claimed),
            )
        yield _Plan(claimed, estimates)
        if not self.shard_steal:
            return
        # Steal phase: everything outside our bin that nobody has
        # completed or claimed, longest first — the point of stealing is
        # to absorb a straggler sibling's expensive tail.
        own = set(own_bin)
        sibling_done = self._sibling_completed(own_path, fingerprint)
        candidates = lpt_order(
            [
                key
                for key in pending
                if key not in own and key not in sibling_done
            ],
            seconds,
        )
        stolen = [
            key
            for key in candidates
            if not claims.claimed_by_other(*key) and claims.claim(*key)
        ]
        if stolen:
            self.progress(
                f"shard {shard}: stealing {len(stolen)} unclaimed "
                f"cells from sibling bins"
            )
            _logger.info(
                "shard %s stealing %d unclaimed cells", shard, len(stolen)
            )
        yield _Plan(stolen, estimates, stolen=True)

    def _sibling_completed(
        self, own_path: Path, fingerprint: dict
    ) -> set[tuple[str, str]]:
        """Cells sibling shard checkpoints already have outcomes for."""
        done: set[tuple[str, str]] = set()
        for path in find_shard_checkpoints(own_path.parent):
            if path == own_path:
                continue
            try:
                state = load_checkpoint(path)
                state.validate_fingerprint(fingerprint)
            except CheckpointError as error:
                _logger.warning(
                    "ignoring sibling checkpoint %s: %s", path, error
                )
                continue
            done |= state.completed_keys()
        return done

    def _cell_estimates(
        self,
        cells: list[tuple[str, str]],
        datasets: dict[str, TimeSeriesDataset],
    ) -> dict[tuple[str, str], CellEstimate]:
        """Estimate every cell's duration (attaching loaded shapes)."""
        estimates: dict[tuple[str, str], CellEstimate] = {}
        for algorithm_name, dataset_name in cells:
            dataset = datasets.get(dataset_name)
            shape = dataset.values.shape if dataset is not None else None
            if shape is not None:
                self.cost_model.attach_shape(dataset_name, shape)
            estimates[(algorithm_name, dataset_name)] = (
                self.cost_model.estimate(
                    algorithm_name,
                    dataset_name,
                    shape,
                    self.algorithms.get(algorithm_name).category,
                )
            )
        return estimates

    # ------------------------------------------------------------------
    # Dispatch and commit.

    def _dispatch(self, grid: _Grid, plan: _Plan) -> None:
        """Run a plan's cells, committing each in plan order.

        In-process, a cell executes when the commit loop reaches it. With
        ``workers > 1`` and at least two loaded cells, those cells are
        all submitted to a fork pool up front, longest estimate first
        (the pool starts cells in submission order); the commit loop
        then waits on each in plan order, so the artifacts cannot
        observe the schedule.
        """
        global _WORKER_STATE
        futures: dict[tuple[str, str], Any] = {}
        executor = None
        if grid.workers > 1:
            poolable = [key for key in plan.cells if key[1] in grid.datasets]
            if len(poolable) > 1:
                assert plan.estimates is not None
                seconds = {
                    key: est.seconds for key, est in plan.estimates.items()
                }
                _WORKER_STATE = {"runner": self, "datasets": grid.datasets}
                executor = ProcessPoolExecutor(
                    max_workers=min(grid.workers, len(poolable)),
                    mp_context=multiprocessing.get_context("fork"),
                )
                futures = {
                    key: executor.submit(_evaluate_cell_worker, key)
                    for key in lpt_order(poolable, seconds)
                }
        completion = self.metrics.gauge("grid_completion")
        try:
            for key in plan.cells:
                self._commit_cell(grid, plan, key, futures.get(key))
                completion.set(grid.telemetry.fraction_done)
        finally:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
                _WORKER_STATE = None

    def _commit_cell(
        self,
        grid: _Grid,
        plan: _Plan,
        key: tuple[str, str],
        future: Any,
    ) -> None:
        """Obtain one cell's outcome and record it everywhere it belongs."""
        algorithm_name, dataset_name = key
        if (
            dataset_name not in grid.datasets
            and dataset_name not in grid.load_failures
        ):
            # Only in-process runs load lazily; they hold one dataset at
            # a time, as the plan visits datasets in turn.
            grid.datasets.clear()
            self._load(grid, dataset_name)
        dataset = grid.datasets.get(dataset_name)
        if dataset is None:
            self._commit_load_failure(grid, key)
            return
        if dataset_name not in grid.report.categories:
            self._commit_dataset(grid, dataset_name, dataset)
        self.metrics.counter("cells_total").inc()
        grid.telemetry.started(algorithm_name, dataset_name)
        outcome = None
        if future is not None:
            try:
                outcome, span_records = future.result()
            except (BrokenProcessPool, OSError) as error:
                _logger.warning(
                    "%s on %s: worker pool broke (%s); "
                    "re-running the cell in the parent",
                    algorithm_name, dataset_name, error,
                )
            else:
                if span_records and isinstance(grid.tracer, Tracer):
                    grid.tracer.adopt_spans(
                        span_records, parent_id=grid.span.span_id
                    )
        if outcome is None:
            outcome = self._execute_cell(
                algorithm_name, dataset_name, dataset, grid.tracer
            )
        self._commit_outcome(grid, outcome)
        if plan.estimates is not None:
            self._record_sched(grid, outcome, plan.estimates[key], plan.stolen)

    def _load(self, grid: _Grid, dataset_name: str) -> None:
        """Load a dataset under crash isolation and the retry policy.

        The dataset lands in ``grid.datasets``; a terminal failure
        (corrupt file, generator bug, retry exhaustion) lands in
        ``grid.load_failures`` instead, to be committed as one failure
        per cell of the dataset — the grid keeps going.
        """
        policy = self.retry_policy
        attempt = 0
        with grid.tracer.span("load", dataset=dataset_name) as span:
            while True:
                attempt += 1
                try:
                    if self.fault_injector is not None:
                        self.fault_injector("load", "", dataset_name, attempt)
                    grid.datasets[dataset_name] = self.datasets.load(
                        dataset_name
                    )
                    return
                except Exception as error:
                    kind = policy.classify(error)
                    reason = failure_reason(error)
                    span.add_event(
                        "attempt_failed",
                        attempt=attempt,
                        kind=kind,
                        error=reason,
                    )
                    if policy.should_retry(error, attempt):
                        self.metrics.counter("load_retries").inc()
                        delay = policy.wait(
                            attempt, key=f"load:{dataset_name}"
                        )
                        span.add_event(
                            "retry", attempt=attempt, delay=delay
                        )
                        _logger.warning(
                            "load %s: transient failure (%s), retrying "
                            "attempt %d/%d after %.2fs",
                            dataset_name, reason, attempt + 1,
                            policy.max_attempts, delay,
                        )
                        continue
                    span.set_status("error")
                    span.set_attribute("reason", reason)
                    span.set_attribute("failure_kind", kind)
                    span.set_attribute("attempts", attempt)
                    span.set_attribute(
                        "traceback", format_traceback(error)
                    )
                    self.metrics.counter("datasets_failed").inc()
                    grid.load_failures[dataset_name] = (reason, kind, attempt)
                    return

    def _commit_dataset(
        self, grid: _Grid, dataset_name: str, dataset: TimeSeriesDataset
    ) -> None:
        """Record a loaded dataset's categories/frequency (+ checkpoint)."""
        report = grid.report
        report.categories[dataset_name] = self._categorize(dataset)
        if dataset.frequency_seconds is not None:
            report._frequencies[dataset_name] = dataset.frequency_seconds
        if grid.checkpoint is not None:
            grid.checkpoint.write_dataset(
                dataset_name,
                report.categories[dataset_name],
                dataset.frequency_seconds,
            )

    def _commit_load_failure(
        self, grid: _Grid, key: tuple[str, str]
    ) -> None:
        """Record a cell whose dataset failed to load."""
        algorithm_name, dataset_name = key
        reason, kind, attempts = grid.load_failures[dataset_name]
        cell_reason = f"dataset load failed: {reason}"
        self.metrics.counter("cells_total").inc()
        self.metrics.counter("cells_failed").inc()
        grid.report.failures[key] = cell_reason
        if grid.checkpoint is not None:
            grid.checkpoint.write_failure(
                algorithm_name, dataset_name, cell_reason, kind, attempts
            )
        grid.telemetry.failed(algorithm_name, dataset_name, 0.0, cell_reason)
        self.progress(
            f"{algorithm_name} on {dataset_name}: FAILED ({cell_reason})"
        )

    def _execute_cell(
        self,
        algorithm_name: str,
        dataset_name: str,
        dataset: TimeSeriesDataset,
        tracer,
    ) -> _CellOutcome:
        """The cell attempt loop, shared by in-process runs and pool workers.

        Runs fault injection, the paper's kill rule, and the retry policy
        inside a ``cell`` span, recording attempt events and terminal
        status on the span. Everything observable outside the span — the
        report entry, checkpoint line, metrics, telemetry — is described
        by the returned :class:`_CellOutcome` and committed by the
        commit loop, in plan order whatever the schedule.
        """
        info = self.algorithms.get(algorithm_name)
        policy = self.retry_policy
        retries = 0
        with tracer.span(
            "cell", algorithm=algorithm_name, dataset=dataset_name
        ) as cell_span:
            start = time.perf_counter()
            cpu_start = time.process_time()
            attempt = 0
            while True:
                attempt += 1
                try:
                    if self.fault_injector is not None:
                        self.fault_injector(
                            "evaluate", algorithm_name, dataset_name, attempt
                        )
                    # Preemptive kill rule (the paper's 48-hour cutoff);
                    # falls back to the cooperative check below when
                    # SIGALRM is unavailable (non-Unix or worker thread).
                    with time_limit(self.time_budget_seconds):
                        result = evaluate(
                            info.factory,
                            dataset,
                            algorithm_name,
                            n_folds=self.n_folds,
                            seed=self.seed,
                        )
                    reason = kind = None
                    break
                except Exception as error:
                    kind = policy.classify(error)
                    reason = failure_reason(error)
                    cell_span.add_event(
                        "attempt_failed",
                        attempt=attempt,
                        kind=kind,
                        error=reason,
                    )
                    if policy.should_retry(error, attempt):
                        retries += 1
                        delay = policy.wait(
                            attempt, key=f"{algorithm_name}:{dataset_name}"
                        )
                        cell_span.add_event(
                            "retry", attempt=attempt, delay=delay
                        )
                        _logger.warning(
                            "%s on %s: transient failure (%s), retrying "
                            "attempt %d/%d after %.2fs",
                            algorithm_name, dataset_name, reason,
                            attempt + 1, policy.max_attempts, delay,
                        )
                        continue
                    cell_span.set_status(
                        "timeout" if kind == TIMEOUT else "error"
                    )
                    cell_span.set_attribute(
                        "traceback", format_traceback(error)
                    )
                    result = None
                    break
            elapsed = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
            if result is not None:
                cell_span.set_attribute("seconds", elapsed)
                if elapsed > self.time_budget_seconds:
                    # Cooperative after-the-fact budget check (degraded
                    # no-SIGALRM mode): classified timeout, never retried.
                    result, kind = None, TIMEOUT
                    reason = f"exceeded time budget ({elapsed:.1f}s)"
                    cell_span.set_status("timeout")
            if result is None:
                cell_span.set_attribute("reason", reason)
                cell_span.set_attribute("failure_kind", kind)
            cell_span.set_attribute("attempts", attempt)
            return _CellOutcome(
                algorithm=algorithm_name,
                dataset=dataset_name,
                result=result,
                reason=reason,
                kind=kind,
                attempts=attempt,
                elapsed=elapsed,
                retries=retries,
                cpu_seconds=cpu_seconds,
            )

    def _commit_outcome(self, grid: _Grid, outcome: _CellOutcome) -> None:
        """Record a cell outcome everywhere it must appear (parent only)."""
        algorithm_name, dataset_name = outcome.algorithm, outcome.dataset
        report, checkpoint = grid.report, grid.checkpoint
        # Feed the measurement back so later estimates for this cell (and
        # this algorithm's calibration factor) come from reality.
        self.cost_model.record(
            algorithm_name, dataset_name, outcome.elapsed
        )
        if outcome.retries:
            self.metrics.counter("cell_retries").inc(outcome.retries)
        result = outcome.result
        if result is None:
            assert outcome.reason is not None and outcome.kind is not None
            timeout = outcome.kind == TIMEOUT
            self.metrics.counter(
                "cells_timeout" if timeout else "cells_failed"
            ).inc()
            report.failures[(algorithm_name, dataset_name)] = outcome.reason
            if checkpoint is not None:
                checkpoint.write_failure(
                    algorithm_name, dataset_name,
                    outcome.reason, outcome.kind, outcome.attempts,
                    wall_seconds=outcome.elapsed,
                    cpu_seconds=outcome.cpu_seconds,
                )
            grid.telemetry.failed(
                algorithm_name, dataset_name, outcome.elapsed,
                outcome.reason, timeout=timeout,
            )
            self.progress(
                f"{algorithm_name} on {dataset_name}: "
                f"FAILED ({outcome.reason})"
            )
            return
        report.results[(algorithm_name, dataset_name)] = result
        if checkpoint is not None:
            checkpoint.write_result(
                algorithm_name, dataset_name, result,
                wall_seconds=outcome.elapsed,
                cpu_seconds=outcome.cpu_seconds,
            )
        self.metrics.counter("cells_completed").inc()
        self.metrics.timer("cell_seconds").observe(outcome.elapsed)
        detail = f"acc={result.accuracy:.3f} hm={result.harmonic_mean:.3f}"
        grid.telemetry.finished(
            algorithm_name, dataset_name, outcome.elapsed, detail
        )
        self.progress(
            f"{algorithm_name} on {dataset_name}: "
            f"acc={result.accuracy:.3f} f1={result.f1:.3f} "
            f"earl={result.earliness:.3f} hm={result.harmonic_mean:.3f} "
            f"({outcome.elapsed:.1f}s)"
        )

    def _record_sched(
        self,
        grid: _Grid,
        outcome: _CellOutcome,
        estimate: CellEstimate,
        stolen: bool,
    ) -> None:
        """Scheduler telemetry for one committed cell.

        The live ``sched.*`` counters and the ``sched_cell`` grid-span
        event are written together so :func:`repro.obs.metrics
        .metrics_from_spans` recomputes exactly the live numbers from a
        trace (the rollup==live parity contract).
        """
        error_pct = (
            abs(outcome.elapsed - estimate.seconds)
            / max(estimate.seconds, 1e-9)
            * 100.0
        )
        self.metrics.counter("sched.cells_scheduled").inc()
        if stolen:
            self.metrics.counter("sched.steals").inc()
        self.metrics.timer("sched.estimate_error_pct").observe(error_pct)
        grid.span.add_event(
            "sched_cell",
            algorithm=outcome.algorithm,
            dataset=outcome.dataset,
            estimate_seconds=estimate.seconds,
            actual_seconds=outcome.elapsed,
            error_pct=error_pct,
            source=estimate.source,
            stolen=stolen,
        )
