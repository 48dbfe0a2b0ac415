"""Robustness grid: clean-vs-corrupted cells, degradation curves, AUC.

:func:`run_robustness` sweeps a set of corruption operators over
severity levels for every (algorithm, dataset) pair, reusing the full
:class:`~repro.core.runner.BenchmarkRunner` machinery — checkpointing,
retries, parallel workers, tracing — by materialising corrupted
variants as extra registry entries (:mod:`repro.robustness.dataset`).
The clean cell (severity 0) is evaluated once per base dataset and
shared by every operator's curve.

Checkpoint safety: the corruption spec, severity sweep, and corruption
seed are folded into the grid fingerprint, so resuming a corrupted grid
with a different spec fails fast with a
:class:`~repro.exceptions.CheckpointMismatchError` naming the
conflicting keys instead of silently mixing cells.

The report's headline numbers:

- **Degradation curve** — per (algorithm, operator, metric): the mean
  metric over base datasets at each severity, severity 0 being the
  clean cells.
- **Retention** — each severity's metric over the clean metric
  (1.0 = no degradation).
- **Robustness-AUC** — the trapezoidal area under the retention curve
  across the evaluated severities, normalised to [0, 1]-ish (1.0 =
  perfectly flat; values can exceed 1 when corruption accidentally
  helps). Computed for the quality metrics (``accuracy``,
  ``harmonic_mean``) — earliness is lower-is-better and reported as a
  raw curve only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.runner import BenchmarkRunner, RunReport
from ..exceptions import ConfigurationError
from .dataset import CorruptedDatasetVariant, corrupted_registry
from .spec import CorruptionSpec

__all__ = ["RobustnessReport", "run_robustness"]

#: Metrics the degradation curves cover.
CURVE_METRICS = ("accuracy", "f1", "earliness", "harmonic_mean")

#: Metrics a robustness-AUC is computed for (higher = better).
AUC_METRICS = ("accuracy", "harmonic_mean")

_RETENTION_EPSILON = 1e-12


def _round(value: float, digits: int = 9) -> float:
    return round(float(value), digits)


@dataclass
class RobustnessReport:
    """Degradation curves and robustness-AUC over a corrupted grid."""

    base_report: RunReport
    variants: dict[str, CorruptedDatasetVariant]
    algorithms: list[str]
    base_datasets: list[str]
    ops: list[str]  # "op" or "op@where" labels, curve keys
    severities: list[int]  # includes 0 (the clean cells)
    corruption_seed: int = 0
    environment: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _cell_metric(
        self, algorithm: str, dataset_name: str, metric: str
    ) -> float | None:
        result = self.base_report.results.get((algorithm, dataset_name))
        return None if result is None else float(getattr(result, metric))

    def _variant_name(self, base: str, op_label: str, severity: int) -> str:
        op, _, where = op_label.partition("@")
        spec = CorruptionSpec(op=op, severity=severity, where=where or "all")
        return f"{base}#{spec}"

    def curve(
        self, algorithm: str, op_label: str, metric: str
    ) -> dict[int, float]:
        """Severity -> mean metric over the base datasets with results.

        Severities where *no* base dataset produced a result (every
        cell failed) are omitted rather than reported as zero.
        """
        if metric not in CURVE_METRICS:
            raise ConfigurationError(
                f"metric must be one of {CURVE_METRICS}, got {metric!r}"
            )
        points: dict[int, float] = {}
        for severity in self.severities:
            cells = []
            for base in self.base_datasets:
                name = (
                    base
                    if severity == 0
                    else self._variant_name(base, op_label, severity)
                )
                value = self._cell_metric(algorithm, name, metric)
                if value is not None:
                    cells.append(value)
            if cells:
                points[severity] = sum(cells) / len(cells)
        return points

    def retention_curve(
        self, algorithm: str, op_label: str, metric: str
    ) -> dict[int, float]:
        """Severity -> metric retention relative to the clean cells."""
        curve = self.curve(algorithm, op_label, metric)
        clean = curve.get(0)
        if clean is None:
            return {}
        retention: dict[int, float] = {}
        for severity, value in curve.items():
            if abs(clean) <= _RETENTION_EPSILON:
                # A zero clean score cannot be 'retained'; equal-zero
                # corrupted scores count as full retention.
                retention[severity] = (
                    1.0 if abs(value - clean) <= _RETENTION_EPSILON else 0.0
                )
            else:
                retention[severity] = value / clean
        return retention

    def robustness_auc(
        self, algorithm: str, op_label: str, metric: str = "accuracy"
    ) -> float | None:
        """Normalised trapezoidal area under the retention curve.

        1.0 means the metric is flat across severities (perfectly
        robust); 0.5 means it decays to nothing linearly. ``None`` when
        fewer than two severities produced results.
        """
        retention = self.retention_curve(algorithm, op_label, metric)
        if len(retention) < 2:
            return None
        points = sorted(retention.items())
        area = 0.0
        for (s0, r0), (s1, r1) in zip(points[:-1], points[1:]):
            area += 0.5 * (r0 + r1) * (s1 - s0)
        span = points[-1][0] - points[0][0]
        return area / span

    # ------------------------------------------------------------------
    def deterministic_dict(self) -> dict[str, Any]:
        """The reproducible core (JSON-safe, floats rounded)."""
        curves: dict[str, Any] = {}
        for op_label in self.ops:
            per_algo: dict[str, Any] = {}
            for algorithm in self.algorithms:
                metrics: dict[str, Any] = {}
                for metric in CURVE_METRICS:
                    points = self.curve(algorithm, op_label, metric)
                    metrics[metric] = {
                        str(severity): _round(value)
                        for severity, value in sorted(points.items())
                    }
                auc = {
                    metric: (
                        None
                        if (value := self.robustness_auc(
                            algorithm, op_label, metric
                        )) is None
                        else _round(value)
                    )
                    for metric in AUC_METRICS
                }
                per_algo[algorithm] = {"curves": metrics, "auc": auc}
            curves[op_label] = per_algo
        failures = {
            f"{algorithm}::{dataset}": reason
            for (algorithm, dataset), reason in sorted(
                self.base_report.failures.items()
            )
        }
        clean = {
            algorithm: {
                base: {
                    metric: (
                        None
                        if (v := self._cell_metric(algorithm, base, metric))
                        is None
                        else _round(v)
                    )
                    for metric in CURVE_METRICS
                }
                for base in self.base_datasets
            }
            for algorithm in self.algorithms
        }
        return {
            "grid": {
                "algorithms": list(self.algorithms),
                "datasets": list(self.base_datasets),
                "ops": list(self.ops),
                "severities": [int(s) for s in self.severities],
                "corruption_seed": int(self.corruption_seed),
            },
            "clean": clean,
            "robustness": curves,
            "failures": failures,
        }

    def as_dict(self) -> dict[str, Any]:
        out = self.deterministic_dict()
        out["environment"] = dict(self.environment)
        return out

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable degradation tables, one per operator."""
        lines = [
            f"robustness grid: {len(self.algorithms)} algorithm(s) x "
            f"{len(self.base_datasets)} dataset(s) x {len(self.ops)} "
            f"operator(s), severities {self.severities} "
            f"(corruption seed {self.corruption_seed})"
        ]
        for op_label in self.ops:
            lines += ["", f"{op_label} — mean accuracy by severity:"]
            header = f"{'algorithm':12s}" + "".join(
                f"{('s' + str(s)):>9s}" for s in self.severities
            )
            lines.append(header + f"{'AUC':>9s}")
            for algorithm in self.algorithms:
                curve = self.curve(algorithm, op_label, "accuracy")
                cells = "".join(
                    f"{curve[s]:>9.3f}" if s in curve else f"{'--':>9s}"
                    for s in self.severities
                )
                auc = self.robustness_auc(algorithm, op_label, "accuracy")
                auc_cell = f"{auc:>9.3f}" if auc is not None else f"{'--':>9s}"
                lines.append(f"{algorithm:12s}{cells}{auc_cell}")
        if self.base_report.failures:
            lines.append("")
            lines.append(
                f"failures: {len(self.base_report.failures)} cell(s)"
            )
            for (algorithm, dataset), reason in sorted(
                self.base_report.failures.items()
            ):
                lines.append(f"  {algorithm} on {dataset}: {reason}")
        return "\n".join(lines)


def run_robustness(
    algorithms,
    datasets,
    *,
    ops: Sequence[CorruptionSpec],
    severities: Sequence[int] = (1, 2, 3, 4, 5),
    algorithm_names: list[str] | None = None,
    dataset_names: list[str] | None = None,
    corruption_seed: int | None = None,
    fill: bool = True,
    **runner_options,
) -> RobustnessReport:
    """Run the clean-vs-corrupted grid and fold it into a report.

    ``ops`` is a sequence of parsed :class:`CorruptionSpec`; their
    placement is honoured, their severity field is superseded by the
    ``severities`` sweep. Severity 0 (the clean cells) is always
    evaluated — it anchors every retention curve and the severity-0
    no-op gate. ``runner_options`` are :class:`BenchmarkRunner`
    keywords, passed through; ``corruption_seed`` defaults to their
    ``seed``.
    """
    if not ops:
        raise ConfigurationError("run_robustness needs at least one operator")
    severities = sorted({int(s) for s in severities} | {0})
    if severities[-1] == 0:
        raise ConfigurationError(
            "severities must include at least one level >= 1 "
            "(severity 0 alone is just the clean grid)"
        )
    if corruption_seed is None:
        corruption_seed = runner_options.get("seed", 0)
    algorithm_names = list(algorithm_names or algorithms.names())
    base_names = list(dataset_names or datasets.names())
    op_labels = [
        spec.op if spec.where == "all" else f"{spec.op}@{spec.where}"
        for spec in ops
    ]
    if len(set(op_labels)) != len(op_labels):
        raise ConfigurationError(
            f"duplicate operators in robustness sweep: {op_labels}"
        )
    registry, variants = corrupted_registry(
        datasets,
        base_names,
        ops,
        severities,
        corruption_seed,
        fill=fill,
    )
    # The corruption identity is part of the grid fingerprint,
    # so --resume with a different spec/severity-sweep/seed fails fast.
    extra = dict(runner_options.pop("fingerprint_extra", None) or {})
    extra["corruption_ops"] = list(op_labels)
    extra["corruption_severities"] = [int(s) for s in severities]
    extra["corruption_seed"] = int(corruption_seed)
    extra["corruption_fill"] = bool(fill)
    runner = BenchmarkRunner(
        algorithms, registry, fingerprint_extra=extra, **runner_options
    )
    base_report = runner.run(algorithm_names, registry.names())
    return RobustnessReport(
        base_report=base_report,
        variants=variants,
        algorithms=algorithm_names,
        base_datasets=base_names,
        ops=op_labels,
        severities=severities,
        corruption_seed=corruption_seed,
    )
