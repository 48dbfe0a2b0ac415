"""Degraded-data robustness suite: deterministic corruption and drift.

The paper evaluates only clean, fixed-length series; real deployments
see missing blocks, sensor dropout, irregular sampling, amplitude
drift, mislabelled training data, and mid-stream concept drift. This
package makes those conditions *first-class evaluated scenarios*:

- :mod:`repro.robustness.operators` — eight seeded, composable
  corruption operators with a severity dial (0 = bit-identical no-op,
  1-5 = increasingly hostile), deterministic per
  (dataset, seed, severity) via crc32-derived RNG streams.
- :mod:`repro.robustness.spec` — the ``op:severity[@where]`` spec
  grammar, parsed as strictly as the PR 2/PR 6 fault specs.
- :mod:`repro.robustness.dataset` — ``CorruptedDatasetVariant`` wraps
  any registered dataset so the grid runner schedules clean and
  corrupted cells side by side.
- :mod:`repro.robustness.grid` — degradation curves over severity and
  robustness-AUC per algorithm, checkpoint/resume-safe.
- :mod:`repro.robustness.stream` — push-time corruption for the
  serving layer (``--corrupt`` on ``serve-slo``), with
  provenance of which operator fired.

See ``docs/robustness.md`` for the operator catalog and the
degradation-curve reading guide.
"""

from .operators import (
    OPERATOR_NAMES,
    MAX_SEVERITY,
    apply_operator,
    corruption_rng,
    operator_catalog,
    severity_params,
)
from .spec import (
    WHERE_CHOICES,
    CorruptionSpec,
    parse_corruption_spec,
    parse_corruption_specs,
)
from .dataset import CorruptedDatasetVariant, corrupt_dataset, corrupted_registry
from .grid import RobustnessReport, run_robustness
from .stream import STREAM_OPERATOR_NAMES, StreamCorruptor

__all__ = [
    "OPERATOR_NAMES",
    "STREAM_OPERATOR_NAMES",
    "MAX_SEVERITY",
    "WHERE_CHOICES",
    "CorruptionSpec",
    "CorruptedDatasetVariant",
    "RobustnessReport",
    "StreamCorruptor",
    "apply_operator",
    "corrupt_dataset",
    "corrupted_registry",
    "corruption_rng",
    "operator_catalog",
    "parse_corruption_spec",
    "parse_corruption_specs",
    "run_robustness",
    "severity_params",
]
