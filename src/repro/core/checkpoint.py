"""Cell-level checkpointing for grid runs: kill a 48-hour run, resume it.

The checkpoint is an append-only JSONL file written *as the grid runs*,
one line per completed unit of work, flushed eagerly so a ``SIGKILL``
loses at most the line being written. Three record kinds::

    {"type": "meta", "version": 1, "fingerprint": {...}}
    {"type": "dataset", "name": "PowerCons",
     "categories": ["Common", "Univariate"], "frequency_seconds": null}
    {"type": "cell", "algorithm": "ECTS", "dataset": "PowerCons",
     "outcome": "result", "folds": [...]}            # or
    {"type": "cell", ..., "outcome": "failure",
     "reason": "...", "kind": "permanent", "attempts": 1}

Fold payloads reuse the :mod:`repro.core.results` serialisation, so a
checkpointed cell restores to exactly the ``EvaluationResult`` the live
run produced — the resumed report is equal (same keys, same metric
values) to an uninterrupted run's.

The ``meta`` line carries a **grid fingerprint** (seed, folds, budget,
algorithm/dataset lists, thresholds). Resuming validates it against the
new run's fingerprint and refuses a mismatch
(:class:`~repro.exceptions.CheckpointMismatchError`) — mixing cells from
two different grids would silently corrupt the comparison.

Corruption policy: a malformed *final* line is tolerated with a warning
(that is what a kill mid-write leaves behind); a malformed earlier line,
a missing/foreign ``meta`` line, or an unsupported version raise
:class:`~repro.exceptions.CheckpointError`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from ..exceptions import CheckpointError, CheckpointMismatchError
from ..obs.logging import get_logger
from .categorization import DatasetCategories, categories_from_names
from .evaluation import EvaluationResult
from .results import fold_from_dict, fold_to_dict

__all__ = [
    "CHECKPOINT_VERSION",
    "grid_fingerprint",
    "CheckpointState",
    "CheckpointWriter",
    "load_checkpoint",
]

_logger = get_logger("core.checkpoint")

CHECKPOINT_VERSION = 1


def grid_fingerprint(
    seed: int,
    n_folds: int,
    time_budget_seconds: float,
    algorithms: list[str],
    datasets: list[str],
    wide_threshold: int | None = None,
    large_threshold: int | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The identity of one grid configuration, as a JSON-safe dict.

    Two runs may share a checkpoint exactly when their fingerprints are
    equal. ``extra`` lets callers fold in context the runner cannot see
    (the CLI adds ``scale`` and the registry profile).
    """
    budget = time_budget_seconds
    fingerprint: dict[str, Any] = {
        "seed": int(seed),
        "n_folds": int(n_folds),
        # inf is not valid strict JSON; store the string form.
        "time_budget_seconds": (
            float(budget) if math.isfinite(budget) else str(budget)
        ),
        "algorithms": list(algorithms),
        "datasets": list(datasets),
        "wide_threshold": wide_threshold,
        "large_threshold": large_threshold,
    }
    if extra:
        fingerprint["extra"] = dict(sorted(extra.items()))
    return fingerprint


@dataclass
class CheckpointState:
    """Everything recovered from a checkpoint file."""

    fingerprint: dict[str, Any]
    results: dict[tuple[str, str], EvaluationResult] = field(
        default_factory=dict
    )
    failures: dict[tuple[str, str], str] = field(default_factory=dict)
    failure_kinds: dict[tuple[str, str], str] = field(default_factory=dict)
    failure_attempts: dict[tuple[str, str], int] = field(
        default_factory=dict
    )
    categories: dict[str, DatasetCategories] = field(default_factory=dict)
    frequencies: dict[str, float] = field(default_factory=dict)
    #: Per-cell ``{"wall_seconds": ..., "cpu_seconds": ...}`` (whichever
    #: of the two the row carried), kept when a resumed or merged state
    #: is rewritten; empty for checkpoints written before the fields
    #: existed.
    timings: dict[tuple[str, str], dict[str, float]] = field(
        default_factory=dict
    )
    truncated: bool = False

    def completed_keys(self) -> set[tuple[str, str]]:
        """Cells with a recorded outcome (result *or* failure)."""
        return set(self.results) | set(self.failures)

    def dataset_restored(self, name: str) -> bool:
        """Whether the dataset's categorisation was checkpointed."""
        return name in self.categories

    def validate_fingerprint(self, fingerprint: dict[str, Any]) -> None:
        """Refuse to resume a grid that differs from the checkpointed one."""
        if self.fingerprint == fingerprint:
            return
        differing = []
        for key in sorted(set(self.fingerprint) | set(fingerprint)):
            ours, theirs = self.fingerprint.get(key), fingerprint.get(key)
            if ours == theirs:
                continue
            # Nested mappings (the 'extra' blob carries e.g. the
            # corruption spec/seed) are diffed per key so the message
            # names the actual knob that changed, not just 'extra'.
            if isinstance(ours, dict) and isinstance(theirs, dict):
                for sub in sorted(set(ours) | set(theirs)):
                    if ours.get(sub) != theirs.get(sub):
                        differing.append(
                            f"{key}.{sub} (checkpoint {ours.get(sub)!r} "
                            f"!= run {theirs.get(sub)!r})"
                        )
            else:
                differing.append(
                    f"{key} (checkpoint {ours!r} != run {theirs!r})"
                )
        raise CheckpointMismatchError(
            "checkpoint fingerprint does not match this run "
            f"(differing: {'; '.join(differing)}); resuming would mix "
            "results from incompatible grids — use a fresh checkpoint path"
        )


def load_checkpoint(path: str | os.PathLike) -> CheckpointState:
    """Parse a checkpoint file into a :class:`CheckpointState`.

    Tolerates a malformed final line (a kill mid-write); any earlier
    corruption raises :class:`~repro.exceptions.CheckpointError`.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    with path.open("r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    records: list[dict[str, Any]] = []
    truncated = False
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if line_number == len(lines):
                # The run was killed mid-write; the cell on this line
                # re-runs after resume.
                truncated = True
                _logger.warning(
                    "%s: dropping truncated final line %d (killed "
                    "mid-write); the interrupted cell will re-run",
                    path,
                    line_number,
                )
                break
            raise CheckpointError(
                f"{path}:{line_number}: corrupt checkpoint line ({error})"
            ) from error
    if not records or records[0].get("type") != "meta":
        raise CheckpointError(f"{path}: missing checkpoint meta line")
    meta = records[0]
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {meta.get('version')!r}"
        )
    state = CheckpointState(
        fingerprint=meta.get("fingerprint", {}), truncated=truncated
    )
    for record in records[1:]:
        kind = record.get("type")
        if kind == "dataset":
            state.categories[record["name"]] = categories_from_names(
                record.get("categories", [])
            )
            if record.get("frequency_seconds") is not None:
                state.frequencies[record["name"]] = float(
                    record["frequency_seconds"]
                )
        elif kind == "cell":
            key = (record["algorithm"], record["dataset"])
            if record.get("outcome") == "result":
                folds = tuple(
                    fold_from_dict(fold) for fold in record["folds"]
                )
                state.results[key] = EvaluationResult(key[0], key[1], folds)
                state.failures.pop(key, None)
            else:
                state.failures[key] = record.get("reason", "unknown failure")
                state.failure_kinds[key] = record.get("kind", "permanent")
                if record.get("attempts") is not None:
                    state.failure_attempts[key] = int(record["attempts"])
                state.results.pop(key, None)
            # Optional timing fields (added in PR 10); rows written by
            # older versions simply lack them and load unchanged.
            timings = {
                field_name: float(record[field_name])
                for field_name in ("wall_seconds", "cpu_seconds")
                if record.get(field_name) is not None
            }
            if timings:
                state.timings[key] = timings
            else:
                state.timings.pop(key, None)
        # Unknown record types are skipped (forward compatibility).
    return state


class CheckpointWriter:
    """Append outcome records to a checkpoint file, flushing every line.

    ``append=False`` starts a fresh checkpoint (writing the ``meta``
    line); ``append=True`` continues an existing one after resume — the
    caller is responsible for having validated the fingerprint first.
    A context manager; ``close()`` is idempotent.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        fingerprint: dict[str, Any],
        append: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        mode = "a" if append else "w"
        self._file: IO[str] | None = self.path.open(mode, encoding="utf-8")
        if not append:
            self._write_line(
                {
                    "type": "meta",
                    "version": CHECKPOINT_VERSION,
                    "fingerprint": fingerprint,
                }
            )

    def _write_line(self, record: dict[str, Any]) -> None:
        if self._file is None:
            raise CheckpointError(
                f"checkpoint writer for {self.path} is closed"
            )
        self._file.write(
            json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        )
        self._file.flush()
        os.fsync(self._file.fileno())

    def write_dataset(
        self,
        name: str,
        categories: DatasetCategories,
        frequency_seconds: float | None,
    ) -> None:
        """Record a dataset's categorisation (restored without reloading)."""
        self._write_line(
            {
                "type": "dataset",
                "name": name,
                "categories": categories.names(),
                "frequency_seconds": frequency_seconds,
            }
        )

    def write_result(
        self,
        algorithm: str,
        dataset: str,
        result: EvaluationResult,
        wall_seconds: float | None = None,
        cpu_seconds: float | None = None,
    ) -> None:
        """Record one successfully evaluated cell.

        The optional wall/CPU timings record what the cell cost; omitted
        fields are omitted from the row, so files stay loadable by older
        readers (unknown keys are ignored).
        """
        record = {
            "type": "cell",
            "algorithm": algorithm,
            "dataset": dataset,
            "outcome": "result",
            "folds": [fold_to_dict(fold) for fold in result.folds],
        }
        if wall_seconds is not None:
            record["wall_seconds"] = float(wall_seconds)
        if cpu_seconds is not None:
            record["cpu_seconds"] = float(cpu_seconds)
        self._write_line(record)

    def write_failure(
        self,
        algorithm: str,
        dataset: str,
        reason: str,
        kind: str,
        attempts: int = 1,
        wall_seconds: float | None = None,
        cpu_seconds: float | None = None,
    ) -> None:
        """Record one failed cell (classified, with attempt count)."""
        record = {
            "type": "cell",
            "algorithm": algorithm,
            "dataset": dataset,
            "outcome": "failure",
            "reason": reason,
            "kind": kind,
            "attempts": attempts,
        }
        if wall_seconds is not None:
            record["wall_seconds"] = float(wall_seconds)
        if cpu_seconds is not None:
            record["cpu_seconds"] = float(cpu_seconds)
        self._write_line(record)

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
