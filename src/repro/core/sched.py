"""Grid scheduling: largest dataset first, round-robin shards, claims.

The evaluation grid is embarrassingly parallel but skewed: cells of the
same archive can differ in runtime by orders of magnitude (EDSC on a
'Wide' dataset vs a baseline on a tiny one). With a pool, submission
order is start order, and a long cell that starts last stretches the
makespan by its full duration. This module supplies the pieces the
runner composes, none of which needs a runtime estimate:

**Largest dataset first** (:func:`largest_dataset_first`). Cells are
started in descending order of their dataset's size ``n x V x L``, so
the big datasets start while every worker is still busy and the small
ones pack the tail. The sort is stable: ties keep canonical grid order.
Replayed on the measured cell times of the default grid, it comes
within 2.5% of the makespan of longest-true-time-first at 2-4 workers.

**Shards and claims** (:meth:`ShardSpec.bin`, :class:`ClaimBoard`).
``--shard i/n --checkpoint dir/`` splits the grid across machines
sharing a directory: shard ``i`` owns ``cells[i::n]`` of the canonical
grid, a pure function of the cell list, so every shard derives the same
bins without loading anything. Each shard checkpoints to its own
``shard-i.jsonl`` and claims its whole bin before running it. Claims are
atomic ``O_CREAT | O_EXCL`` marker files, so exactly one shard runs a
cell, with no locks and no coordinator. A shard that drains its bin
steals the cells no sibling has claimed: the bin of a shard that never
started, or that died before claiming. A started sibling's bin is
claimed whole and is never stolen.
:func:`merge_checkpoint_states` + :func:`write_canonical_checkpoint` /
:func:`report_from_state` then rebuild the single canonical artifact:
cells re-ordered dataset-major exactly as one serial run would have
committed them, so the merged report is byte-identical regardless of
schedule, steal order, or shard count.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..exceptions import CheckpointError, ConfigurationError
from .checkpoint import CheckpointState, CheckpointWriter, load_checkpoint
from .pool import available_cores

__all__ = [
    "ShardSpec",
    "ClaimBoard",
    "largest_dataset_first",
    "resolve_workers",
    "shard_checkpoint_path",
    "find_shard_checkpoints",
    "claims_directory",
    "merge_checkpoint_states",
    "missing_cells",
    "grid_cells",
    "write_canonical_checkpoint",
    "report_from_state",
]

#: Subdirectory of a shard checkpoint directory holding claim records.
CLAIMS_DIRNAME = "claims"

_SHARD_FILE_RE = re.compile(r"^shard-(\d+)\.jsonl$")


# ---------------------------------------------------------------------------
# Start order.


def largest_dataset_first(
    cells: Sequence[tuple[str, str]], sizes: Mapping[str, int]
) -> list[tuple[str, str]]:
    """``cells`` by descending ``sizes[dataset]``, input order on ties.

    ``sizes`` maps a dataset name to its ``values.size``; a dataset
    missing from it (say, one that failed to load) sorts last.
    """
    return sorted(cells, key=lambda cell: -sizes.get(cell[1], 0))


def resolve_workers(requested: int | str) -> int:
    """Resolve a worker/shard count request to a concrete positive int.

    ``"auto"`` resolves to the cores this process may actually run on
    (:func:`repro.core.pool.available_cores` — the scheduling affinity
    mask, not ``os.cpu_count()``), which clamps to **1 worker on a
    1-core box**: the CPU-bound grid loses under oversubscription
    (BENCH_PERF records 0.23x at 4 workers on 1 core), so auto never
    oversubscribes. Explicit integers are taken at face value.
    """
    if isinstance(requested, str):
        if requested != "auto":
            raise ConfigurationError(
                f"workers must be a positive integer or 'auto', "
                f"got {requested!r}"
            )
        return available_cores()
    workers = int(requested)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# Shard identity and checkpoint-directory layout.


@dataclass(frozen=True)
class ShardSpec:
    """Which bin of an ``n``-way split this process runs: ``index/count``."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {self.count}"
            )
        if not 0 <= self.index < self.count:
            raise ConfigurationError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse ``"i/n"`` (0-based index), e.g. ``"0/2"``, ``"1/2"``."""
        match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
        if match is None:
            raise ConfigurationError(
                f"shard must look like I/N (0-based), e.g. 0/2; got {text!r}"
            )
        return cls(index=int(match.group(1)), count=int(match.group(2)))

    @property
    def owner(self) -> str:
        return f"shard-{self.index}"

    def bin(
        self, cells: Sequence[tuple[str, str]]
    ) -> list[tuple[str, str]]:
        """This shard's cells: every ``count``-th of the canonical grid,
        starting at ``index``, in canonical order."""
        return list(cells[self.index :: self.count])

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def shard_checkpoint_path(directory: str | os.PathLike, index: int) -> Path:
    """The checkpoint file shard ``index`` writes inside ``directory``."""
    return Path(directory) / f"shard-{index}.jsonl"


def find_shard_checkpoints(directory: str | os.PathLike) -> list[Path]:
    """All ``shard-*.jsonl`` files in ``directory``, by shard index."""
    directory = Path(directory)
    found: list[tuple[int, Path]] = []
    if directory.is_dir():
        for entry in directory.iterdir():
            match = _SHARD_FILE_RE.match(entry.name)
            if match is not None:
                found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def claims_directory(directory: str | os.PathLike) -> Path:
    """Where a shard directory keeps its atomic claim records."""
    return Path(directory) / CLAIMS_DIRNAME


class ClaimBoard:
    """Atomic per-cell ownership records shared by sibling shards.

    A claim is a marker file created with ``O_CREAT | O_EXCL`` — the
    POSIX primitive that makes exactly one creator win, even across
    machines on a shared filesystem. Claiming is idempotent for the
    owner (re-claiming your own cell after a resume succeeds), and a
    cell claimed by a sibling is simply skipped — its outcome will
    arrive through that sibling's checkpoint at merge time.
    """

    def __init__(self, directory: str | os.PathLike, owner: str) -> None:
        self.directory = Path(directory)
        self.owner = owner
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, algorithm: str, dataset: str) -> Path:
        digest = hashlib.sha1(
            f"{algorithm}\x1f{dataset}".encode("utf-8")
        ).hexdigest()[:16]
        readable = re.sub(r"[^A-Za-z0-9._-]", "_", f"{algorithm}--{dataset}")
        return self.directory / f"{readable[:60]}-{digest}.claim"

    def claim(self, algorithm: str, dataset: str) -> bool:
        """Try to take the cell; ``True`` iff this owner now holds it."""
        path = self._path(algorithm, dataset)
        payload = json.dumps(
            {"algorithm": algorithm, "dataset": dataset, "owner": self.owner},
            sort_keys=True,
        )
        try:
            descriptor = os.open(
                path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return self.owner_of(algorithm, dataset) == self.owner
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        return True

    def owner_of(self, algorithm: str, dataset: str) -> str | None:
        """Who holds the cell (``None`` when unclaimed)."""
        path = self._path(algorithm, dataset)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            # A half-written claim (writer died mid-write): somebody
            # holds it, identity unknown — treat as foreign, never steal.
            return "<unreadable>"
        return payload.get("owner", "<unreadable>")

    def claimed_by_other(self, algorithm: str, dataset: str) -> bool:
        """Whether a *different* owner holds the cell."""
        holder = self.owner_of(algorithm, dataset)
        return holder is not None and holder != self.owner


# ---------------------------------------------------------------------------
# Merging shard checkpoints back into one canonical artifact.


def grid_cells(fingerprint: dict[str, Any]) -> list[tuple[str, str]]:
    """The full canonical (dataset-major) cell list of a fingerprint."""
    return [
        (algorithm, dataset)
        for dataset in fingerprint.get("datasets", [])
        for algorithm in fingerprint.get("algorithms", [])
    ]


def merge_checkpoint_states(
    states: Sequence[CheckpointState],
) -> CheckpointState:
    """Combine shard states into one; earliest shard wins conflicts.

    All fingerprints must be equal (the shards must describe the same
    grid) or :class:`~repro.exceptions.CheckpointMismatchError` is
    raised. Cell evaluation is deterministic, so a conflict — two shards
    both completing a cell, possible when a resumed shard re-ran work a
    sibling stole — carries identical fold payloads either way; the
    first-shard-wins rule just keeps the timing fields deterministic
    given fixed inputs.
    """
    if not states:
        raise CheckpointError("no shard checkpoints to merge")
    merged = CheckpointState(fingerprint=states[0].fingerprint)
    for state in states:
        state.validate_fingerprint(merged.fingerprint)
        for name, categories in state.categories.items():
            merged.categories.setdefault(name, categories)
        for name, frequency in state.frequencies.items():
            merged.frequencies.setdefault(name, frequency)
        for key, result in state.results.items():
            if key in merged.results or key in merged.failures:
                continue
            merged.results[key] = result
            if key in state.timings:
                merged.timings[key] = state.timings[key]
        for key, reason in state.failures.items():
            if key in merged.results or key in merged.failures:
                continue
            merged.failures[key] = reason
            merged.failure_kinds[key] = state.failure_kinds.get(
                key, "permanent"
            )
            if key in state.failure_attempts:
                merged.failure_attempts[key] = state.failure_attempts[key]
            if key in state.timings:
                merged.timings[key] = state.timings[key]
    return merged


def missing_cells(state: CheckpointState) -> list[tuple[str, str]]:
    """Grid cells the state has no outcome for, in canonical order."""
    completed = state.completed_keys()
    return [cell for cell in grid_cells(state.fingerprint) if cell not in completed]


def load_shard_checkpoints(
    directory: str | os.PathLike,
) -> list[CheckpointState]:
    """Load every ``shard-*.jsonl`` in ``directory`` (by shard index)."""
    paths = find_shard_checkpoints(directory)
    if not paths:
        raise CheckpointError(
            f"no shard checkpoints (shard-*.jsonl) found in {directory}"
        )
    return [load_checkpoint(path) for path in paths]


def write_canonical_checkpoint(
    state: CheckpointState, path: str | os.PathLike
) -> None:
    """Re-serialise a (merged) state exactly as one serial run would.

    Dataset-major, registry algorithm order, dataset row before its
    cells — line-for-line the layout a single uninterrupted checkpointed
    run produces, so the merged file is byte-identical to it whenever
    the recorded timings are (they are under the frozen-clock tests; in
    wall-clock runs the timing fields carry whichever shard ran the
    cell, everything else still matches).
    """
    fingerprint = state.fingerprint
    with CheckpointWriter(path, fingerprint) as writer:
        for dataset in fingerprint.get("datasets", []):
            # Load-failed datasets have no categorisation row — exactly
            # like the serial writer, their cells appear as failures only.
            if dataset in state.categories:
                writer.write_dataset(
                    dataset,
                    state.categories[dataset],
                    state.frequencies.get(dataset),
                )
            for algorithm in fingerprint.get("algorithms", []):
                key = (algorithm, dataset)
                timings = state.timings.get(key, {})
                if key in state.results:
                    writer.write_result(
                        algorithm,
                        dataset,
                        state.results[key],
                        wall_seconds=timings.get("wall_seconds"),
                        cpu_seconds=timings.get("cpu_seconds"),
                    )
                elif key in state.failures:
                    writer.write_failure(
                        algorithm,
                        dataset,
                        state.failures[key],
                        state.failure_kinds.get(key, "permanent"),
                        state.failure_attempts.get(key, 1),
                        wall_seconds=timings.get("wall_seconds"),
                        cpu_seconds=timings.get("cpu_seconds"),
                    )


def report_from_state(state: CheckpointState):
    """Build the canonical :class:`~repro.core.runner.RunReport`.

    Results and failures are inserted in dataset-major order — the
    insertion order :func:`repro.core.results.save_report` preserves —
    so the saved report of a merged sharded run is byte-identical to
    the single-run report.
    """
    from .runner import RunReport  # local: avoid a module cycle

    report = RunReport()
    fingerprint = state.fingerprint
    for dataset in fingerprint.get("datasets", []):
        if dataset in state.categories:
            report.categories[dataset] = state.categories[dataset]
        if dataset in state.frequencies:
            report._frequencies[dataset] = state.frequencies[dataset]
        for algorithm in fingerprint.get("algorithms", []):
            key = (algorithm, dataset)
            if key in state.results:
                report.results[key] = state.results[key]
            elif key in state.failures:
                report.failures[key] = state.failures[key]
    return report
