"""JSONL persistence for traces: dump a run to disk, re-load for analysis.

One line per record. The first line is a ``meta`` record carrying the
schema version; every other line is a ``span`` record::

    {"type": "meta", "version": 1, "created_unix": 1700000000.0}
    {"type": "span", "name": "cell", "span_id": 3, "parent_id": 0,
     "start_unix": ..., "duration": 0.81, "status": "ok",
     "thread": "MainThread", "memory_peak_bytes": null,
     "attributes": {"algorithm": "ECTS", "dataset": "PowerCons"}}

:class:`TraceWriter` is thread-safe and flushes every line, so a trace is
readable (modulo the final line) even while the producing run is still in
flight — the point of tracing a 48-hour grid. :class:`TraceReader` yields
:class:`SpanRecord` objects and is the input side of
``python -m repro.obs.summary``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator

from ..exceptions import ReproError
from .trace import Span, Tracer, use_tracer

__all__ = [
    "SCHEMA_VERSION",
    "SpanRecord",
    "TraceWriter",
    "TraceReader",
    "read_spans",
    "traced_run",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpanRecord:
    """One span re-loaded from a JSONL trace."""

    name: str
    span_id: int
    parent_id: int | None
    start_unix: float
    duration: float
    status: str
    thread: str = "MainThread"
    memory_peak_bytes: int | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)


def _sanitize(value: Any) -> Any:
    """Strict-JSON-safe copy: non-finite floats become strings.

    ``json.dumps`` would otherwise emit ``Infinity``/``NaN``, which many
    JSONL consumers (and the acceptance check) reject.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def span_to_record(span: Span) -> dict[str, Any]:
    """The JSON-serialisable dict form of a finished span."""
    return {
        "type": "span",
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_unix": span.start_unix,
        "duration": span.duration,
        "status": span.status,
        "thread": span.thread_name,
        "memory_peak_bytes": span.memory_peak_bytes,
        "attributes": _sanitize(span.attributes),
        "events": _sanitize(span.events),
    }


class TraceWriter:
    """Append spans to a JSONL file as they finish.

    Usable directly (``writer.write_span(span)``) or as the tracer's
    ``on_finish`` callback::

        with TraceWriter(path) as writer:
            tracer = Tracer(on_finish=writer.write_span)

    A context manager; ``close()`` is idempotent.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._n_spans = 0
        self._write_line(
            {
                "type": "meta",
                "version": SCHEMA_VERSION,
                "created_unix": time.time(),
            }
        )

    def _write_line(self, record: dict[str, Any]) -> None:
        if self._file is None:
            raise ReproError(f"trace writer for {self.path} is closed")
        line = json.dumps(record, default=str, separators=(",", ":"))
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()

    def write_span(self, span: Span) -> None:
        """Persist one finished span."""
        self._write_line(span_to_record(span))
        self._n_spans += 1

    @property
    def n_spans(self) -> int:
        """Spans written so far."""
        return self._n_spans

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def traced_run(
    path: str | Path | None, out: IO[str], *, summary_hint: bool = False
) -> Iterator[None]:
    """Trace the spans of the ``with`` block to a JSONL file at ``path``.

    Installs a :class:`Tracer` whose finished spans go to a
    :class:`TraceWriter`; an empty or ``None`` path traces nothing. When the block
    finishes cleanly, ``trace written to PATH (N spans)`` is printed to
    ``out``; ``summary_hint`` puts a blank line before it and the
    ``repro.obs.summary`` command after it.
    """
    if not path:
        yield
        return
    with TraceWriter(path) as writer:
        with use_tracer(Tracer(on_finish=writer.write_span)):
            yield
    message = f"trace written to {path} ({writer.n_spans} spans)"
    if summary_hint:
        message = (
            f"\n{message}; summarise with: python -m repro.obs.summary {path}"
        )
    print(message, file=out)


class TraceReader:
    """Iterate the span records of a JSONL trace file.

    Unknown record types are skipped (forward compatibility); malformed
    JSON raises :class:`ReproError` with the offending line number.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise ReproError(f"trace file not found: {self.path}")
        self.meta: dict[str, Any] | None = None

    def __iter__(self) -> Iterator[SpanRecord]:
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ReproError(
                        f"{self.path}:{line_number}: invalid JSONL ({error})"
                    ) from error
                kind = record.get("type")
                if kind == "meta":
                    self.meta = record
                elif kind == "span":
                    yield SpanRecord(
                        name=record["name"],
                        span_id=int(record["span_id"]),
                        parent_id=(
                            None
                            if record.get("parent_id") is None
                            else int(record["parent_id"])
                        ),
                        start_unix=float(record.get("start_unix", 0.0)),
                        duration=float(record.get("duration", 0.0)),
                        status=record.get("status", "ok"),
                        thread=record.get("thread", "MainThread"),
                        memory_peak_bytes=record.get("memory_peak_bytes"),
                        attributes=record.get("attributes", {}) or {},
                        events=record.get("events", []) or [],
                    )

    def spans(self) -> list[SpanRecord]:
        """All span records, in file (= completion) order."""
        return list(self)


def read_spans(path: str | Path) -> list[SpanRecord]:
    """Convenience: all spans of the trace at ``path``."""
    return TraceReader(path).spans()
