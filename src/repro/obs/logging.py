"""Stdlib logging setup for the ``repro`` namespace.

Importing this module attaches a ``NullHandler`` to the ``repro`` root
logger, so library code can log freely without ever printing for users
who did not opt in (the stdlib "last resort" stderr handler never fires
for ``repro`` records). Applications opt in with
:func:`configure_logging`, the CLI exposes it as ``--log-level`` /
``--progress``.

:class:`GridProgress` is the runner's heartbeat: one line per cell start
/ finish / timeout with elapsed time and grid completion percentage —
the minimum needed to tell, mid-flight, *which* (algorithm, dataset)
pair a multi-hour grid is stuck on.
"""

from __future__ import annotations

import logging
import sys
import threading
from typing import IO

__all__ = [
    "ROOT_LOGGER_NAME",
    "get_logger",
    "configure_logging",
    "configure_cli_logging",
    "warn_once",
    "reset_warnings",
    "GridProgress",
]

ROOT_LOGGER_NAME = "repro"

# Library default: silent unless the application configures a handler.
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())

_LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_DATE_FORMAT = "%H:%M:%S"

#: Marker attribute identifying the handler installed by configure_logging.
_HANDLER_MARKER = "_repro_obs_handler"


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` root.

    ``get_logger("core.runner")`` == ``logging.getLogger("repro.core.runner")``;
    names already rooted at ``repro`` are used as-is, so modules can call
    ``get_logger(__name__)``.
    """
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure_logging(
    level: int | str = "INFO", stream: IO[str] | None = None
) -> logging.Logger:
    """Attach one stream handler to the ``repro`` root and set its level.

    Idempotent: calling again replaces the previously installed handler
    (never stacks duplicates) and re-applies the level. Returns the root
    ``repro`` logger.
    """
    if isinstance(level, str):
        numeric = logging.getLevelName(level.upper())
        if not isinstance(numeric, int):
            raise ValueError(f"unknown log level: {level!r}")
        level = numeric
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_MARKER, False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(logging.Formatter(_LOG_FORMAT, _DATE_FORMAT))
    setattr(handler, _HANDLER_MARKER, True)
    root.addHandler(handler)
    root.setLevel(level)
    return root


def configure_cli_logging(level: str | None, progress: bool = False) -> None:
    """Apply a command's ``--log-level`` (and ``--progress``) flags.

    Configures nothing when neither is given; ``--progress`` alone logs
    at INFO.
    """
    if level or progress:
        configure_logging(level or "INFO")


# ----------------------------------------------------------------------
# One-time warnings — e.g. "SIGALRM unavailable, the kill rule degrades
# to a cooperative check" should be said once per process, not once per
# grid cell.

_warned_keys: set[str] = set()
_warned_lock = threading.Lock()


def warn_once(
    key: str, message: str, logger: logging.Logger | None = None
) -> bool:
    """Log ``message`` as a warning the first time ``key`` is seen.

    Returns ``True`` when the warning was emitted, ``False`` when the
    key had already fired.
    """
    with _warned_lock:
        if key in _warned_keys:
            return False
        _warned_keys.add(key)
    (logger or get_logger()).warning(message)
    return True


def reset_warnings() -> None:
    """Forget emitted one-time warning keys (for tests)."""
    with _warned_lock:
        _warned_keys.clear()


# ----------------------------------------------------------------------


class GridProgress:
    """Per-cell progress telemetry for a grid run.

    Emits INFO lines through ``repro.core.runner``-namespaced logging::

        cell 3/16 (18.8%) ECTS on PowerCons: started
        cell 3/16 (18.8%) ECTS on PowerCons: done in 0.8s (acc=0.933 hm=0.612)
        cell 4/16 (25.0%) EDSC on Maritime: TIMEOUT after 120.0s

    With the default ``NullHandler`` these lines cost one disabled-logger
    check each; nothing is formatted unless a handler is installed.
    """

    def __init__(self, total_cells: int, logger: logging.Logger | None = None) -> None:
        self.total_cells = max(int(total_cells), 1)
        self.completed = 0
        self._logger = logger or get_logger("core.runner")

    def _prefix(self, done: int) -> str:
        percent = 100.0 * done / self.total_cells
        return f"cell {done}/{self.total_cells} ({percent:.1f}%)"

    def started(self, algorithm: str, dataset: str) -> None:
        self._logger.info(
            "%s %s on %s: started",
            self._prefix(self.completed + 1),
            algorithm,
            dataset,
        )

    def finished(
        self, algorithm: str, dataset: str, elapsed: float, detail: str = ""
    ) -> None:
        self.completed += 1
        suffix = f" ({detail})" if detail else ""
        self._logger.info(
            "%s %s on %s: done in %.1fs%s",
            self._prefix(self.completed),
            algorithm,
            dataset,
            elapsed,
            suffix,
        )

    def failed(
        self,
        algorithm: str,
        dataset: str,
        elapsed: float,
        reason: str,
        timeout: bool = False,
    ) -> None:
        self.completed += 1
        self._logger.warning(
            "%s %s on %s: %s after %.1fs (%s)",
            self._prefix(self.completed),
            algorithm,
            dataset,
            "TIMEOUT" if timeout else "FAILED",
            elapsed,
            reason,
        )

    @property
    def fraction_done(self) -> float:
        return self.completed / self.total_cells
