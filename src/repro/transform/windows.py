"""Window and prefix utilities shared by the symbolic transforms.

WEASEL slides windows of several lengths over each series; ECEC and TEASER
chop training series into ``N`` (respectively ``S``) overlapping prefixes
whose lengths step from ``ceil(L / N)`` to ``L``. Both families of slicing
live here.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import DataError
from ..stats.backends.numpy_backend import strided_windows

__all__ = ["extract_windows", "prefix_lengths", "window_lengths", "window_matrix"]


def extract_windows(
    series_matrix: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Slide a window over every row of ``series_matrix``.

    Parameters
    ----------
    series_matrix:
        Array of shape ``(n_series, length)``.
    window:
        Window width, at most ``length``.

    Returns
    -------
    windows:
        Array of shape ``(n_series * n_positions, window)`` with all windows
        of all series stacked, position-major within each series.
    owners:
        Row index into ``series_matrix`` for each window.
    """
    series_matrix = np.asarray(series_matrix, dtype=float)
    if series_matrix.ndim != 2:
        raise DataError(
            f"expected a 2-D series matrix, got shape {series_matrix.shape}"
        )
    n_series, length = series_matrix.shape
    if not 1 <= window <= length:
        raise DataError(f"window must be in [1, {length}], got {window}")
    owners = np.repeat(np.arange(n_series), length - window + 1)
    return window_matrix(series_matrix, window), owners


def window_matrix(series_matrix: np.ndarray, window: int) -> np.ndarray:
    """All windows of all rows, stacked as :func:`extract_windows` does.

    The unchecked core of :func:`extract_windows`: ``series_matrix`` must be
    a 2-D float array with at least ``window`` columns. The windows are read
    from one strided view of the whole matrix (:func:`strided_windows`).
    """
    return strided_windows(series_matrix, window).reshape(-1, window)


def prefix_lengths(length: int, n_prefixes: int) -> list[int]:
    """The ECEC/TEASER prefix ladder: ``ceil(L/N), 2*ceil(L/N), ..., L``.

    The last entry is always the full length; duplicates collapse, so short
    series may yield fewer than ``n_prefixes`` distinct lengths.
    """
    if length < 1:
        raise DataError(f"length must be >= 1, got {length}")
    if n_prefixes < 1:
        raise DataError(f"n_prefixes must be >= 1, got {n_prefixes}")
    step = math.ceil(length / n_prefixes)
    ladder = list(range(step, length + 1, step))
    if not ladder or ladder[-1] != length:
        ladder.append(length)
    return sorted(set(ladder))


def window_lengths(length: int, minimum: int = 4, n_sizes: int = 6) -> list[int]:
    """WEASEL's set of window widths for a series of the given length.

    Geometrically spaced between ``minimum`` and the series length, clipped
    and deduplicated. Short series fall back to the lengths that fit.
    """
    if length < 2:
        return [max(1, length)]
    minimum = min(minimum, length)
    maximum = max(minimum, length)
    if n_sizes == 1 or minimum == maximum:
        return [minimum]
    ratios = np.linspace(0.0, 1.0, n_sizes)
    sizes = np.unique(
        np.round(minimum * (maximum / minimum) ** ratios).astype(int)
    )
    return [int(size) for size in sizes if 1 <= size <= length]
