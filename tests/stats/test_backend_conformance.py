"""Differential conformance of the ``numpy`` kernels against ``naive``.

The vectorised ``numpy`` backend is tested op-by-op against the
pure-python ``naive`` reference over a shared corpus of generated cases —
univariate/multivariate, NaN tails, constant series, length-1 inputs,
large magnitudes, adversarial ties — plus seeded random fuzz. Agreement
is asserted at the op's *declared*
:class:`~repro.stats.backends.OpTolerance`: exact ops must match
bit-for-bit (NaN positions included), reordered-reduction ops within
their documented scale-aware bounds.

Each case also runs ``naive`` against itself, which pins that the oracle
handles every corpus case and is deterministic. The deep fuzz sweep is
marked ``slow`` (skipped by the default ``-m "not slow"`` run; CI's
``kernel-conformance`` job re-enables it with ``-m conformance``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.backends import (
    OPS,
    get_backend,
    tolerance_for,
    assert_conformant,
)
from repro.stats.distance import PrefixDistanceCache

pytestmark = pytest.mark.conformance

REFERENCE = "naive"
BACKENDS = ("naive", "numpy")


def _exact(backend: str, op: str) -> bool:
    return tolerance_for(backend, op).exact


def _check(backend: str, op: str, actual, reference, inputs, label: str):
    assert_conformant(
        actual,
        reference,
        tolerance_for(backend, op),
        inputs=inputs,
        label=f"{backend}:{op}:{label}",
    )


def _nan_tail(series: np.ndarray, k: int = 3) -> np.ndarray:
    out = np.array(series, dtype=float, copy=True)
    out[..., -k:] = np.nan
    return out


# ---------------------------------------------------------------------------
# Shared corpus.


def _matrices() -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(11)
    plain = rng.normal(size=(5, 26))
    with_nan = plain.copy()
    with_nan[2, -4:] = np.nan
    tied = np.tile(np.tile([1.0, -1.0], 13), (4, 1))
    return [
        ("random", plain),
        ("nan_row", with_nan),
        ("constant", np.zeros((3, 15))),
        ("large_magnitude", plain * 1e8),
        ("ties", tied),
    ]


# ---------------------------------------------------------------------------
# sliding_window / shapelet_match


def _patterns(matrix: np.ndarray) -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(19)
    length = matrix.shape[1]
    return [
        ("width1", rng.normal(size=1)),
        ("mid", rng.normal(size=max(1, length // 3))),
        ("full", rng.normal(size=length)),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op", ["sliding_window", "shapelet_match"])
@pytest.mark.parametrize(
    "case", _matrices(), ids=[case[0] for case in _matrices()]
)
def test_window_conformance(backend, op, case):
    label, matrix = case
    for pattern_label, pattern in _patterns(matrix):
        reference = getattr(get_backend(REFERENCE), op)(pattern, matrix)
        actual = getattr(get_backend(backend), op)(pattern, matrix)
        _check(
            backend, op, actual, reference, (pattern, matrix),
            f"{label}:{pattern_label}",
        )


# ---------------------------------------------------------------------------
# prefix_step (through PrefixDistanceCache, the only call site)


def _prefix_cases() -> list[tuple[str, np.ndarray, np.ndarray, int]]:
    rng = np.random.default_rng(23)
    uni_refs = rng.normal(size=(5, 12))
    multi_refs = rng.normal(size=(4, 3, 10))
    return [
        ("univariate", uni_refs, rng.normal(size=12), 1),
        ("multivariate", multi_refs, rng.normal(size=(3, 10)), 1),
        ("multi_query", uni_refs, rng.normal(size=(3, 12)), 3),
        ("nan_query", uni_refs, _nan_tail(rng.normal(size=12)), 1),
        ("nan_references", _nan_tail(uni_refs), rng.normal(size=12), 1),
        ("large_magnitude", uni_refs * 1e8, rng.normal(size=12) * 1e8, 1),
        ("constant", np.zeros((4, 9)), np.zeros(9), 1),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "case", _prefix_cases(), ids=[case[0] for case in _prefix_cases()]
)
def test_prefix_step_conformance(backend, case):
    label, references, stream, n_queries = case
    cache = PrefixDistanceCache(references, n_queries, backend=backend)
    oracle = PrefixDistanceCache(references, n_queries, backend=REFERENCE)
    for t in range(references.shape[-1]):
        values = stream[..., t] if stream.ndim > 1 or n_queries > 1 else stream[t]
        cache.advance(values)
        oracle.advance(values)
        _check(
            backend, "prefix_step",
            cache.squared_distances, oracle.squared_distances,
            (references, stream), f"{label}:t={t}",
        )


# ---------------------------------------------------------------------------
# pairwise_sqeuclidean / kmeans_update


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "label,rows,others",
    [
        ("self", np.random.default_rng(29).normal(size=(7, 9)), None),
        (
            "cross",
            np.random.default_rng(31).normal(size=(6, 8)),
            np.random.default_rng(37).normal(size=(4, 8)),
        ),
        ("constant", np.ones((3, 5)), np.zeros((2, 5))),
        ("single_feature", np.array([[1.0], [4.0]]), np.array([[2.0]])),
        (
            "large_magnitude",
            np.random.default_rng(41).normal(size=(5, 6)) * 1e6,
            None,
        ),
    ],
)
def test_pairwise_sqeuclidean_conformance(backend, label, rows, others):
    others = rows if others is None else others
    reference = get_backend(REFERENCE).pairwise_sqeuclidean(rows, others)
    actual = get_backend(backend).pairwise_sqeuclidean(rows, others)
    _check(
        backend, "pairwise_sqeuclidean", actual, reference,
        (rows, others), label,
    )


def _kmeans_cases() -> list[tuple[str, np.ndarray, np.ndarray, bool]]:
    rng = np.random.default_rng(43)
    rows = rng.normal(size=(40, 6))
    centroids = rows[rng.choice(40, size=5, replace=False)].copy()
    # One centroid parked far from every point: its cluster is empty, so
    # the re-seed-at-farthest-point branch runs on every backend.
    empty = centroids.copy()
    empty[0] = 1e6
    # Duplicated points equidistant from duplicated centroids: assignment
    # hinges entirely on deterministic first-minimum tie-breaking.
    tied_rows = np.tile(np.array([[1.0, 0.0], [0.0, 1.0]]), (6, 1))
    tied_centroids = np.array([[0.5, 0.5], [0.5, 0.5], [2.0, 2.0]])
    return [
        ("random", rows, centroids, False),
        ("empty_cluster", rows, empty, False),
        ("large_magnitude", rows * 1e5, centroids * 1e5, False),
        ("ties", tied_rows, tied_centroids, True),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "case", _kmeans_cases(), ids=[case[0] for case in _kmeans_cases()]
)
def test_kmeans_update_conformance(backend, case):
    label, rows, centroids, ties_only = case
    if ties_only and not _exact(backend, "kmeans_update"):
        pytest.skip(
            "exact-tie assignments are only pinned for exact backends"
        )
    ref_centroids, ref_assignment = get_backend(REFERENCE).kmeans_update(
        rows, centroids
    )
    new_centroids, assignment = get_backend(backend).kmeans_update(
        rows, centroids
    )
    _check(
        backend, "kmeans_update", new_centroids, ref_centroids,
        (rows, centroids), label,
    )
    if _exact(backend, "kmeans_update"):
        np.testing.assert_array_equal(assignment, ref_assignment)


# ---------------------------------------------------------------------------
# Seeded random fuzz.


def _fuzz_windows_once(backend: str, rng) -> None:
    n, length = int(rng.integers(1, 6)), int(rng.integers(2, 40))
    matrix = rng.normal(size=(n, length)) * 10.0 ** float(rng.integers(-2, 3))
    if rng.random() < 0.25:
        matrix[int(rng.integers(n)), -1] = np.nan
    pattern = rng.normal(size=int(rng.integers(1, length + 1)))
    for op in ("sliding_window", "shapelet_match"):
        reference = getattr(get_backend(REFERENCE), op)(pattern, matrix)
        actual = getattr(get_backend(backend), op)(pattern, matrix)
        _check(backend, op, actual, reference, (pattern, matrix), "fuzz")


def _fuzz_prefix_once(backend: str, rng) -> None:
    n, length = int(rng.integers(1, 6)), int(rng.integers(1, 15))
    if rng.random() < 0.5:
        shape = (n, length)
        stream = rng.normal(size=length)
    else:
        v = int(rng.integers(1, 4))
        shape = (n, v, length)
        stream = rng.normal(size=(v, length))
    references = rng.normal(size=shape) * 10.0 ** float(rng.integers(-2, 3))
    cache = PrefixDistanceCache(references, backend=backend)
    oracle = PrefixDistanceCache(references, backend=REFERENCE)
    cache.advance_chunk(stream)
    oracle.advance_chunk(stream)
    _check(
        backend, "prefix_step",
        cache.squared_distances, oracle.squared_distances,
        (references, stream), "fuzz",
    )


def _fuzz_kmeans_once(backend: str, rng) -> None:
    n, d = int(rng.integers(4, 30)), int(rng.integers(1, 6))
    k = int(rng.integers(1, min(n, 6)))
    rows = rng.normal(size=(n, d)) * 10.0 ** float(rng.integers(-2, 3))
    centroids = rows[rng.choice(n, size=k, replace=False)].copy()
    ref_centroids, _ = get_backend(REFERENCE).kmeans_update(rows, centroids)
    new_centroids, _ = get_backend(backend).kmeans_update(rows, centroids)
    _check(
        backend, "kmeans_update", new_centroids, ref_centroids,
        (rows, centroids), "fuzz",
    )
    ref_pairwise = get_backend(REFERENCE).pairwise_sqeuclidean(rows, centroids)
    pairwise = get_backend(backend).pairwise_sqeuclidean(rows, centroids)
    _check(
        backend, "pairwise_sqeuclidean", pairwise, ref_pairwise,
        (rows, centroids), "fuzz",
    )


_FUZZERS = (
    _fuzz_windows_once,
    _fuzz_prefix_once,
    _fuzz_kmeans_once,
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fuzzer", _FUZZERS, ids=lambda f: f.__name__)
def test_fuzz_conformance(backend, fuzzer):
    rng = np.random.default_rng(2024)
    for _ in range(15):
        fuzzer(backend, rng)


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fuzzer", _FUZZERS, ids=lambda f: f.__name__)
def test_fuzz_conformance_deep(backend, fuzzer):
    """The CI-only sweep: an order of magnitude more trials per op."""
    rng = np.random.default_rng(4048)
    for _ in range(150):
        fuzzer(backend, rng)


# ---------------------------------------------------------------------------
# Contract checks that hold for both backends.


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_declares_full_tolerance_policy(backend):
    instance = get_backend(backend)
    for op in OPS:
        tolerance = tolerance_for(backend, op)
        assert tolerance.rtol >= 0 and tolerance.atol >= 0
    assert instance.name == backend


def test_reference_backend_is_exact_everywhere():
    for op in OPS:
        assert tolerance_for(REFERENCE, op).exact, op
