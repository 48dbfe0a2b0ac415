"""Property-based fuzz for ``PrefixDistanceCache.advance_chunk``.

The serving fleet batches simultaneous consults through multi-query
chunks — ``(n_queries, k)`` univariate / ``(n_queries, V, k)``
multivariate — and relies on three equivalences, here asserted
bit-for-bit on the ``numpy`` kernels and the ``naive`` reference (the
comparison is same-backend on both sides, so the accumulation order per
``(query, reference)`` pair is identical either way):

* a multi-query chunk equals advancing each query through its own
  single-query cache;
* the explicit ``(1, ...)`` single-stream form equals the bare form;
* one ``advance_chunk`` equals the same points fed through ``advance``
  one step at a time, in any chunk partitioning.

Runs derandomized (seeded) so failures reproduce exactly in CI.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.distance import PrefixDistanceCache

pytestmark = pytest.mark.conformance

_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def _chunk_case(draw):
    n_references = draw(st.integers(1, 4))
    n_queries = draw(st.integers(1, 3))
    length = draw(st.integers(1, 10))
    n_variables = draw(st.one_of(st.none(), st.integers(1, 3)))
    seed = draw(st.integers(0, 2**16))
    scale = 10.0 ** draw(st.integers(-3, 3))
    nan_fraction = draw(st.sampled_from([0.0, 0.0, 0.2]))
    # Chunk boundaries partition [0, length) arbitrarily, including
    # empty chunks (k = 0) at either end.
    n_cuts = draw(st.integers(0, 3))
    cuts = sorted(draw(
        st.lists(
            st.integers(0, length), min_size=n_cuts, max_size=n_cuts
        )
    ))
    rng = np.random.default_rng(seed)
    ref_shape = (
        (n_references, length)
        if n_variables is None
        else (n_references, n_variables, length)
    )
    stream_shape = (
        (n_queries, length)
        if n_variables is None
        else (n_queries, n_variables, length)
    )
    references = rng.normal(size=ref_shape) * scale
    stream = rng.normal(size=stream_shape) * scale
    if nan_fraction:
        references[rng.random(size=ref_shape) < nan_fraction] = np.nan
        stream[rng.random(size=stream_shape) < nan_fraction] = np.nan
    return references, stream, [0, *cuts, length]


@pytest.mark.parametrize("backend", ("naive", "numpy"))
@given(case=_chunk_case())
@_SETTINGS
def test_multi_query_chunk_matches_per_query_caches(backend, case):
    references, stream, bounds = case
    n_queries = stream.shape[0]
    batched = PrefixDistanceCache(references, n_queries, backend=backend)
    singles = [
        PrefixDistanceCache(references, backend=backend)
        for _ in range(n_queries)
    ]
    for start, stop in zip(bounds, bounds[1:]):
        chunk = stream[..., start:stop]
        result = batched.advance_chunk(chunk)
        for q, cache in enumerate(singles):
            cache.advance_chunk(chunk[q])
        expected = np.stack([c.squared_distances[0] for c in singles])
        np.testing.assert_array_equal(
            batched.squared_distances, expected,
            err_msg=f"{backend}: chunk [{start}:{stop}]",
        )
        assert result is not None
    assert batched.length == references.shape[-1]


@pytest.mark.parametrize("backend", ("naive", "numpy"))
@given(case=_chunk_case())
@_SETTINGS
def test_explicit_single_stream_form_matches_bare_form(backend, case):
    references, stream, bounds = case
    query = stream[:1]  # the (1, ...) explicit multi-query form
    explicit = PrefixDistanceCache(references, backend=backend)
    bare = PrefixDistanceCache(references, backend=backend)
    for start, stop in zip(bounds, bounds[1:]):
        explicit.advance_chunk(query[..., start:stop])
        bare.advance_chunk(query[0, ..., start:stop])
        np.testing.assert_array_equal(
            explicit.squared_distances, bare.squared_distances,
            err_msg=f"{backend}: chunk [{start}:{stop}]",
        )


@pytest.mark.parametrize("backend", ("naive", "numpy"))
@given(case=_chunk_case())
@_SETTINGS
def test_chunk_matches_stepwise_advance(backend, case):
    references, stream, _ = case
    n_queries = stream.shape[0]
    chunked = PrefixDistanceCache(references, n_queries, backend=backend)
    stepped = PrefixDistanceCache(references, n_queries, backend=backend)
    chunked.advance_chunk(stream)
    for t in range(stream.shape[-1]):
        stepped.advance(stream[..., t])
    np.testing.assert_array_equal(
        chunked.squared_distances, stepped.squared_distances,
        err_msg=backend,
    )
