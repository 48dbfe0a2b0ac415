"""Kernel backends: the production ``numpy`` kernels and their oracle.

Every hot numerical op — window/shapelet matching, prefix-distance
accumulation, pairwise distances, the Lloyd k-means step — is a method of
a :class:`KernelBackend`. Two backends exist, and nothing selects between
them at run time:

* ``numpy`` — the vectorised float64 kernels every call site uses
  (:data:`DEFAULT_BACKEND`);
* ``naive`` — pure-python reference loops, kept only as the oracle the
  conformance tests (``tests/stats/test_backend_conformance.py``) compare
  ``numpy`` against, op by op, at its declared
  :class:`~.base.OpTolerance`.

:func:`get_backend` and :class:`~repro.stats.distance.PrefixDistanceCache`
take a backend name, so a test can substitute the reference; see
``docs/performance.md`` for adding an op.
"""

from __future__ import annotations

from ...exceptions import ConfigurationError
from .base import (
    EXACT,
    OPS,
    KernelBackend,
    OpTolerance,
    assert_conformant,
    input_scale,
)
from .naive import NaiveBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "DEFAULT_BACKEND",
    "OPS",
    "EXACT",
    "OpTolerance",
    "KernelBackend",
    "assert_conformant",
    "input_scale",
    "get_backend",
    "tolerance_for",
]

#: The backend every call site gets; read at call time, so a test can
#: monkeypatch it (forked workers inherit the patched value).
DEFAULT_BACKEND = "numpy"

_BACKENDS: dict[str, KernelBackend] = {
    backend.name: backend for backend in (NaiveBackend(), NumpyBackend())
}


def get_backend(name: str | None = None) -> KernelBackend:
    """The backend called ``name`` (``None``: :data:`DEFAULT_BACKEND`)."""
    if name is None:
        name = DEFAULT_BACKEND
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; "
            f"known: {', '.join(sorted(_BACKENDS))}"
        ) from None


def tolerance_for(backend: str, op: str) -> OpTolerance:
    """The declared conformance tolerance of ``backend``'s ``op`` vs the
    naive reference — the single policy tests and benchmarks assert
    through."""
    instance = get_backend(backend)
    if op not in OPS:
        raise ConfigurationError(f"unknown kernel op {op!r}; known: {OPS}")
    return instance.tolerances[op]
