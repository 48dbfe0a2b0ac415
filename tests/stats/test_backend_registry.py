"""Backend lookup: the fixed ``{naive, numpy}`` map and its tolerances."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.stats.backends import (
    DEFAULT_BACKEND,
    OPS,
    get_backend,
    tolerance_for,
)


def test_default_resolution_is_numpy():
    assert get_backend().name == DEFAULT_BACKEND == "numpy"


def test_unknown_backend_name_raises_with_the_known_names():
    with pytest.raises(ConfigurationError, match="fortran77") as error:
        get_backend("fortran77")
    assert "naive, numpy" in str(error.value)


def test_builtins_declare_a_tolerance_for_every_op():
    for name in ("naive", "numpy"):
        backend = get_backend(name)
        assert backend.name == name
        assert set(backend.tolerances) == set(OPS), name


def test_tolerance_for_rejects_unknown_op():
    with pytest.raises(ConfigurationError, match="unknown kernel op"):
        tolerance_for("numpy", "fft")
