"""Importing ``repro`` limits BLAS to one thread unless the caller chose.

The variables only take effect if they are set before numpy loads its
BLAS, so each case runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _variables_after_import(**overrides: str) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k not in _VARIABLES}
    env.update(overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    script = (
        "import os, repro\n"
        f"print(' '.join(os.environ[name] for name in {_VARIABLES!r}))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()


def test_unset_variables_are_pinned_to_one_thread():
    assert _variables_after_import() == ["1", "1", "1"]


@pytest.mark.parametrize("variable", _VARIABLES)
def test_a_value_the_user_set_wins(variable):
    values = _variables_after_import(**{variable: "3"})
    expected = ["3" if name == variable else "1" for name in _VARIABLES]
    assert values == expected
