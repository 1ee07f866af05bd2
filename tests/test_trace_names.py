"""The benchmark's trace shim names only functions that exist.

perfbench/trace_shim.py wraps frobpow functions by (module, name).  A rename
in src/ would leave a name behind that the shim fails on, and the per-layer
metrics it feeds would read zero.  The shim is loaded from its path and read,
never changed or installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from frobpow import invariants

SHIM = Path(__file__).resolve().parent.parent / "perfbench" / "trace_shim.py"


def _shim():
    spec = importlib.util.spec_from_file_location("frobpow_trace_shim", SHIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SHIM_MODULE = _shim()
NAMES = sorted({(row[0], row[1]) for row in SHIM_MODULE.TRACED + SHIM_MODULE.COUNTED})


def test_the_shim_names_something():
    assert len(NAMES) >= 10


@pytest.mark.parametrize("module,name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_every_traced_function_resolves(module, name):
    home = importlib.import_module(f"frobpow.{module}")
    assert callable(getattr(home, name, None)), f"frobpow.{module} has no {name}"


def test_the_monomial_counter_reads_n_and_q():
    # the shim counts invariants.monomials as args[3] ** args[2] of _fixed_space
    # calls; a reordered signature would miscount without failing
    (weight,) = [row[3] for row in SHIM_MODULE.COUNTED
                 if row[:3] == ("invariants", "_fixed_space", "invariants.monomials")]
    params = list(inspect.signature(invariants._fixed_space).parameters)
    assert params[2:4] == ["n", "Q"]
    assert weight(("gens", "field", 3, 5)) == 5 ** 3
