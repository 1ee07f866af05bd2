"""The benchmark's trace shim names only functions that exist.

perfbench/trace_shim.py wraps frobpow functions by (module, name).  A rename
in src/ would leave a name behind that the shim fails on, and the per-layer
metrics it feeds would read zero.  The shim is loaded from its path and read,
never changed or installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
