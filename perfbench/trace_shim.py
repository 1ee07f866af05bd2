"""Run the frobpow CLI with spans around the calls into each layer.

Usage: python perfbench/trace_shim.py SPANS_PATH [frobpow CLI arguments ...]

The shim wraps public functions of the frobpow modules and rebinds every
module-level name that refers to one of them, because ``from .ff import
nullspace_codes`` copies the binding into ``invariants`` and ``cli`` holds its
own references.  It then calls ``frobpow.cli.main(argv)`` inside a ``cli.main``
span and exits with its return code.  Nothing in ``src/`` changes and stdout
is the CLI's own.

Spans (id, parent, name, start, end, sizes) stay in memory and are written
as JSON lines at exit, one file per process: SPANS_PATH for the main
process and SPANS_PATH.<pid> for each forked ``sweep --jobs`` worker.  The
time spent measuring a span's sizes after it ends is kept in ``size_s`` so
that it is charged to no layer.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from multiprocessing import util as mp_util

import numpy as np

_spans = []
_stack = []
_counters = {}


def _span(name, fn, sizes=None):
    def traced(*args, **kwargs):
        rec = {"id": len(_spans), "parent": _stack[-1] if _stack else None,
               "name": name}
        _spans.append(rec)
        _stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            _stack.pop()
        if sizes is not None:
            rec["sizes"] = sizes(args, result)
            rec["size_s"] = time.perf_counter() - rec["end"]
        return result
    return traced


def _count(name, fn, weight):
    def counted(*args, **kwargs):
        _counters[name] = _counters.get(name, 0) + weight(args)
        return fn(*args, **kwargs)
    return counted


def _elim_sizes(rank_of):
    def sizes(args, result):
        a, field = np.asarray(args[0]), args[1]
        rows, cols = a.shape if a.ndim == 2 else (0, 0)
        kind = "ext" if field.r > 1 else "p2" if field.p == 2 else "prime"
        return {"rows": rows, "cols": cols, "rank": rank_of(result, cols),
                "nnz": int(np.count_nonzero(a)), "field": kind}
    return sizes


def _series_sizes(args, result):
    return {"coeffs": 0 if result is None else len(result.coeffs)}


# (module, function, span name, sizes)
TRACED = (
    ("group", "build_group", "group.build", lambda a, r: {"gens": len(r)}),
    ("group", "full_gl_generators", "group.build", lambda a, r: {"gens": len(r)}),
    ("ff", "nullspace_codes", "ff.elim", _elim_sizes(lambda r, cols: cols - len(r))),
    ("ff", "rank_codes", "ff.elim", _elim_sizes(lambda r, cols: r)),
    ("invariants", "brute_force_hilbert", "invariants.fixed", None),
    ("invariants", "full_gl_fixed_basis", "invariants.fixed", None),
    ("invariants", "verify_decomposition", "invariants.decompose", None),
    ("invariants", "h_generators", "invariants.hgen", None),
    ("qseries", "hilbert_for_spec", "qseries.series", _series_sizes),
    ("qseries", "lrs_conjecture", "qseries.series", _series_sizes),
    ("qseries", "hilbert_A", "qseries.series", _series_sizes),
    ("qseries", "hilbert_main_fp", "qseries.series", _series_sizes),
    ("qseries", "expand", "qseries.series", _series_sizes),
    ("groebner", "buchberger_check", "groebner.check", None),
    ("groebner", "resolution_2d", "groebner.resolution", None),
    ("poly", "divide", "poly.divide", None),
    ("orbits", "count_orbits_enum", "orbits.enum",
     lambda a, r: {"points": r.total_points}),
)
# (module, function, counter, amount per call).  Monomials are counted where
# the fixed space is built, Q^n per call, so a call that the lru_cache on
# ``_brute_dims`` answers adds none.
COUNTED = (
    ("groebner", "_s_polynomial", "groebner.spairs", lambda args: 1),
    ("invariants", "_fixed_space", "invariants.monomials",
     lambda args: args[3] ** args[2]),
)


def install():
    """Rebind every traced function in every frobpow module; returns cli.main."""
    names = ("cli", "ff", "group", "poly", "invariants", "qseries",
             "groebner", "orbits")
    modules = [importlib.import_module(f"frobpow.{n}") for n in names]
    home = dict(zip(names, modules))
    wrappers = [(getattr(home[mod], fn), _span(span, getattr(home[mod], fn), sizes))
                for mod, fn, span, sizes in TRACED]
    wrappers += [(getattr(home[mod], fn), _count(counter, getattr(home[mod], fn), weight))
                 for mod, fn, counter, weight in COUNTED]
    for original, wrapper in wrappers:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return home["cli"].main


def _write(path):
    with open(path, "w") as out:
        for rec in _spans:
            out.write(json.dumps(rec) + "\n")
        out.write(json.dumps({"counters": _counters, "pid": os.getpid()}) + "\n")


class _Worker:
    """Registered with multiprocessing to run in each forked pool worker."""

    def __init__(self, path):
        self.path = path
        mp_util.register_after_fork(self, _Worker.start)

    def start(self):
        # A forked worker inherits the parent's open spans; start afresh and
        # flush at worker exit, which multiprocessing reaches through its
        # finalizers, not atexit.  Finalizers must be registered here, after
        # multiprocessing has cleared the ones inherited from the parent.
        _spans.clear()
        _stack.clear()
        _counters.clear()
        mp_util.Finalize(None, _write, args=(f"{self.path}.{os.getpid()}",),
                         exitpriority=100)


def main(argv):
    path, cli_argv = argv[0], argv[1:]
    cli_main = install()
    worker = _Worker(path)  # noqa: F841  kept alive for the after-fork registry
    rc = _span("cli.main", cli_main)(cli_argv)
    sys.stdout.flush()
    _write(path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
