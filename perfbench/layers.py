"""Per-layer metrics from the span files the trace shim writes.

A span's self time is its duration minus the part its child spans cover
(each child's interval plus the time the shim took to size it).  A layer's
time is the sum of the self times of its spans.  ``case_layers`` rejects a
case whose ``cli.main`` span is longer than the case's wall time, and a pool
run from which no worker span was read.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# span name -> the per-layer time metric its self time adds to
LAYER_TIME = {
    "cli.main": "cli.self_s",
    "group.build": "group.build_s",
    "ff.elim": "ff.elim_s",
    "invariants.fixed": "invariants.assembly_s",
    "invariants.decompose": "invariants.ab_s",
    "invariants.hgen": "invariants.hgen_s",
    "qseries.series": "qseries.series_s",
    "groebner.check": "groebner.check_s",
    "groebner.resolution": "groebner.resolution_s",
    "poly.divide": "poly.divide_s",
    "orbits.enum": "orbits.enum_s",
}

# (name, unit) of every per-layer metric, in the order they are printed.
# What each should move, written down before any change is measured:
#   cli.startup_s: setup_s, and wall_s on brute, where it is paid per case;
#   cli.self_s (argparse, JSON, sweep files, the pool): wall_s, cpu_s on sweep;
#   group.*: small everywhere, kept so work moved into group building shows;
#   ff.*: wall_s, max_case_s on brute, a little on sweep;
#   invariants.assembly_s, ab_s, monomials: wall_s, max_case_s on brute and
#     wall_s on sweep; invariants.hgen_s: wall_s on sweep;
#   qseries.*, groebner.*, poly.*: wall_s on sweep, no change on brute;
#   orbits.*: wall_s on sweep.
PER_LAYER = (
    ("cli.startup_s", "s"), ("cli.self_s", "s"),
    ("group.build_s", "s"), ("group.build_calls", "count"),
    ("ff.elim_s", "s"), ("ff.elim_s.p2", "s"), ("ff.elim_s.prime", "s"),
    ("ff.elim_s.ext", "s"), ("ff.elim_calls", "count"),
    ("ff.elim_cells", "count"), ("ff.pivot_ratio", "ratio"),
    ("ff.nnz_ratio", "ratio"),
    ("invariants.assembly_s", "s"), ("invariants.ab_s", "s"),
    ("invariants.hgen_s", "s"), ("invariants.monomials", "count"),
    ("qseries.series_s", "s"), ("qseries.coeffs", "count"),
    ("groebner.check_s", "s"), ("groebner.spairs", "count"),
    ("groebner.resolution_s", "s"),
    ("poly.divide_s", "s"), ("poly.divide_calls", "count"),
    ("orbits.enum_s", "s"), ("orbits.points", "count"),
    ("orbits.unions", "count"), ("orbits.points_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"), ("host.ref_s", "s"),
)

def read_spans(path):
    """[(spans, counters)] for the main process file and every worker file."""
    path = Path(path)
    files = [path] + sorted(path.parent.glob(path.name + ".*"))
    out = []
    for f in files:
        spans, counters = [], {}
        for line in f.read_text().splitlines():
            rec = json.loads(line)
            if "counters" in rec:
                counters = rec["counters"]
            else:
                spans.append(rec)
        out.append((spans, counters))
    return out


def _self_times(spans):
    covered = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"] + rec.get("size_s", 0.0)
    return {rec["id"]: rec["end"] - rec["start"] - covered[rec["id"]] for rec in spans}


def case_layers(processes, case_wall, pool=False):
    """Layer sums of one traced case.  ``processes`` is what ``read_spans``
    returns, main process first; ``pool`` says the case ran a process pool,
    whose workers must have written spans.  Raises ValueError if the spans
    fail either check.  A call that raised (a cap hit) has no sizes and adds
    no work counts."""
    if pool and not any(spans for spans, _ in processes[1:]):
        raise ValueError("no span was read from a pool worker")
    totals = defaultdict(float)
    main = None
    for spans, counters in processes:
        selfs = _self_times(spans)
        by_id = {rec["id"]: rec for rec in spans}
        for rec in spans:
            name, sizes, own = rec["name"], rec.get("sizes", {}), selfs[rec["id"]]
            totals[LAYER_TIME[name]] += own
            if name == "cli.main":
                main = rec
            elif name == "group.build":
                totals["group.build_calls"] += 1
            elif name == "ff.elim":
                totals[f"ff.elim_s.{sizes['field']}"] += own
                totals["ff.elim_calls"] += 1
                totals["ff.elim_cells"] += sizes["rows"] * sizes["cols"]
                totals["ff.rows"] += sizes["rows"]
                totals["ff.rank"] += sizes["rank"]
                totals["ff.nnz"] += sizes["nnz"]
            elif name == "qseries.series":
                parent = by_id.get(rec["parent"])
                if parent is None or parent["name"] != "qseries.series":
                    totals["qseries.coeffs"] += sizes.get("coeffs", 0)
            elif name == "poly.divide":
                totals["poly.divide_calls"] += 1
            elif name == "orbits.enum":
                gens = sum(r["sizes"]["gens"] for r in spans
                           if r["parent"] == rec["id"] and r["name"] == "group.build")
                totals["orbits.points"] += sizes.get("points", 0)
                totals["orbits.unions"] += sizes.get("points", 0) * gens
        for name, count in counters.items():
            totals[name] += count
    if main is None:
        raise ValueError("no cli.main span was written")
    startup = case_wall - (main["end"] - main["start"])
    if startup < 0:
        raise ValueError(f"cli.main took {-startup} s longer than its case")
    totals["cli.startup_s"] += startup
    return totals


def pass_metrics(case_totals):
    """Per-layer metrics of one traced pass from the sums of its cases."""
    totals = defaultdict(float)
    for case in case_totals:
        for name, value in case.items():
            totals[name] += value
    out = {name: float(totals[name]) for name, _ in PER_LAYER}
    out["ff.pivot_ratio"] = totals["ff.rank"] / totals["ff.rows"] if totals["ff.rows"] else 0.0
    out["ff.nnz_ratio"] = totals["ff.nnz"] / totals["ff.elim_cells"] if totals["ff.elim_cells"] else 0.0
    out["orbits.points_per_s"] = (totals["orbits.points"] / totals["orbits.enum_s"]
                                  if totals["orbits.enum_s"] else 0.0)
    return out
