"""Command-line front end: single checks and manifest-driven sweeps.

Every subcommand prints machine output on stdout (JSON by default, CSV or a
short human rendering on request) and diagnostics on stderr.  Exit codes:
0 all checks pass, 1 a comparison failed, 2 invalid parameters, 3 a size
cap was exceeded (monomials, points, series length or the memory budget of
an elimination), memory ran out before a cap fired or a sweep worker died,
10 the point-count conjecture mismatched its brute-force cross-check (a
finding, not a bug).

Each sweepable subcommand is one ``run_*`` function of (spec, m, caps) that
returns its JSON payload and the status "ok" or "fail"; ``cmd_*`` renders it.

The sweep subcommand replays a JSON manifest: a parameter grid, a list of
subcommand names, an output directory, and enumeration caps.  A job file is
the single-command JSON plus "command" and "status".  hilbert jobs run as
``--mode both``, or as ``--mode brute`` where no closed form exists; gbcheck
jobs outside the h-generator range (ell < n - 1) have status "skip", jobs
stopped by a cap "cap".  Identical manifests produce byte-identical outputs;
grid points violating the group constraints are skipped and counted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from .ff import CapExceeded, factor_prime_power
from .group import GroupSpec
from .invariants import (
    DEFAULT_MONOMIAL_CAP, brute_force_hilbert, full_gl_fixed_basis,
    h_generators, verify_decomposition)
from .orbits import DEFAULT_POINT_CAP, count_orbits_enum
from .qseries import has_closed_form, hilbert_for_spec, lrs_conjecture

SWEEP_COMMANDS = ("hilbert", "gbcheck", "decompose", "orbits")
EXIT_CODES = {"ok": 0, "fail": 1}


def _spec_from_args(args):
    if args.q is not None:
        if args.p is not None or args.r != 1:
            raise ValueError("give either --q or --p/--r, not both")
        p, r = factor_prime_power(args.q)
    elif args.p is not None:
        p, r = args.p, args.r
    else:
        raise ValueError("a base field is required: --p (with --r) or --q")
    return _build_spec(p, r, args.n, args.ell, args.e, args.full_stabilizer)


def _build_spec(p, r, n, ell, e, full_stabilizer):
    """Missing ell/e default to the largest group: ell = n - 1, e = q - 1."""
    if full_stabilizer:
        return GroupSpec(p=p, r=r, n=n, full_stabilizer=True)
    q = p**r
    return GroupSpec(
        p=p, r=r, n=n,
        ell=n - 1 if ell is None else ell,
        e=q - 1 if e is None else e,
    )


def _dump_json(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit(fmt, data, csv_rows, pretty_lines):
    if fmt == "json":
        sys.stdout.write(_dump_json(data))
    elif fmt == "csv":
        sys.stdout.write("\n".join(csv_rows) + "\n")
    else:
        sys.stdout.write("\n".join(pretty_lines) + "\n")


# -- hilbert ----------------------------------------------------------------

def _require_closed_form(spec):
    if not has_closed_form(spec):
        raise ValueError("no closed-form series for this group; use --mode brute")


def _check_series_length(n, Q, cap):
    """CapExceeded when a series through degree n(Q - 1) passes the monomial cap."""
    length = n * (Q - 1) + 1
    if length > cap:
        raise CapExceeded(f"the series needs {length} coefficients, above the cap of {cap}")


def run_hilbert(spec, m, mode, max_monomials=DEFAULT_MONOMIAL_CAP, truncate=None):
    """``hilbert --mode brute|both``: brute-force dims, or the formula-vs-brute table.

    Brute force runs first, so its cap on the Q^n monomials also bounds the
    series length n(Q - 1) + 1 before the series is built.
    """
    base = {"spec": spec.to_json(), "m": m, "mode": mode}
    if mode == "both":
        _require_closed_form(spec)
    brute = brute_force_hilbert(spec, m, max_monomials)
    if mode == "brute":
        return base | {"dims": list(brute.dims), "total": brute.total}, "ok"
    formula = hilbert_for_spec(spec, m)
    top = max(len(brute.dims) - 1, formula.truncation) if truncate is None else truncate
    table = [[d, formula[d], brute[d], formula[d] == brute[d]] for d in range(top + 1)]
    equal = all(row[3] for row in table)
    return base | {
        "closed_form": formula.closed_form, "rows": table, "equal": equal,
        "formula_total": formula.total, "brute_total": brute.total,
    }, "ok" if equal else "fail"


def cmd_hilbert(args):
    spec = _spec_from_args(args)
    if args.mode == "formula":
        # pretty output shows the whole series, the JSON and CSV the window
        _require_closed_form(spec)
        _check_series_length(spec.n, spec.q ** args.m, args.max_monomials)
        formula = hilbert_for_spec(spec, args.m)
        view = formula.to_json(args.truncate)
        data = {"spec": spec.to_json(), "m": args.m, "mode": args.mode,
                "series": view, "total": formula.total}
        rows = ["degree,coeff"] + [f"{d},{c}" for d, c in enumerate(view["coeffs"])]
        lines = [formula.closed_form, str(formula), f"total {formula.total}"]
        _emit(args.format, data, rows, lines)
        return 0
    data, status = run_hilbert(spec, args.m, args.mode, args.max_monomials, args.truncate)
    if args.mode == "brute":
        rows = ["degree,dim"] + [f"{d},{c}" for d, c in enumerate(data["dims"])]
        lines = [" ".join(str(c) for c in data["dims"]), f"total {data['total']}"]
    else:
        rows = ["degree,formula,brute,equal"] + [
            f"{d},{f},{b},{eq}" for d, f, b, eq in data["rows"]]
        lines = [data["closed_form"]] + [
            f"{d}: formula={f} brute={b}{'' if eq else '  <- mismatch'}"
            for d, f, b, eq in data["rows"]]
        lines += [f"totals {data['formula_total']} vs {data['brute_total']}",
                  f"equal: {data['equal']}"]
    _emit(args.format, data, rows, lines)
    return EXIT_CODES[status]


# -- gbcheck ----------------------------------------------------------------

def run_gbcheck(spec, m, from_scratch=False):
    """``gbcheck``: S-pair certificates; ValueError outside the h-generator range."""
    from .groebner import buchberger_check  # only gbcheck needs the Groebner layer

    report = buchberger_check(h_generators(spec, m), from_scratch=from_scratch)
    return report.to_json(), "ok" if report.ok else "fail"


def cmd_gbcheck(args):
    data, status = run_gbcheck(_spec_from_args(args), args.m, args.from_scratch)
    certificates = data["certificates"]
    rows = ["pair,remainder"] + [f"\"{c['pair']}\",\"{c['remainder']}\"" for c in certificates]
    lines = [f"generators: {' '.join(data['names'])}"]
    lines += [f"{c['pair']}: {c['remainder']}" for c in certificates] + [f"ok: {data['ok']}"]
    _emit(args.format, data, rows, lines)
    return EXIT_CODES[status]


# -- decompose --------------------------------------------------------------

def run_decompose(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """``decompose``: dims of A + B against the brute-force fixed space."""
    report = verify_decomposition(spec, m, max_monomials)
    return report.to_json(), "ok" if report.ok else "fail"


def cmd_decompose(args):
    data, status = run_decompose(_spec_from_args(args), args.m, args.max_monomials)
    rows = ["degree,A,B,total,brute"] + [",".join(map(str, row)) for row in data["rows"]]
    lines = [f"{d}: A={a} B={b} brute={br}" for d, a, b, _, br in data["rows"]]
    lines += data["mismatches"] + [f"ok: {data['ok']}"]
    _emit(args.format, data, rows, lines)
    return EXIT_CODES[status]


# -- orbits -----------------------------------------------------------------

def run_orbits(spec, m, max_points=DEFAULT_POINT_CAP):
    """``orbits``: enumerated orbit count against the closed formula."""
    report = count_orbits_enum(spec, m, max_points)
    return report.to_json(), "ok" if report.match else "fail"


def cmd_orbits(args):
    data, status = run_orbits(_spec_from_args(args), args.m, args.max_points)
    rows = ["size,multiplicity"] + [f"{s},{c}" for s, c in data["histogram"]]
    hist = ", ".join(f"{c} of size {s}" for s, c in data["histogram"])
    lines = [
        f"{data['orbit_count']} orbits of {data['total_points']} points",
        f"histogram: {hist}",
        f"formula {data['formula_value']}: match={data['match']}",
    ]
    _emit(args.format, data, rows, lines)
    return EXIT_CODES[status]


# -- resolution2d -----------------------------------------------------------

def cmd_resolution2d(args):
    from .groebner import resolution_2d

    report = resolution_2d(args.p, args.m, args.e, args.ell)
    data = report.to_json()
    rows = ["key,value"] + [
        f"branch,{data['branch']}",
        f"f0_shifts,{' '.join(str(s) for s in data['f0_shifts'])}",
        f"f1_shifts,{' '.join(str(s) for s in data['f1_shifts'])}",
        f"syzygies,{' '.join(s['name'] for s in data['syzygies'])}",
        f"ok,{data['ok']}",
    ]
    lines = [
        f"branch: {data['branch']}",
        f"free module shifts: {data['f0_shifts']} then {data['f1_shifts']}",
        f"syzygies: {', '.join(s['name'] for s in data['syzygies'])}",
    ] + list(data["failures"]) + [f"ok: {report.ok}"]
    _emit(args.format, data, rows, lines)
    return 0 if report.ok else 1


# -- conjecture -------------------------------------------------------------

def check_conjecture(q, n, m, max_monomials=DEFAULT_MONOMIAL_CAP, truncate=None):
    """(series, brute dims, match) for the conjectured full-GL series.

    The series length n(q^m - 1) + 1 is capped by max_monomials.  Brute
    force runs only where it is feasible (q <= 3, n <= 2, m <= 2), and
    elsewhere dims and match are None.  match compares every degree through
    truncate, by default through the last degree of either side.
    """
    factor_prime_power(q)  # an invalid q exits 2 before any cap
    _check_series_length(n, q ** m, max_monomials)
    series = lrs_conjecture(q, n, m)
    if not (q <= 3 and n <= 2 and m <= 2):
        return series, None, None
    dims = [len(b) for b in full_gl_fixed_basis(q, n, m, max_monomials)]
    top = max(len(dims) - 1, series.truncation) if truncate is None else truncate
    match = all(series[d] == (dims[d] if d < len(dims) else 0) for d in range(top + 1))
    return series, dims, match


def cmd_conjecture(args):
    series, dims, match = check_conjecture(
        args.q, args.n, args.m, args.max_monomials, args.truncate)
    checked = dims is not None
    data = {"q": args.q, "n": args.n, "m": args.m, "series": series.to_json(args.truncate),
            "total": series.total, "checked": checked, "brute_dims": dims, "match": match}
    if checked:
        rows = ["degree,conjecture,brute"] + [
            f"{d},{series[d]},{dims[d] if d < len(dims) else 0}"
            for d in range(max(len(dims), series.truncation + 1))
        ]
    else:
        rows = ["degree,coeff"] + [f"{d},{c}" for d, c in enumerate(series.coeffs)]
    lines = [series.closed_form, str(series)] + (
        [f"brute dims: {dims}", f"match: {match}"] if checked
        else ["brute cross-check skipped (only run for q <= 3, n <= 2, m <= 2)"]
    )
    _emit(args.format, data, rows, lines)
    return 10 if checked and not match else 0


# -- sweep ------------------------------------------------------------------

def _expect(value, kind, what):
    if not isinstance(value, kind):
        noun = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ValueError(f"{what} must be {noun}, not {value!r}")
    return value


def _grid_value_ok(axis, value):
    if axis == "full_stabilizer":
        return type(value) is bool
    if axis == "m":
        return type(value) is int and value >= 1
    return type(value) is int or (value is None and axis in ("ell", "e"))


def _expand_manifest(manifest):
    """Validated (jobs, skipped) from a manifest dict; jobs sorted by key."""
    _expect(manifest, dict, "a manifest")
    unknown = set(manifest) - {"grid", "commands", "output_dir", "caps"}
    if unknown:
        raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
    for key in ("grid", "commands", "output_dir"):
        if key not in manifest:
            raise ValueError(f"manifest requires '{key}'")
    grid = _expect(manifest["grid"], dict, "manifest 'grid'")
    unknown = set(grid) - {"p", "r", "n", "m", "ell", "e", "full_stabilizer"}
    if unknown:
        raise ValueError(f"unknown grid axes: {sorted(unknown)}")
    for axis, values in grid.items():
        for value in _expect(values, list, f"grid axis '{axis}'"):
            if not _grid_value_ok(axis, value):
                raise ValueError(f"grid axis '{axis}' holds {value!r}, not a valid value")
    commands = _expect(manifest["commands"], list, "manifest 'commands'")
    for cmd in commands:
        if cmd not in SWEEP_COMMANDS:
            raise ValueError(f"unknown sweep command: {cmd}")
    _expect(manifest["output_dir"], str, "manifest 'output_dir'")
    caps = {"max_monomials": DEFAULT_MONOMIAL_CAP, "max_points": DEFAULT_POINT_CAP}
    extra = set(_expect(manifest.get("caps", {}), dict, "manifest 'caps'")) - set(caps)
    if extra:
        raise ValueError(f"unknown caps: {sorted(extra)}")
    caps.update(manifest.get("caps", {}))
    for name, value in caps.items():
        if type(value) is not int or value < 1:
            raise ValueError(f"cap {name} must be an integer of at least 1, not {value!r}")
    axes = [
        grid.get("p", []), grid.get("r", [1]), grid.get("n", []),
        grid.get("m", [1]), grid.get("ell", [None]), grid.get("e", [None]),
        grid.get("full_stabilizer", [False]),
    ]
    if not axes[0] or not axes[2]:
        raise ValueError("grid requires nonempty 'p' and 'n' axes")
    seen = {}
    skipped = 0
    for p, r, n, m, ell, e, full in itertools.product(*axes):
        try:
            spec = _build_spec(p, r, n, ell, e, full)
        except ValueError:
            skipped += 1
            continue
        for cmd in commands:
            key = (cmd, _spec_tag(spec), m)
            seen[key] = {"command": cmd, "spec": spec.to_json(), "m": m,
                         "caps": caps}
    return [seen[key] for key in sorted(seen)], skipped


def _spec_tag(spec):
    field = f"p{spec.p}" + (f"r{spec.r}" if spec.r > 1 else "")
    group = "stab" if spec.full_stabilizer else f"l{spec.ell}e{spec.e}"
    return f"{field}n{spec.n}{group}"


def _sweep_job(job):
    """One grid point, one subcommand: its payload plus command and status."""
    spec = GroupSpec.from_json(job["spec"])
    command, m, caps = job["command"], job["m"], job["caps"]
    try:
        if command == "hilbert":
            mode = "both" if has_closed_form(spec) else "brute"
            payload, status = run_hilbert(spec, m, mode, caps["max_monomials"])
        elif command == "gbcheck":
            try:
                payload, status = run_gbcheck(spec, m)
            except ValueError as exc:
                payload, status = {"spec": spec.to_json(), "m": m, "skipped": str(exc)}, "skip"
        elif command == "decompose":
            payload, status = run_decompose(spec, m, caps["max_monomials"])
        else:
            payload, status = run_orbits(spec, m, caps["max_points"])
    except CapExceeded as exc:
        payload, status = {"spec": spec.to_json(), "m": m, "error": str(exc)}, "cap"
    return payload | {"command": command, "status": status}


def _sweep_group(batch):
    """The jobs of one group, run in order: (status, job file text) for each."""
    results = []
    for job in batch:
        payload = _sweep_job(job)
        results.append((payload["status"], _dump_json(payload)))
    return results


def _group_results(groups, workers):
    """_sweep_group of every batch, yielded in order as each one finishes."""
    if workers == 1:
        yield from map(_sweep_group, groups)
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pool sweep pays for it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_sweep_group, groups)


def cmd_sweep(args):
    """Run a manifest's jobs, one group (spec tag) per task, and print a summary.

    A group's jobs share their caches, so a worker builds each group and
    fixed space once, and renders the job files itself.  Each group's files
    are written as soon as it finishes, so a sweep that dies keeps the files
    of the groups finished before.  The summary lists the jobs in manifest
    order.
    """
    env = os.environ.get("FROBPOW_JOBS", "1")
    try:
        workers = int(env) if args.jobs is None else args.jobs
    except ValueError:
        raise ValueError(f"FROBPOW_JOBS must be a worker count, not {env!r}") from None
    if workers < 1:
        raise ValueError(f"sweep needs at least one worker, not {workers}")
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read the manifest: {exc}") from None
    jobs, skipped = _expand_manifest(manifest)
    if not jobs:
        print("manifest produced no valid grid points", file=sys.stderr)
        return 2
    tags = [_spec_tag(GroupSpec.from_json(job["spec"])) for job in jobs]
    names = [f"{job['command']}_{tag}_m{job['m']}.json" for job, tag in zip(jobs, tags)]
    groups = {}
    for i, tag in enumerate(tags):
        groups.setdefault(tag, []).append(i)
    batches = [[jobs[i] for i in group] for group in groups.values()]
    outdir = Path(manifest["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    statuses = [None] * len(jobs)
    for group, results in zip(groups.values(), _group_results(batches, workers)):
        for i, (status, text) in zip(group, results):
            (outdir / names[i]).write_text(text)
            statuses[i] = status
    counts = {status: statuses.count(status) for status in ("ok", "fail", "cap", "skip")}
    records = [{"command": job["command"], "spec": tag, "m": job["m"], "status": status,
                "file": name} for job, tag, name, status in zip(jobs, tags, names, statuses)]
    summary = {"jobs": records, "counts": counts, "skipped_grid_points": skipped}
    rows = ["command,spec,m,status,file"] + [
        f"{r['command']},{r['spec']},{r['m']},{r['status']},{r['file']}" for r in records]
    lines = [f"{r['command']} {r['spec']} m={r['m']}: {r['status']}" for r in records]
    lines.append(f"counts: {counts}")
    _emit(args.format, summary, rows, lines)
    if counts["fail"]:
        return 1
    if counts["cap"]:
        return 3
    return 0


# -- parser -----------------------------------------------------------------

def _spec_arguments(sub):
    sub.add_argument("--p", type=int, help="base prime")
    sub.add_argument("--r", type=int, default=1, help="extension degree")
    sub.add_argument("--q", type=int, help="prime power, alternative to --p/--r")
    sub.add_argument("--n", type=int, required=True, help="number of variables")
    sub.add_argument("--ell", type=int, help="transvection root count, default n-1")
    sub.add_argument("--e", type=int, help="diagonal order, default q-1")
    sub.add_argument("--full-stabilizer", action="store_true",
                     dest="full_stabilizer",
                     help="take the whole pointwise hyperplane stabilizer")


def _degree(text):
    degree = int(text)
    if degree < 0:
        raise argparse.ArgumentTypeError(f"a degree is nonnegative, not {text}")
    return degree


def _cap(text):
    cap = int(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"a cap is at least 1, not {text}")
    return cap


def _common_arguments(sub, m=True, monomials=False, points=False, truncate=False):
    if m:
        sub.add_argument("--m", type=int, required=True,
                         help="Frobenius power exponent")
    if monomials:
        sub.add_argument("--max-monomials", type=_cap,
                         default=DEFAULT_MONOMIAL_CAP,
                         help="enumeration cap for quotient monomials")
    if points:
        sub.add_argument("--max-points", type=_cap, default=DEFAULT_POINT_CAP,
                         help="enumeration cap for orbit points")
    if truncate:
        sub.add_argument("--truncate", type=_degree,
                         help="series truncation degree override")
    sub.add_argument("--format", choices=("json", "csv", "pretty"),
                     default="json", help="stdout format")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frobpow",
        description="invariants of hyperplane-fixing groups mod Frobenius powers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("hilbert", help="closed-form vs brute-force Hilbert series")
    _spec_arguments(s)
    s.add_argument("--mode", choices=("formula", "brute", "both"),
                   default="both")
    _common_arguments(s, monomials=True, truncate=True)
    s.set_defaults(func=cmd_hilbert)

    s = sub.add_parser("gbcheck", help="S-pair certificates for the h-generators")
    _spec_arguments(s)
    s.add_argument("--from-scratch", action="store_true", dest="from_scratch",
                   help="rerun completion and confirm no new leading monomials")
    _common_arguments(s)
    s.set_defaults(func=cmd_gbcheck)

    s = sub.add_parser("decompose", help="A + B direct-sum check per degree")
    _spec_arguments(s)
    _common_arguments(s, monomials=True)
    s.set_defaults(func=cmd_decompose)

    s = sub.add_parser("orbits", help="orbit enumeration vs closed-form count")
    _spec_arguments(s)
    _common_arguments(s, points=True)
    s.set_defaults(func=cmd_orbits)

    s = sub.add_parser("resolution2d", help="two-variable free resolution check")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--e", type=int, required=True)
    s.add_argument("--ell", type=int, choices=(0, 1), default=1,
                   help="1 for the reflection branch, 0 for semisimple only")
    _common_arguments(s)
    s.set_defaults(func=cmd_resolution2d)

    s = sub.add_parser("conjecture", help="point-count series vs tiny brute force")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    _common_arguments(s, monomials=True, truncate=True)
    s.set_defaults(func=cmd_conjecture)

    s = sub.add_parser("sweep", help="replay a manifest over a parameter grid")
    s.add_argument("--manifest", required=True, help="path to a manifest JSON")
    s.add_argument("--jobs", type=int,
                   help="worker processes, default $FROBPOW_JOBS or 1")
    _common_arguments(s, m=False)
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except MemoryError:
        # a backstop, not a cap: 1 must keep meaning "a comparison failed"
        print("out of memory before any size cap fired", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        # imported here, so that only a failing run pays for the pool module
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(exc, BrokenProcessPool):
            raise
        # a killed worker, for example by the OOM killer: also not a comparison
        print("a sweep worker died before its group finished; the files of "
              "finished groups are written", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
