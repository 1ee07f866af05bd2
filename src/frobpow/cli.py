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
jobs outside the h-generator range (ell < n - 1, read off the spec) have
status "skip", jobs stopped by a cap "cap"; any other error stops the sweep.
Identical manifests produce byte-identical outputs; grid points violating
the group constraints are skipped and counted.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import json
import os
import sys
from pathlib import Path

# Nothing here calls BLAS (every matrix product is on int64 codes), so skip the
# idle OpenBLAS pool numpy starts on import; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# At exit the interpreter would collect and free every object, mostly cyclic
# garbage left once the module dicts are cleared, which the OS reclaims anyway;
# frozen objects are out of the collector's reach.  Unlike os._exit, this still
# flushes stdio and runs every other atexit handler.
atexit.register(gc.freeze)

# Only the layers every check runs load here; the others load inside the
# functions that call them.
from .ff import DEFAULT_MONOMIAL_CAP, DEFAULT_POINT_CAP, CapExceeded, check_cap, \
    check_power_cap, factor_prime_power
from .group import GroupSpec
from .invariants import H_GENERATOR_RANGE, brute_force_hilbert, full_gl_fixed_basis, \
    h_generators, verify_decomposition

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
    return GroupSpec(p=p, r=r, n=args.n, ell=args.ell, e=args.e,
                     full_stabilizer=args.full_stabilizer)


# Chunks or lines joined per write: few enough that no rendering is held
# whole, enough that the writes cost little.
_BATCH = 2 ** 10


def _json_chunks(data):
    """The text of json.dumps(data, sort_keys=True, indent=2) + "\n", in chunks."""
    yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(data)
    yield "\n"


def _line_chunks(lines):
    """The text of "\n".join(lines) + "\n", in chunks; a line that is not a
    string is an iterable of its pieces (a long series), streamed too."""
    for line in lines:
        if isinstance(line, str):
            yield line
        else:
            yield from line
        yield "\n"


def _batches(chunks):
    """The chunks joined _BATCH at a time."""
    chunks = iter(chunks)
    while batch := list(itertools.islice(chunks, _BATCH)):
        yield "".join(batch)


def _write(chunks):
    """Write chunks to stdout a batch at a time.  A reader that closes the
    pipe early gets no more: stdout then points at os.devnull, so neither
    this write nor the flush at exit fails, and the verdict's exit code
    stands."""
    try:
        for batch in _batches(chunks):
            sys.stdout.write(batch)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(fmt, data, csv_rows, pretty_lines):
    """Write data in one format; csv_rows and pretty_lines give iterables of
    their lines when called, so only the requested rendering is made, and
    none is held whole."""
    if fmt == "json":
        _write(_json_chunks(data))
    else:
        _write(_line_chunks(csv_rows() if fmt == "csv" else pretty_lines()))


# -- hilbert ----------------------------------------------------------------

def _coeff_rows(coeffs):
    """The CSV lines of a series window: a header, then degree and coefficient."""
    return itertools.chain(["degree,coeff"], (f"{d},{c}" for d, c in enumerate(coeffs)))


def _require_closed_form(spec):
    from .qseries import has_closed_form

    if not has_closed_form(spec):
        raise ValueError("no closed-form series for this group; use --mode brute")


def _check_truncate(truncate, max_monomials):
    """A truncation degree lists truncate + 1 coefficients: the series cap bounds it."""
    if truncate is not None:
        check_cap(truncate + 1, max_monomials, "the series", "coefficients")


def _compared(series, dims, truncate):
    """(d, series[d], dims[d] or 0 past them) through truncate, else either side's end."""
    top = max(len(dims) - 1, series.truncation) if truncate is None else truncate
    return [(d, series[d], dims[d] if d < len(dims) else 0) for d in range(top + 1)]


def run_hilbert(spec, m, mode, max_monomials=DEFAULT_MONOMIAL_CAP, truncate=None):
    """``hilbert --mode brute|both``: brute-force dims, or the formula-vs-brute table.

    Brute force runs first, so its cap on the Q^n monomials also bounds the
    series length n(Q - 1) + 1 before the series is built; the same cap
    bounds the table's truncation degree.
    """
    base = {"spec": spec.to_json(), "m": m, "mode": mode}
    if mode == "brute" and truncate is not None:
        raise ValueError("--truncate windows a series; --mode brute lists every degree")
    if mode == "both":
        _require_closed_form(spec)
        _check_truncate(truncate, max_monomials)
    brute = brute_force_hilbert(spec, m, max_monomials)
    if mode == "brute":
        return base | {"dims": list(brute.dims), "total": brute.total}, "ok"
    from .qseries import hilbert_for_spec

    formula = hilbert_for_spec(spec, m)
    table = [[d, f, b, f == b] for d, f, b in _compared(formula, brute.dims, truncate)]
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
        check_power_cap(spec.q, args.m, args.max_monomials, "the series", "coefficients",
                        spec.n, 1 - spec.n)
        _check_truncate(args.truncate, args.max_monomials)
        from .qseries import hilbert_for_spec

        formula = hilbert_for_spec(spec, args.m)
        view = formula.to_json(args.truncate)
        data = {"spec": spec.to_json(), "m": args.m, "mode": args.mode,
                "series": view, "total": formula.total}
        _emit(args.format, data, lambda: _coeff_rows(view["coeffs"]),
              lambda: [formula.closed_form, formula.terms(), f"total {formula.total}"])
        return 0
    data, status = run_hilbert(spec, args.m, args.mode, args.max_monomials, args.truncate)

    def rows():
        if args.mode == "brute":
            yield "degree,dim"
            yield from (f"{d},{c}" for d, c in enumerate(data["dims"]))
            return
        yield "degree,formula,brute,equal"
        yield from (f"{d},{f},{b},{eq}" for d, f, b, eq in data["rows"])

    def lines():
        if args.mode == "brute":
            yield " ".join(str(c) for c in data["dims"])
            yield f"total {data['total']}"
            return
        yield data["closed_form"]
        yield from (f"{d}: formula={f} brute={b}{'' if eq else '  <- mismatch'}"
                    for d, f, b, eq in data["rows"])
        yield f"totals {data['formula_total']} vs {data['brute_total']}"
        yield f"equal: {data['equal']}"

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
    _emit(args.format, data,
          lambda: itertools.chain(["pair,remainder"], (
              f"\"{c['pair']}\",\"{c['remainder']}\"" for c in certificates)),
          lambda: itertools.chain([f"generators: {' '.join(data['names'])}"], (
              f"{c['pair']}: {c['remainder']}" for c in certificates), [f"ok: {data['ok']}"]))
    return EXIT_CODES[status]


# -- decompose --------------------------------------------------------------

def run_decompose(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """``decompose``: dims of A + B against the brute-force fixed space."""
    report = verify_decomposition(spec, m, max_monomials)
    return report.to_json(), "ok" if report.ok else "fail"


def cmd_decompose(args):
    data, status = run_decompose(_spec_from_args(args), args.m, args.max_monomials)
    _emit(args.format, data,
          lambda: itertools.chain(["degree,A,B,total,brute"], (
              ",".join(map(str, row)) for row in data["rows"])),
          lambda: itertools.chain((
              f"{d}: A={a} B={b} brute={br}" for d, a, b, _, br in data["rows"]),
              data["mismatches"], [f"ok: {data['ok']}"]))
    return EXIT_CODES[status]


# -- orbits -----------------------------------------------------------------

def run_orbits(spec, m, max_points=DEFAULT_POINT_CAP):
    """``orbits``: enumerated orbit count against the closed formula."""
    from .orbits import count_orbits_enum

    report = count_orbits_enum(spec, m, max_points)
    return report.to_json(), "ok" if report.match else "fail"


def cmd_orbits(args):
    data, status = run_orbits(_spec_from_args(args), args.m, args.max_points)
    hist = ", ".join(f"{c} of size {s}" for s, c in data["histogram"])
    _emit(args.format, data,
          lambda: itertools.chain(["size,multiplicity"], (
              f"{s},{c}" for s, c in data["histogram"])),
          lambda: [
              f"{data['orbit_count']} orbits of {data['total_points']} points",
              f"histogram: {hist}",
              f"formula {data['formula_value']}: match={data['match']}",
          ])
    return EXIT_CODES[status]


# -- resolution2d -----------------------------------------------------------

def cmd_resolution2d(args):
    from .groebner import resolution_2d

    report = resolution_2d(args.p, args.m, args.e, args.ell)
    data = report.to_json()
    _emit(args.format, data, lambda: [
        "key,value",
        f"branch,{data['branch']}",
        f"f0_shifts,{' '.join(str(s) for s in data['f0_shifts'])}",
        f"f1_shifts,{' '.join(str(s) for s in data['f1_shifts'])}",
        f"syzygies,{' '.join(s['name'] for s in data['syzygies'])}",
        f"ok,{data['ok']}",
    ], lambda: [
        f"branch: {data['branch']}",
        f"free module shifts: {data['f0_shifts']} then {data['f1_shifts']}",
        f"syzygies: {', '.join(s['name'] for s in data['syzygies'])}",
    ] + list(data["failures"]) + [f"ok: {report.ok}"])
    return 0 if report.ok else 1


# -- conjecture -------------------------------------------------------------

def check_conjecture(q, n, m, max_monomials=DEFAULT_MONOMIAL_CAP, truncate=None):
    """(series, brute dims, match) for the conjectured full-GL series.

    The series length n(q^m - 1) + 1 and the truncate + 1 degrees compared
    are capped by max_monomials.  Brute force runs only where it is feasible
    (q <= 3, n <= 2, m <= 2), and elsewhere dims and match are None; match
    compares the degrees that _compared lists.
    """
    factor_prime_power(q)  # an invalid q exits 2 before any cap
    check_power_cap(q, m, max_monomials, "the series", "coefficients", n, 1 - n)
    _check_truncate(truncate, max_monomials)
    from .qseries import lrs_conjecture

    series = lrs_conjecture(q, n, m)
    if not (q <= 3 and n <= 2 and m <= 2):
        return series, None, None
    dims = [len(b) for b in full_gl_fixed_basis(q, n, m, max_monomials)]
    match = all(s == b for _, s, b in _compared(series, dims, truncate))
    return series, dims, match


def cmd_conjecture(args):
    series, dims, match = check_conjecture(
        args.q, args.n, args.m, args.max_monomials, args.truncate)
    checked = dims is not None
    view = series.to_json(args.truncate)
    data = {"q": args.q, "n": args.n, "m": args.m, "series": view,
            "total": series.total, "checked": checked, "brute_dims": dims, "match": match}

    def rows():
        if not checked:
            return _coeff_rows(view["coeffs"])
        return itertools.chain(["degree,conjecture,brute"], (
            f"{d},{s},{b}" for d, s, b in _compared(series, dims, args.truncate)))

    _emit(args.format, data, rows, lambda: [series.closed_form, series.terms()] + (
        [f"brute dims: {dims}", f"match: {match}"] if checked
        else ["brute cross-check skipped (only run for q <= 3, n <= 2, m <= 2)"]
    ))
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
    """Validated (jobs, caps, skipped) from a manifest dict.

    A job is (command, spec tag, m, spec), one for each (command, tag, m), in
    sorted order.  A full-stabilizer grid point ignores the ell and e axes,
    so its copies are one job, and only an invalid group is a skipped point.
    """
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
    jobs = set()
    skipped = 0
    for p, r, n, m, ell, e, full in itertools.product(*axes):
        try:
            spec = GroupSpec(p=p, r=r, n=n, ell=None if full else ell,
                             e=None if full else e, full_stabilizer=full)
        except ValueError:
            skipped += 1
            continue
        jobs.update((cmd, _spec_tag(spec), m, spec) for cmd in commands)
    return sorted(jobs), caps, skipped


def _spec_tag(spec):
    field = f"p{spec.p}" + (f"r{spec.r}" if spec.r > 1 else "")
    group = "stab" if spec.full_stabilizer else f"l{spec.ell}e{spec.e}"
    return f"{field}n{spec.n}{group}"


def _sweep_job(job, caps):
    """One grid point, one subcommand: its payload plus command and status."""
    from .qseries import has_closed_form

    command, _, m, spec = job
    try:
        if command == "hilbert":
            mode = "both" if has_closed_form(spec) else "brute"
            payload, status = run_hilbert(spec, m, mode, caps["max_monomials"])
        elif command == "gbcheck" and spec.ell != spec.n - 1:
            payload = {"spec": spec.to_json(), "m": m, "skipped": H_GENERATOR_RANGE}
            status = "skip"
        elif command == "gbcheck":
            payload, status = run_gbcheck(spec, m)
        elif command == "decompose":
            payload, status = run_decompose(spec, m, caps["max_monomials"])
        else:
            payload, status = run_orbits(spec, m, caps["max_points"])
    except CapExceeded as exc:
        payload, status = {"spec": spec.to_json(), "m": m, "error": str(exc)}, "cap"
    return payload | {"command": command, "status": status}


def _sweep_group(batch, caps):
    """The jobs of one group, run in order: (status, job file text) for each."""
    results = []
    for job in batch:
        payload = _sweep_job(job, caps)
        # a job's text crosses the pool whole, so it is built whole here
        results.append((payload["status"], json.dumps(payload, sort_keys=True, indent=2) + "\n"))
    return results


def _group_results(groups, caps, max_workers):
    """_sweep_group of every batch, yielded in order as each one finishes.

    A pool starts all its workers at once, so it gets no more than one per
    group, and a single group runs in this process.
    """
    workers = min(max_workers, len(groups))
    if workers == 1:
        yield from map(_sweep_group, groups, itertools.repeat(caps))
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pool sweep pays for it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_sweep_group, groups, itertools.repeat(caps))


def _unwritable(exc):
    """An output directory or job file that cannot be written is invalid input: exit 2."""
    return ValueError(f"cannot write the sweep output: {exc}")


def cmd_sweep(args):
    """Run a manifest's jobs, one group (spec tag) per task, and print a summary.

    A group's jobs run in one process and share what is cached per spec: its
    field and lookup tables, its root of unity, its basic invariants and its
    fixed-space dimensions for each m.  Each job still builds the generator
    matrices it needs, and the worker renders the job files itself.  Each
    group's files are written as soon as it finishes, so a sweep that dies
    keeps the files of the groups finished before.  The summary lists the
    jobs in manifest order.
    """
    if args.jobs < 1:
        raise ValueError(f"sweep needs at least one worker, not {args.jobs}")
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read the manifest: {exc}") from None
    jobs, caps, skipped = _expand_manifest(manifest)
    if not jobs:
        print("manifest produced no valid grid points", file=sys.stderr)
        return 2
    names = [f"{command}_{tag}_m{m}.json" for command, tag, m, _ in jobs]
    groups = {}
    for i, (_, tag, _, _) in enumerate(jobs):
        groups.setdefault(tag, []).append(i)
    batches = [[jobs[i] for i in group] for group in groups.values()]
    outdir = Path(manifest["output_dir"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(exc) from None
    statuses = [None] * len(jobs)
    for group, results in zip(groups.values(), _group_results(batches, caps, args.jobs)):
        for i, (status, text) in zip(group, results):
            try:
                (outdir / names[i]).write_text(text)
            except OSError as exc:
                raise _unwritable(exc) from None
            statuses[i] = status
    counts = {status: statuses.count(status) for status in ("ok", "fail", "cap", "skip")}
    records = [{"command": command, "spec": tag, "m": m, "status": status, "file": name}
               for (command, tag, m, _), name, status in zip(jobs, names, statuses)]
    summary = {"jobs": records, "counts": counts, "skipped_grid_points": skipped}
    _emit(args.format, summary,
          lambda: itertools.chain(["command,spec,m,status,file"], (
              f"{r['command']},{r['spec']},{r['m']},{r['status']},{r['file']}"
              for r in records)),
          lambda: itertools.chain((
              f"{r['command']} {r['spec']} m={r['m']}: {r['status']}" for r in records),
              [f"counts: {counts}"]))
    if counts["fail"]:
        return 1
    if counts["cap"]:
        print(f"{counts['cap']} of {len(jobs)} jobs stopped at a size cap; "
              "each job file records its cap", file=sys.stderr)
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
    s.add_argument("--jobs", type=int, default=1, help="worker processes, default 1")
    _common_arguments(s, m=False)
    s.set_defaults(func=cmd_sweep)

    return parser


def exit_code(func, *args):
    """func(*args), whose return is the exit code, or the exit code of the error
    it raised, named in one line on stderr: 3 for a cap or exhausted memory, 2
    for invalid input."""
    try:
        return func(*args)
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    return exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
