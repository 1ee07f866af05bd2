"""Build a sweep manifest from command-line ranges and run it in one step.

The generated manifest is written into the output directory, so any run can
be reproduced later with `frobpow sweep --manifest <output>/manifest.json`.
"""

import argparse
import json
import sys
from pathlib import Path

from frobpow.cli import SWEEP_COMMANDS, main as frobpow_main
from frobpow.ff import DEFAULT_MONOMIAL_CAP, DEFAULT_POINT_CAP


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, nargs="+", required=True,
                    help="characteristic axis")
    ap.add_argument("--r", type=int, nargs="+",
                    help="extension degree axis (default [1])")
    ap.add_argument("--n", type=int, nargs="+", required=True,
                    help="variable count axis")
    ap.add_argument("--m", type=int, nargs="+", default=[1],
                    help="Frobenius exponent axis")
    ap.add_argument("--ell", type=int, nargs="+",
                    help="transvection dimension axis (default n-1)")
    ap.add_argument("--e", type=int, nargs="+",
                    help="diagonal order axis (default q-1)")
    ap.add_argument("--full-stabilizer", action="store_true",
                    help="sweep full pointwise stabilizers instead of families")
    ap.add_argument("--commands", nargs="+",
                    default=["hilbert", "decompose", "orbits"],
                    choices=SWEEP_COMMANDS)
    ap.add_argument("--output-dir", default="sweep_out")
    ap.add_argument("--max-monomials", type=int, default=DEFAULT_MONOMIAL_CAP)
    ap.add_argument("--max-points", type=int, default=DEFAULT_POINT_CAP)
    ap.add_argument("--jobs", type=int, help="parallel workers")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    grid = {"p": args.p, "n": args.n, "m": args.m}
    if args.r:
        grid["r"] = args.r
    if args.ell is not None:
        grid["ell"] = args.ell
    if args.e is not None:
        grid["e"] = args.e
    if args.full_stabilizer:
        grid["full_stabilizer"] = [True]
    manifest = {
        "grid": grid,
        "commands": args.commands,
        "output_dir": args.output_dir,
        "caps": {"max_monomials": args.max_monomials,
                 "max_points": args.max_points},
    }
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    sweep_argv = ["sweep", "--manifest", str(path)]
    if args.jobs is not None:
        sweep_argv += ["--jobs", str(args.jobs)]
    return frobpow_main(sweep_argv)


if __name__ == "__main__":
    sys.exit(main())
