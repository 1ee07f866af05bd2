"""Survey the two-variable resolutions of the intersection ideal.

One row per (p, m, e, branch): the free-module shifts, the degree bound
the series were compared to, and whether every syzygy annihilated the
generators and the alternating series sum matched the ideal.  Exit code 1
if any case fails; invalid input exits 2 and a size cap 3, each with one
line on stderr, as the frobpow CLI does.
"""

import argparse
import sys

from frobpow.cli import exit_code
from frobpow.groebner import resolution_2d


def divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, nargs="+", default=[2, 3, 5])
    ap.add_argument("--m", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--e", type=int, nargs="+",
                    help="diagonal orders (default: all divisors of p-1)")
    ap.add_argument("--csv", action="store_true")
    args = ap.parse_args(argv)

    if args.csv:
        print("p,m,e,branch,f0_shifts,f1_shifts,bound,ok")
    failed = False
    for p in args.p:
        for m in args.m:
            for e in args.e if args.e else divisors(p - 1):
                if e and (p - 1) % e:  # resolution_2d refuses e = 0 itself
                    continue
                for ell in (1, 0):
                    rep = resolution_2d(p, m, e, ell=ell)
                    failed = failed or not rep.ok
                    f0 = list(rep.f0_shifts)
                    f1 = list(rep.f1_shifts)
                    if args.csv:
                        print(f'{p},{m},{e},{rep.branch},"{f0}","{f1}",'
                              f"{rep.series_bound},{rep.ok}")
                    else:
                        print(f"p={p} m={m} e={e} {rep.branch}: "
                              f"F0 {f0} F1 {f1} bound {rep.series_bound} "
                              f"ok={rep.ok}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
