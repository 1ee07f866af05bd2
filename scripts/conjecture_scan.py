"""Tabulate the conjectured full-GL fixed-space series across a range.

For every prime power q and every (n, m) in range the script evaluates the
closed series.  Where brute force over the full general linear group is
feasible (q <= 3, n <= 2, m <= 2) it also computes the fixed-space
dimensions exactly and compares coefficientwise.  Exit code 10 flags a
mismatch in the checkable range; rows outside it are printed as
unverified, not failed.  Invalid input exits 2 and a size cap 3, each with
one line on stderr, as the frobpow CLI does.
"""

import argparse
import sys

from frobpow.cli import check_conjecture, exit_code
from frobpow.ff import factor_prime_power


def prime_powers(limit):
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        yield q


def scan_row(q, n, m):
    series, dims, match = check_conjecture(q, n, m)
    if dims is None:
        return series.total, "unverified"
    return series.total, "match" if match else "MISMATCH"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-q", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=2)
    ap.add_argument("--max-m", type=int, default=2)
    ap.add_argument("--csv", action="store_true")
    args = ap.parse_args(argv)

    if args.csv:
        print("q,n,m,total,status")
    mismatch = False
    for q in prime_powers(args.max_q):
        for n in range(1, args.max_n + 1):
            for m in range(1, args.max_m + 1):
                total, status = scan_row(q, n, m)
                mismatch = mismatch or status == "MISMATCH"
                if args.csv:
                    print(f"{q},{n},{m},{total},{status}")
                else:
                    print(f"q={q} n={n} m={m} total={total} {status}")
    return 10 if mismatch else 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
