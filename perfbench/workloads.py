"""Case ladders of the frobpow benchmark and their seeded variants.

A workload is a ladder of slots.  Each slot lists argv spellings of one
``python -m frobpow.cli`` invocation; seed 0 takes the first spelling of every
slot in the listed order, and any other seed picks one spelling per slot and
shuffles the order.  The spellings of a slot do the same amount of work:
either they name the same group (``--q 5`` and ``--p 5``, explicit defaults
for ``--ell``/``--e``/``--mode``, any cap above what the case needs), or they
are another valid ``ell``/``e`` whose cost was measured to match.  That keeps
seed-to-seed spread a property of the host, not of the inputs.

The ``sweep`` workload is one invocation on one fixed manifest; it does not
depend on the seed.  It calls every layer, so the two workloads between them
trace all of them.  There are two workloads, not more, because on a shared
two-core host a pass varies by 10-20% from the next, and only runs of about a
minute give medians that repeat within the bounds; the time the whole
benchmark may take allows that for two workloads.
"""

from __future__ import annotations

import json
import random

SWEEP_MANIFEST = "sweep.json"
SWEEP_OUTPUT = "sweep_out"

SWEEP_GRID = {
    "p": [2, 3, 5, 7], "r": [1, 2], "n": [2, 3], "m": [1, 2],
    "ell": [0, 1, 2], "e": [1, 2, 3, 6], "full_stabilizer": [False, True],
}
SMOKE_GRID = {"p": [2, 3], "n": [2], "m": [1], "full_stabilizer": [False, True]}
SWEEP_COMMANDS = ["hilbert", "gbcheck", "decompose", "orbits"]
SWEEP_CAPS = {"max_monomials": 5000, "max_points": 5000}
SWEEP_ARGV = ("sweep", "--manifest", SWEEP_MANIFEST, "--jobs", "2")


def _slot(*spellings):
    return tuple(tuple(s.split()) for s in spellings)


LADDERS = {
    # Fixed-space brute force: prime, p = 2 and lookup-table fields, plus
    # the wide rank matrices of the A/B decomposition.
    "brute": (
        _slot("hilbert --p 5 --n 3 --m 2",
              "hilbert --q 5 --n 3 --m 2",
              "hilbert --p 5 --n 3 --m 2 --ell 2 --e 4",
              "hilbert --p 5 --n 3 --m 2 --mode both --max-monomials 20000"),
        _slot("hilbert --p 3 --n 3 --m 3",
              "hilbert --q 3 --n 3 --m 3",
              "hilbert --p 3 --n 3 --m 3 --ell 2 --e 2",
              "hilbert --p 3 --n 3 --m 3 --max-monomials 100000"),
        _slot("hilbert --p 2 --n 4 --m 3",
              "hilbert --q 2 --n 4 --m 3",
              "hilbert --p 2 --n 4 --m 3 --ell 3 --e 1",
              "hilbert --p 2 --n 4 --m 3 --max-monomials 5000"),
        _slot("hilbert --q 4 --n 3 --m 2 --full-stabilizer",
              "hilbert --p 2 --r 2 --n 3 --m 2 --full-stabilizer",
              "hilbert --q 4 --n 3 --m 2 --full-stabilizer --max-monomials 5000",
              "hilbert --q 4 --n 3 --m 2 --full-stabilizer --mode both"),
        _slot("decompose --p 5 --n 3 --m 2",
              "decompose --q 5 --n 3 --m 2",
              "decompose --p 5 --n 3 --m 2 --ell 2 --e 4",
              "decompose --p 5 --n 3 --m 2 --max-monomials 20000"),
        _slot("decompose --q 8 --n 2 --m 2 --full-stabilizer",
              "decompose --p 2 --r 3 --n 2 --m 2 --full-stabilizer",
              "decompose --q 8 --n 2 --m 2 --full-stabilizer --max-monomials 5000"),
    ),
    # Hundreds of small jobs in one process tree, with the cap path and the pool.
    "sweep": (_slot(" ".join(SWEEP_ARGV)),),
}

# One quick case per workload, for checking the benchmark itself.
SMOKE = {
    "brute": _slot("hilbert --p 3 --n 2 --m 2")[0],
    "sweep": SWEEP_ARGV,
}

WORKLOADS = tuple(LADDERS)


def cases(workload, seed, smoke=False):
    """The argv tuples one pass of ``workload`` runs under ``seed``."""
    if smoke:
        return [SMOKE[workload]]
    slots = LADDERS[workload]
    if seed == 0:
        return [slot[0] for slot in slots]
    rng = random.Random(seed)
    picked = [rng.choice(slot) for slot in slots]
    rng.shuffle(picked)
    return picked


def sweep_manifest(smoke=False):
    """The sweep manifest: the fixed grid, all four commands, the caps."""
    return {"grid": SMOKE_GRID if smoke else SWEEP_GRID,
            "commands": SWEEP_COMMANDS, "output_dir": SWEEP_OUTPUT,
            "caps": SWEEP_CAPS}


def write_sweep_manifest(workdir, smoke=False):
    path = workdir / SWEEP_MANIFEST
    path.write_text(json.dumps(sweep_manifest(smoke), indent=2) + "\n")
    return path


def case_key(argv, smoke=False):
    """Golden-table key of one invocation; the smoke sweep has its own grid."""
    key = " ".join(argv)
    return f"smoke: {key}" if smoke and argv == SWEEP_ARGV else key


def all_keys():
    """Every (argv, smoke) pair any seed can generate."""
    keys = [(argv, False) for slots in LADDERS.values()
            for slot in slots for argv in slot]
    keys += [(argv, True) for argv in SMOKE.values()]
    return keys
