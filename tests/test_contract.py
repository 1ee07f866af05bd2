"""The exit-code contract, case by case, in fresh processes.

Every subcommand must end in one of its documented exit codes (0 pass,
1 a comparison failed, 2 invalid parameters, 3 a size cap, 10 a conjecture
mismatch) within a few seconds, whatever the size of its parameters, and a
refusal (2 or 3) is one stderr line and, in every format, no stdout.  The
cases sample the boundary axes p in {2, 46337, 1000003, 3037000493,
3037000507, 2^61 - 1}, r in {1, 2, 200}, n in {1, 20, 40, 60}, m in {0, 1,
40} and truncation degrees up to 10^12, with caps at 1 and at their
defaults.  They run one after another, each in its own interpreter, so no
cache is shared.
"""

import json
import subprocess
import sys
import time

import pytest

CODES = {0, 1, 2, 3, 10}
WALL_LIMIT_S = 5
MERSENNE_61 = str(2 ** 61 - 1)
P_INT64 = "3037000507"
TRUNCATE_HUGE = str(10 ** 12)
M_HUGE = "20000"  # 2^20000 has 6021 digits
REFUSAL_CHARS = 300

# (id, argv, exit code)
CASES = [
    ("hilbert-n1-m0", ["hilbert", "--p", "2", "--n", "1", "--m", "0"], 2),
    ("hilbert-both-defaults", ["hilbert", "--p", "2", "--n", "2", "--m", "1"], 0),
    ("hilbert-brute-p46337", ["hilbert", "--p", "46337", "--n", "2", "--m", "1", "--e", "2",
                              "--mode", "brute"], 3),
    ("hilbert-formula-p2^61-n60-m40", ["hilbert", "--p", MERSENNE_61, "--n", "60",
                                       "--m", "40", "--mode", "formula"], 3),
    ("hilbert-r200", ["hilbert", "--p", "2", "--r", "200", "--n", "2", "--m", "1",
                      "--full-stabilizer"], 3),
    ("hilbert-cap-1", ["hilbert", "--p", "2", "--n", "2", "--m", "1",
                       "--max-monomials", "1"], 3),
    ("decompose-n20", ["decompose", "--p", "2", "--n", "20", "--m", "1"], 3),
    ("orbits-p1000003", ["orbits", "--p", "1000003", "--n", "2", "--m", "1", "--e", "2"], 3),
    ("orbits-cap-1", ["orbits", "--p", "2", "--n", "2", "--m", "1", "--max-points", "1"], 3),
    ("gbcheck-p3037000493-e2", ["gbcheck", "--p", "3037000493", "--n", "2", "--m", "1",
                                "--e", "2"], 0),
    ("gbcheck-p1000003-e2-from-scratch", ["gbcheck", "--p", "1000003", "--n", "2", "--m", "1",
                                          "--e", "2", "--from-scratch"], 0),
    ("gbcheck-p2^61", ["gbcheck", "--p", MERSENNE_61, "--n", "2", "--m", "1"], 2),
    ("gbcheck-n60-m40", ["gbcheck", "--p", "2", "--n", "60", "--m", "40"], 3),
    ("resolution2d-p46337", ["resolution2d", "--p", "46337", "--m", "1", "--e", "2"], 0),
    ("resolution2d-p499979", ["resolution2d", "--p", "499979", "--m", "1", "--e", "2"], 0),
    ("resolution2d-m40", ["resolution2d", "--p", "2", "--m", "40", "--e", "1"], 3),
    ("conjecture-n60-m40", ["conjecture", "--q", "2", "--n", "60", "--m", "40"], 3),
    ("conjecture-cap-1", ["conjecture", "--q", "2", "--n", "1", "--m", "1",
                          "--max-monomials", "1"], 3),
    # the first prime past the int64 code range
    ("hilbert-brute-p3037000507", ["hilbert", "--p", P_INT64, "--n", "2", "--m", "1",
                                   "--mode", "brute"], 3),
    ("gbcheck-p3037000507-e2", ["gbcheck", "--p", P_INT64, "--n", "2", "--m", "1",
                                "--e", "2"], 2),
    ("hilbert-brute-p3037000507-r2", ["hilbert", "--p", P_INT64, "--r", "2", "--n", "2",
                                      "--m", "1", "--ell", "0", "--e", "1",
                                      "--mode", "brute"], 2),
    # r = 2: the default family is not admitted, a diagonal has no closed form
    ("hilbert-r2", ["hilbert", "--p", "2", "--r", "2", "--n", "2", "--m", "1"], 2),
    ("hilbert-r2-ell0-e3", ["hilbert", "--p", "2", "--r", "2", "--n", "2", "--m", "1",
                            "--ell", "0", "--e", "3"], 2),
    ("decompose-r2-full-stabilizer", ["decompose", "--p", "2", "--r", "2", "--n", "2",
                                      "--m", "1", "--full-stabilizer"], 0),
    ("hilbert-full-stabilizer-contradiction", ["hilbert", "--p", "5", "--n", "3", "--m", "1",
                                               "--full-stabilizer", "--ell", "0", "--e", "2"],
     2),
    # huge truncation degrees
    ("hilbert-truncate-10^12", ["hilbert", "--p", "2", "--n", "2", "--m", "1",
                                "--truncate", TRUNCATE_HUGE], 3),
    ("hilbert-brute-truncate-10^12", ["hilbert", "--p", "3", "--n", "2", "--m", "1",
                                      "--mode", "brute", "--truncate", TRUNCATE_HUGE], 2),
    ("hilbert-formula-truncate-10^12", ["hilbert", "--p", "2", "--n", "2", "--m", "1",
                                        "--truncate", TRUNCATE_HUGE, "--mode", "formula"], 3),
    ("conjecture-truncate-10^12", ["conjecture", "--q", "2", "--n", "2", "--m", "1",
                                   "--truncate", TRUNCATE_HUGE], 3),
    # a refusal in csv or pretty prints nothing on stdout either
    ("hilbert-p6-csv", ["hilbert", "--p", "6", "--n", "2", "--m", "1", "--format", "csv"], 2),
    ("hilbert-n40-pretty", ["hilbert", "--p", "2", "--n", "40", "--m", "1",
                            "--format", "pretty"], 3),
    ("gbcheck-n60-csv", ["gbcheck", "--p", "2", "--n", "60", "--m", "1", "--format", "csv"], 3),
    # counts past the 4300-digit int-to-str limit, and S-pair division work
    *[(f"hilbert-{mode}-m20000", ["hilbert", "--p", "2", "--n", "2", "--m", M_HUGE,
                                  "--mode", mode], 3) for mode in ("formula", "brute", "both")],
    *[(f"{command}-m20000", [command, "--p", "2", "--n", "2", "--m", M_HUGE], 3)
      for command in ("decompose", "orbits", "gbcheck")],
    ("conjecture-m20000", ["conjecture", "--q", "2", "--n", "2", "--m", M_HUGE], 3),
    ("resolution2d-m20000", ["resolution2d", "--p", "2", "--m", M_HUGE, "--e", "1"], 3),
    ("gbcheck-m1000", ["gbcheck", "--p", "2", "--n", "2", "--m", "1000"], 3),
]

# one group, p = 3037000493, n = 2, e = 2: gbcheck passes, the rest reach caps
SWEEP_MANIFEST = {
    "grid": {"p": [3037000493], "n": [2], "m": [1], "e": [2]},
    "commands": ["gbcheck", "hilbert", "decompose", "orbits"],
}
# one group, p = 2, n = 2: every m = 1 job passes, every m = 20000 job reaches a cap
HUGE_M_MANIFEST = {
    "grid": {"p": [2], "n": [2], "m": [1, int(M_HUGE)]},
    "commands": ["gbcheck", "hilbert", "decompose", "orbits"],
}


def _check(argv, code):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "frobpow.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    assert proc.returncode in CODES, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == code, proc.stderr
    if code in (2, 3):
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
        assert len(proc.stderr) <= REFUSAL_CHARS + 1, proc.stderr[:200]
        if argv[0] != "sweep":  # sweep prints its counts before it exits 3
            assert proc.stdout == "", proc.stdout[:200]
    assert wall < WALL_LIMIT_S, f"{wall:.1f} s"
    return proc


@pytest.mark.parametrize("argv,code", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_subcommand_keeps_the_contract(argv, code):
    _check(argv, code)


def test_one_group_sweep_keeps_the_contract(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(SWEEP_MANIFEST | {"output_dir": str(tmp_path / "out")}))
    proc = _check(["sweep", "--manifest", str(manifest)], 3)
    counts = json.loads(proc.stdout)["counts"]
    assert counts == {"ok": 1, "fail": 0, "cap": 3, "skip": 0}
    assert proc.stderr == "3 of 4 jobs stopped at a size cap; each job file records its cap\n"


def test_sweep_over_a_huge_m_keeps_the_contract(tmp_path):
    out = tmp_path / "out"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(HUGE_M_MANIFEST | {"output_dir": str(out)}))
    proc = _check(["sweep", "--manifest", str(manifest)], 3)
    jobs = json.loads(proc.stdout)["jobs"]
    assert len(jobs) == 8
    assert {job["status"] for job in jobs if job["m"] == 1} == {"ok"}
    assert {job["status"] for job in jobs if job["m"] != 1} == {"cap"}
    assert all((out / job["file"]).exists() for job in jobs)


# about 180 kB in each format, past the 64 KiB pipe buffer
EARLY_CLOSE = ["hilbert", "--p", "101", "--n", "2", "--m", "2", "--mode", "formula"]


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_a_reader_that_closes_early_keeps_the_contract(fmt):
    # the reader takes 50 bytes and closes the pipe: the rest of the output
    # is dropped quietly and the verdict's exit code stands
    proc = subprocess.Popen([sys.executable, "-m", "frobpow.cli", *EARLY_CLOSE, "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert len(head) == 50
    assert err == b""
