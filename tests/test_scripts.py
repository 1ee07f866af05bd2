"""Smoke runs of the experiment scripts through fresh interpreters."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(script, *args, cwd=None):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, cwd=cwd)


def test_run_grid_writes_manifest_and_summary(tmp_path):
    out = tmp_path / "out"
    proc = run("run_grid.py", "--p", "2", "3", "--n", "2", "--m", "1",
               "--ell", "1", "--commands", "hilbert", "orbits",
               "--output-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"] == {"p": [2, 3], "n": [2], "m": [1], "ell": [1]}
    summary = json.loads(proc.stdout)
    assert summary["counts"]["fail"] == 0
    for record in summary["jobs"]:
        assert (out / record["file"]).exists()


def test_run_grid_repro_with_plain_sweep(tmp_path):
    out = tmp_path / "out"
    proc = run("run_grid.py", "--p", "2", "--n", "2", "--m", "1",
               "--commands", "hilbert", "--output-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    replay = subprocess.run(
        [sys.executable, "-m", "frobpow.cli", "sweep",
         "--manifest", str(out / "manifest.json")],
        capture_output=True, text=True)
    assert replay.returncode == 0, replay.stderr
    assert replay.stdout == proc.stdout


def test_run_grid_passes_jobs_zero_through(tmp_path):
    # --jobs 0 reaches sweep, which rejects it like `frobpow sweep --jobs 0`
    out = tmp_path / "out"
    proc = run("run_grid.py", "--p", "2", "--n", "2", "--m", "1",
               "--commands", "hilbert", "--output-dir", str(out), "--jobs", "0")
    assert proc.returncode == 2
    assert "sweep needs at least one worker, not 0" in proc.stderr
    assert proc.stdout == ""


def test_conjecture_scan_known_range():
    proc = run("conjecture_scan.py", "--max-q", "3", "--max-n", "2",
               "--max-m", "2", "--csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "q,n,m,total,status"
    assert "2,1,1,2,match" in lines
    assert all(row.endswith(",match") for row in lines[1:])


def test_conjecture_scan_marks_unverified():
    proc = run("conjecture_scan.py", "--max-q", "4", "--max-n", "1",
               "--max-m", "1")
    assert proc.returncode == 0, proc.stderr
    assert "q=4 n=1 m=1" in proc.stdout
    assert "unverified" in proc.stdout


def test_resolution_report_table():
    proc = run("resolution_report.py", "--p", "3", "--m", "1", "--csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "p,m,e,branch,f0_shifts,f1_shifts,bound,ok"
    assert len(lines) == 5
    assert all(row.endswith(",True") for row in lines[1:])


@pytest.mark.parametrize("script,args,code,message,last", [
    ("resolution_report.py", ["--p", "4"], 2, "4 is not prime (divisible by 2)", None),
    ("resolution_report.py", ["--p", "3", "--e", "0"], 2, "e must divide q - 1 = 2", None),
    ("resolution_report.py", ["--p", "3", "--m", "0"], 2,
     "Frobenius exponent m must be at least 1", None),
    ("conjecture_scan.py", ["--max-q", "5", "--max-n", "2", "--max-m", "12"], 3,
     "the series needs 1062881 coefficients, above the cap of 1000000",
     "q=3 n=2 m=11 total=653845887 unverified"),
], ids=["resolution-p4", "resolution-e0", "resolution-m0", "conjecture-cap"])
def test_scripts_keep_the_exit_code_contract(script, args, code, message, last):
    # one stderr line and the CLI's exit code, not a traceback; the rows
    # before a cap are still printed
    proc = run(script, *args)
    assert proc.returncode == code
    assert proc.stderr.splitlines() == [message]
    assert (proc.stdout.splitlines() or [None])[-1] == last
