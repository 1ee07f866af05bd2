"""Record goldens.json: exit code and stdout SHA-256 of every case any seed
can generate, and the SHA-256 of every per-job file the sweeps write.

Run from the root of a checkout of the revision the goldens should pin:

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main():
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    goldens = {"cases": {}, "sweep_files": {}}
    try:
        for argv, smoke in workloads.all_keys():
            key = workloads.case_key(argv, smoke)
            outdir = run.WORK / workloads.SWEEP_OUTPUT
            shutil.rmtree(outdir, ignore_errors=True)
            if argv == workloads.SWEEP_ARGV:
                workloads.write_sweep_manifest(run.WORK, smoke)
            wall, rc, _ = run.spawn([sys.executable, "-m", "frobpow.cli", *argv])
            goldens["cases"][key] = {
                "rc": rc, "stdout": run.sha256_file(run.WORK / "stdout.txt")}
            if argv == workloads.SWEEP_ARGV:
                goldens["sweep_files"][key] = {
                    f.name: run.sha256_file(f) for f in sorted(outdir.iterdir())}
            print(f"{wall:7.2f}s exit {rc}  {key}", flush=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    path = run.HERE / "goldens.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens['cases'])} cases to {path}")


if __name__ == "__main__":
    main()
