"""Benchmark of the frobpow CLI: closed-loop ladders of fresh-process checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload brute --seed 0 --seconds 55 --trace 0

Each workload (see ``workloads.py``) is one client that runs its ladder of
``python -m frobpow.cli ...`` invocations one after another, each in a fresh
process as a user runs them, so every case pays the cold caches again.  One
pass is one ladder.  The runner repeats passes while that ends the run
nearer to ``--seconds`` (at least one pass), checks every case's exit code and
stdout SHA-256 (for ``sweep``, every per-job file too) against
``goldens.json``, and reports the median over passes with no failed case
(no value at all when every pass failed).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (sum of the case
wall times of a pass, spawn to exit), ``max_case_s`` (slowest case of a pass;
``sweep`` has one case), ``cpu_s`` (user + system CPU of the case processes
and their pool workers, from ``wait4``), ``peak_rss_mb`` (largest case peak
RSS) and ``setup_s`` (median time for a fresh interpreter to import
``frobpow.cli`` and exit, over spawns made before every pass).  ``--trace 1``
alternates untraced passes with passes run under ``trace_shim.py`` and
reports the per-layer metrics of ``layers.py``.

Host speed.  On a shared host the same pass runs up to a third slower for
minutes at a time, and CPU time grows with wall time, so a slow phase is a
slower processor, not waiting.  The runner therefore times ``HostProbe``, a
fixed pure-Python plus numpy loop, before every case and every set-up spawn,
and reports the four timed end-to-end metrics scaled by ``REF_S`` over the
run's median probe time: seconds on a host where the probe takes ``REF_S``.
The probe runs between the program's processes, never beside them, and
shares no code with frobpow, so a change to frobpow moves the scaled metrics
exactly as it moves the raw ones.  The raw medians and the scale are printed
with every result, and each pass line shows its raw figures.

``--workload all`` runs every workload in turn; ``--smoke`` runs one quick
case per workload instead of the ladder.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SPAWNS = 2  # fresh imports timed before each pass
REF_S = 0.15  # probe seconds at the nominal host speed the timings are scaled to

END_TO_END = (("wall_s", "s"), ("max_case_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"), ("setup_s", "s"))
SCALED = ("wall_s", "max_case_s", "cpu_s", "setup_s")


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


PROBE_LOOP = """
import sys, time
import numpy as np
for _ in sys.stdin:
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc = (acc * 31 + i) % 1_000_003
    a = np.arange(250_000, dtype=np.int64).reshape(500, 500)
    for _ in range(60):
        a = (a * 7 + acc) % 65_521
    print(time.perf_counter() - start, flush=True)
"""


class HostProbe:
    """A helper process that times a fixed pure-Python plus numpy loop on
    each call: a host-speed probe.  It runs apart from the runner, which
    imports no numpy, because a child's ``ru_maxrss`` counts the memory of
    the process that spawned it; the runner must stay smaller than any
    frobpow process for ``peak_rss_mb`` to be the case's own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", PROBE_LOOP], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self()  # the first loop also faults numpy's pages in

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()


def spawn(argv):
    """Run argv in WORK against ROOT/src, stdout to WORK/stdout.txt, to
    completion; (wall s, exit code, rusage of it and its waited-for children)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(WORK / "stdout.txt", "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=WORK, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def time_setup(spawns, probe, probes):
    """Wall times of ``spawns`` fresh interpreters that import frobpow.cli;
    the host probe timed before each is appended to ``probes``."""
    times = []
    for _ in range(spawns):
        probes.append(probe())
        wall, rc, _ = spawn([sys.executable, "-c", "import frobpow.cli"])
        if rc != 0:
            raise RuntimeError("importing frobpow.cli failed")
        times.append(wall)
    return times


def check_case(key, rc, stdout_path, goldens):
    """(attempted, failed) units of one case against its golden."""
    want = goldens["cases"][key]
    ok = rc == want["rc"] and sha256_file(stdout_path) == want["stdout"]
    files = goldens["sweep_files"].get(key)
    if files is None:
        return 1, 0 if ok else 1
    outdir = WORK / workloads.SWEEP_OUTPUT
    got = {f.name: sha256_file(f) for f in outdir.iterdir()} if outdir.is_dir() else {}
    if not ok:
        return len(files), len(files)
    bad = sum(got.get(name) != digest for name, digest in files.items())
    return len(files), bad + len(set(got) - set(files))


def run_pass(argvs, goldens, smoke, traced, probe):
    """One ladder; per-pass measurements and, when traced, layer sums."""
    rec = {"probes": [], "walls": [], "cpu_s": 0.0, "peak_rss_mb": 0.0,
           "attempted": 0, "failed": 0, "layers": []}
    spans_dir = WORK / "spans"
    for argv in argvs:
        key = workloads.case_key(argv, smoke)
        shutil.rmtree(WORK / workloads.SWEEP_OUTPUT, ignore_errors=True)
        shutil.rmtree(spans_dir, ignore_errors=True)
        if traced:
            spans_dir.mkdir()
            cmd = [sys.executable, str(HERE / "trace_shim.py"),
                   str(spans_dir / "spans.jsonl"), *argv]
        else:
            cmd = [sys.executable, "-m", "frobpow.cli", *argv]
        rec["probes"].append(probe())
        wall, rc, usage = spawn(cmd)
        attempted, failed = check_case(key, rc, WORK / "stdout.txt", goldens)
        if failed:
            print(f"  FAILED {key}: exit {rc}, {failed} of {attempted} outputs "
                  "differ from the golden", flush=True)
        rec["walls"].append(wall)
        rec["cpu_s"] += usage.ru_utime + usage.ru_stime
        rec["peak_rss_mb"] = max(rec["peak_rss_mb"], usage.ru_maxrss / 1024)
        rec["attempted"] += attempted
        rec["failed"] += failed
        if traced:
            processes = layers.read_spans(spans_dir / "spans.jsonl")
            rec["layers"].append(layers.case_layers(
                processes, wall, pool=argv == workloads.SWEEP_ARGV))
    rec["wall_s"] = sum(rec["walls"])
    rec["max_case_s"] = max(rec["walls"])
    rec["host_ref_s"] = statistics.median(rec["probes"])
    return rec


def measure(workload, seed, seconds, trace, smoke, goldens, probe):
    """Run passes of one workload for about ``seconds``; the result object."""
    argvs = workloads.cases(workload, seed, smoke)
    if workload == "sweep":
        workloads.write_sweep_manifest(WORK, smoke)
    print(f"workload {workload} seed {seed}: {len(argvs)} case(s)")
    for argv in argvs:
        print("  python -m frobpow.cli " + " ".join(argv))
    if workload == "sweep" and trace:
        print("  traced sweep keeps --jobs 2; pool workers write their own span files")
    if not trace:
        time_setup(1, probe, [])  # compiles the bytecode once
    setup, setup_probes, passes, traced_passes = [], [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if not trace:
            setup += time_setup(SETUP_SPAWNS, probe, setup_probes)
        plain = run_pass(argvs, goldens, smoke, False, probe)
        passes.append(plain)
        line = (f"  pass {len(passes)}: wall_s {plain['wall_s']:.3f} max_case_s "
                f"{plain['max_case_s']:.3f} cpu_s {plain['cpu_s']:.3f} peak_rss_mb "
                f"{plain['peak_rss_mb']:.1f} host.ref_s {plain['host_ref_s']:.4f} "
                f"failed {plain['failed']}/{plain['attempted']}")
        if trace:
            traced = run_pass(argvs, goldens, smoke, True, probe)
            traced["overhead"] = traced["wall_s"] / plain["wall_s"] - 1
            traced_passes.append(traced)
            line += f" | traced wall_s {traced['wall_s']:.3f}"
        print(line, flush=True)
        elapsed = time.perf_counter() - start
        step = time.perf_counter() - began
        # Stop where the run ends nearest to ``seconds``.
        if smoke or elapsed + step / 2 > seconds:
            break
    every = passes + traced_passes
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    # A pass with a failed case gives no timing; a run without a valid pass
    # reports every metric as null.
    if trace:
        per_pass = []
        for p in traced_passes:
            if not p["failed"]:
                m = layers.pass_metrics(p["layers"])
                m["trace.overhead_ratio"] = p["overhead"]
                m["host.ref_s"] = p["host_ref_s"]
                per_pass.append(m)
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass)
                          if per_pass else None, "unit": unit}
                   for name, unit in layers.PER_LAYER}
        print(f"  medians of {len(per_pass)} valid traced pass(es):")
    else:
        valid = [dict(p, setup_s=statistics.median(setup))
                 for p in passes if not p["failed"]]
        raw = {name: statistics.median(p[name] for p in valid) if valid else None
               for name, _ in END_TO_END}
        probe = statistics.median(setup_probes + [t for p in valid for t in p["probes"]])
        scale = REF_S / probe
        metrics = {name: {"value": None if raw[name] is None else
                          raw[name] * scale if name in SCALED else raw[name],
                          "unit": unit} for name, unit in END_TO_END}
        print(f"  medians of {len(valid)} valid pass(es) and {len(setup)} fresh "
              f"imports; host probe median {probe:.4f} s, so timings scale by "
              f"{REF_S} / {probe:.4f} = {scale:.4f} (raw median in brackets):")
    for name, m in metrics.items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        note = f"  ({raw[name]:.6g})" if not trace and name in SCALED and valid else ""
        print(f"  {name:<24} {value:>16} {m['unit']}{note}")
    print(f"  {'failed_ratio':<24} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} cases{', sweep: jobs' if workload == 'sweep' else ''})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def environment():
    """Interpreter, numpy, core count and revision recorded with each result."""
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            rev = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "frobpow").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_rev": rev, "src_sha256": src.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one quick case per workload, one pass")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "frobpow" / "cli.py").is_file():
        print(f"no frobpow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = json.loads((HERE / "goldens.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        with HostProbe() as probe:
            results = {name: measure(name, args.seed, args.seconds, args.trace,
                                     args.smoke, goldens, probe) for name in names}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"meta": environment()}))
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
