"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
GOLDENS = json.loads((HERE / "goldens.json").read_text())


def _run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_the_runner_has():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_mode_prints_every_metric_of_every_workload_quickly(trace):
    start = time.perf_counter()
    out = _run("--workload", "all", "--smoke", "--seed", "0", "--seconds", "1",
               "--trace", str(trace))
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {f"{w['name']}.{m['name']}"
                                      for w in BENCHMARK["workloads"] for m in names}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    assert elapsed < 60


def test_single_workload_prints_exactly_the_end_to_end_metrics():
    out = _run("--workload", "sweep", "--smoke", "--seed", "4", "--seconds", "1",
               "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] == len(GOLDENS["sweep_files"][
        workloads.case_key(workloads.SWEEP_ARGV, smoke=True)])


def test_every_generated_case_has_a_golden():
    for seed in range(300):
        for workload in workloads.WORKLOADS:
            for smoke in (False, True):
                for argv in workloads.cases(workload, seed, smoke):
                    assert workloads.case_key(argv, smoke) in GOLDENS["cases"]
    keys = {workloads.case_key(argv, smoke) for argv, smoke in workloads.all_keys()}
    assert keys == set(GOLDENS["cases"])
    assert set(GOLDENS["sweep_files"]) == {
        workloads.case_key(workloads.SWEEP_ARGV, smoke) for smoke in (False, True)}
    assert len(GOLDENS["sweep_files"]["sweep --manifest sweep.json --jobs 2"]) == 680


def test_seeds_vary_the_ladder_but_seed_zero_is_the_canonical_one():
    assert workloads.cases("brute", 0) == [slot[0] for slot in workloads.LADDERS["brute"]]
    assert workloads.cases("brute", 7) == workloads.cases("brute", 7)
    assert len({tuple(workloads.cases("brute", s)) for s in range(20)}) > 10
    assert all(workloads.cases("sweep", s) == [workloads.SWEEP_ARGV] for s in range(20))


def test_wrong_digest_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    stdout = tmp_path / "stdout.txt"
    stdout.write_bytes(b"output\n")
    key = "hilbert --p 3 --n 2 --m 2"
    good = {"cases": {key: {"rc": 0, "stdout": run.sha256_file(stdout)}},
            "sweep_files": {}}
    assert run.check_case(key, 0, stdout, good) == (1, 0)
    assert run.check_case(key, 1, stdout, good) == (1, 1)
    bad = {"cases": {key: {"rc": 0, "stdout": "0" * 64}}, "sweep_files": {}}
    assert run.check_case(key, 0, stdout, bad) == (1, 1)

    outdir = tmp_path / workloads.SWEEP_OUTPUT
    outdir.mkdir()
    (outdir / "a.json").write_bytes(b"a")
    (outdir / "b.json").write_bytes(b"b")
    files = {"a.json": run.sha256_file(outdir / "a.json"), "b.json": "0" * 64}
    sweep = {"cases": {key: good["cases"][key]}, "sweep_files": {key: files}}
    assert run.check_case(key, 0, stdout, sweep) == (2, 1)


def test_a_run_against_a_wrong_golden_reports_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    tampered = json.loads(json.dumps(GOLDENS))
    argv = workloads.SMOKE["brute"]
    tampered["cases"][workloads.case_key(argv, True)]["stdout"] = "0" * 64
    with run.HostProbe() as probe:
        result = run.measure("brute", 0, 0, 0, True, tampered, probe)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert all(m["value"] is None for m in result["metrics"].values())


def test_without_sources_the_runner_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "brute", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _span(sid, parent, name, start, end, **extra):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, **extra}


def test_self_times_partition_the_main_span():
    spans = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "invariants.fixed", 1.0, 7.0, sizes={"monomials": 27}),
        _span(2, 1, "ff.elim", 2.0, 5.0, size_s=0.5, sizes={
            "rows": 4, "cols": 3, "rank": 2, "nnz": 6, "field": "prime"}),
    ]
    totals = layers.case_layers([(spans, {"groebner.spairs": 3})], case_wall=12.0)
    assert totals["cli.startup_s"] == pytest.approx(2.0)
    assert totals["cli.self_s"] == pytest.approx(4.0)
    assert totals["invariants.assembly_s"] == pytest.approx(2.5)
    assert totals["ff.elim_s"] == totals["ff.elim_s.prime"] == pytest.approx(3.0)
    assert totals["groebner.spairs"] == 3
    metrics = layers.pass_metrics([totals])
    assert metrics["ff.pivot_ratio"] == pytest.approx(0.5)
    assert metrics["ff.nnz_ratio"] == pytest.approx(0.5)


def test_a_main_span_longer_than_its_case_fails_the_check():
    spans = [_span(0, None, "cli.main", 0.0, 3.0)]
    with pytest.raises(ValueError, match="longer than its case"):
        layers.case_layers([(spans, {})], case_wall=2.0)


def test_a_pool_run_without_worker_spans_fails_the_check():
    main = [_span(0, None, "cli.main", 0.0, 1.0)]
    worker = [_span(0, None, "ff.elim", 0.2, 0.4, sizes={
        "rows": 1, "cols": 1, "rank": 1, "nnz": 1, "field": "p2"})]
    assert layers.case_layers([(main, {}), (worker, {})], 2.0, pool=True)["ff.elim_calls"] == 1
    for processes in ([(main, {})], [(main, {}), ([], {"groebner.spairs": 0})]):
        with pytest.raises(ValueError, match="pool worker"):
            layers.case_layers(processes, case_wall=2.0, pool=True)
