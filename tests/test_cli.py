"""Exit codes, output formats, and manifest replay for the command line."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frobpow import cli, ff, invariants
from frobpow.cli import _dump_json, _expand_manifest, _sweep_group, _sweep_job, main

GOLDEN_HILBERT_FORMULA = """\
{
  "m": 1,
  "mode": "formula",
  "series": {
    "closed_form": "((1-t^2)/(1-t))^0 ((1-t^2)/(1-t^2))^1 [(1-t^1)/(1-t^1) + t^1 ((1-t^2)/(1-t))^1]",
    "coeffs": [
      1,
      1,
      1
    ],
    "truncation": 2
  },
  "spec": {
    "e": 1,
    "ell": 1,
    "full_stabilizer": false,
    "n": 2,
    "p": 2,
    "r": 1
  },
  "total": 3
}
"""

GOLDEN_ORBITS = """\
{
  "formula_value": 3,
  "histogram": [
    [
      1,
      2
    ],
    [
      2,
      1
    ]
  ],
  "m": 1,
  "match": true,
  "orbit_count": 3,
  "spec": {
    "e": 1,
    "ell": 1,
    "full_stabilizer": true,
    "n": 2,
    "p": 2,
    "r": 1
  },
  "total_points": 4
}
"""


class TestHilbert:
    def test_smallest_both(self, capsys):
        code = main(["hilbert", "--p", "2", "--n", "2", "--m", "1",
                     "--ell", "1", "--e", "1", "--mode", "both"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["equal"] is True
        assert data["rows"] == [[0, 1, 1, True], [1, 1, 1, True],
                                [2, 1, 1, True]]

    def test_quartic_stabilizer_totals(self, capsys):
        code = main(["hilbert", "--q", "4", "--n", "2", "--m", "1",
                     "--full-stabilizer", "--mode", "both"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["formula_total"] == 5
        assert data["brute_total"] == 5

    def test_formula_mode_golden_bytes(self, capsys):
        code = main(["hilbert", "--p", "2", "--n", "2", "--m", "1",
                     "--ell", "1", "--e", "1", "--mode", "formula"])
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_HILBERT_FORMULA

    def test_brute_mode(self, capsys):
        code = main(["hilbert", "--p", "3", "--n", "2", "--m", "1",
                     "--ell", "1", "--e", "2", "--mode", "brute"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dims"] == [1, 0, 1, 1, 1]
        assert data["total"] == 4

    def test_csv_format(self, capsys):
        code = main(["hilbert", "--p", "2", "--n", "2", "--m", "1",
                     "--ell", "1", "--e", "1", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree,formula,brute,equal"
        assert lines[1] == "0,1,1,True"

    def test_pretty_format(self, capsys):
        code = main(["hilbert", "--q", "4", "--n", "2", "--m", "1",
                     "--full-stabilizer", "--format", "pretty"])
        assert code == 0
        out = capsys.readouterr().out
        assert "totals 5 vs 5" in out
        assert "equal: True" in out

    def test_truncate_override(self, capsys):
        code = main(["hilbert", "--p", "3", "--n", "2", "--m", "1",
                     "--ell", "1", "--e", "2", "--truncate", "3"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [row[0] for row in data["rows"]] == [0, 1, 2, 3]

    def test_truncate_windows_formula_mode(self, capsys):
        code = main(["hilbert", "--p", "3", "--n", "2", "--m", "1",
                     "--ell", "1", "--e", "2", "--mode", "formula",
                     "--truncate", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["series"]["coeffs"] == [1, 0, 1]
        assert data["series"]["truncation"] == 2
        assert data["total"] == 4

    def test_default_group_is_largest_family(self, capsys):
        # omitted --ell/--e fall back to ell = n - 1, e = q - 1
        code = main(["hilbert", "--p", "3", "--n", "2", "--m", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spec"]["ell"] == 1
        assert data["spec"]["e"] == 2

    def test_invalid_e_exits_2(self, capsys):
        code = main(["hilbert", "--p", "3", "--n", "2", "--m", "1",
                     "--e", "7"])
        assert code == 2
        assert "e must divide" in capsys.readouterr().err

    def test_q_and_p_conflict_exits_2(self, capsys):
        code = main(["hilbert", "--p", "2", "--q", "4", "--n", "2",
                     "--m", "1"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_field_exits_2(self, capsys):
        code = main(["hilbert", "--n", "2", "--m", "1"])
        assert code == 2
        assert "base field" in capsys.readouterr().err

    def test_no_closed_form_exits_2(self, capsys):
        # r > 1 with a proper semisimple subgroup has no formula branch
        code = main(["hilbert", "--q", "4", "--n", "2", "--ell", "0",
                     "--e", "3", "--m", "1"])
        assert code == 2
        assert "no closed-form" in capsys.readouterr().err

    def test_cap_exits_3(self, capsys):
        code = main(["hilbert", "--p", "5", "--n", "3", "--m", "2",
                     "--max-monomials", "100"])
        assert code == 3
        assert "above the cap" in capsys.readouterr().err

    def test_matrix_cap_exits_3_quickly(self, capsys, monkeypatch):
        # 27^4 monomials pass the default monomial cap; under a 256 MiB
        # budget the 6965595 transvection terms are refused before any is built
        monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", 256 * 2 ** 20)
        invariants._brute_dims.cache_clear()
        start = time.perf_counter()
        code = main(["hilbert", "--p", "3", "--n", "4", "--m", "3", "--mode", "brute"])
        assert time.perf_counter() - start < 10
        assert code == 3
        err = capsys.readouterr().err
        assert "eliminating a matrix of 6965595 entries needs" in err
        assert err.count("\n") == 1

    def test_largest_quotient_within_the_monomial_cap_matches(self, capsys):
        # 27^4 monomials, 3.6M nonzero entries: inside the default budget
        invariants._brute_dims.cache_clear()
        code = main(["hilbert", "--p", "3", "--n", "4", "--m", "3", "--mode", "both"])
        invariants._brute_dims.cache_clear()
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["equal"] is True and data["brute_total"] == 29160

    def test_monomial_table_past_the_budget_exits_3(self, capsys):
        # a raised monomial cap lets 46337^2 monomials through, but listing
        # their exponents is charged to the budget before it is allocated
        code = main(["hilbert", "--p", "46337", "--n", "2", "--m", "1", "--mode", "brute",
                     "--max-monomials", "3000000000"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "listing the 2147117569 monomials needs" in err

    def test_memory_error_exits_3(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_hilbert", exhausted)
        assert main(["hilbert", "--p", "3", "--n", "2", "--m", "1"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "out of memory" in err

    def test_formula_cap_exits_3_before_expanding(self, capsys):
        # the series would hold 2^32 coefficients
        argv = ["hilbert", "--p", "2147483647", "--n", "2", "--m", "1"]
        assert main(argv + ["--mode", "formula"]) == 3
        assert "series needs 4294967293 coefficients" in capsys.readouterr().err
        assert main(argv + ["--mode", "both"]) == 3
        assert "monomials, above the cap" in capsys.readouterr().err

    def test_formula_cap_bounds_series_length(self, capsys):
        argv = ["hilbert", "--p", "3", "--n", "2", "--m", "1", "--mode", "formula"]
        assert main(argv + ["--max-monomials", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 4
        assert main(argv + ["--max-monomials", "4"]) == 3
        assert "series needs 5 coefficients, above the cap of 4" in capsys.readouterr().err

    def test_bad_prime_power_exits_2(self, capsys):
        code = main(["hilbert", "--q", "12", "--n", "2", "--m", "1"])
        assert code == 2
        assert "not a prime power" in capsys.readouterr().err

    def test_negative_truncate_exits_2(self, capsys):
        # an empty table would otherwise compare equal and pass vacuously
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", "--p", "3", "--n", "2", "--m", "1",
                  "--truncate", "-1"])
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err


class TestGbcheck:
    def test_example_spec(self, capsys):
        code = main(["gbcheck", "--p", "3", "--n", "2", "--m", "2",
                     "--e", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["names"] == ["h_0", "h_{1,1}", "h_{2,1,1}"]
        assert all(c["remainder"] == "0" for c in data["certificates"]
                   if c["pair"] is not None)

    def test_csv_pairs(self, capsys):
        code = main(["gbcheck", "--p", "3", "--n", "2", "--m", "2",
                     "--e", "2", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "pair,remainder"
        assert lines[1] == '"[0, 1]","0"'

    def test_from_scratch(self, capsys):
        code = main(["gbcheck", "--p", "2", "--n", "2", "--m", "2",
                     "--e", "1", "--from-scratch"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["completed_size"] == len(data["names"])

    def test_partial_group_exits_2(self, capsys):
        code = main(["gbcheck", "--p", "3", "--n", "2", "--m", "1",
                     "--ell", "0", "--e", "2"])
        assert code == 2
        assert "ell = n - 1" in capsys.readouterr().err

    def test_huge_extension_field_exits_2_quickly(self, capsys):
        # refused before the modulus search, which would scan p candidates
        start = time.perf_counter()
        code = main(["gbcheck", "--p", "4294967311", "--r", "2", "--n", "2", "--m", "1",
                     "--full-stabilizer"])
        assert time.perf_counter() - start < 10
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too large for int64" in err

    @pytest.mark.parametrize("p", ["3037000507", "4294967311"])
    def test_huge_prime_exits_2(self, capsys, p):
        # the root-of-unity search counts field elements lazily, so the int64
        # check of the code arithmetic is reached instead of a MemoryError
        code = main(["gbcheck", "--p", p, "--n", "2", "--m", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too large for int64" in err


class TestDecompose:
    def test_archetype(self, capsys):
        code = main(["decompose", "--p", "5", "--n", "3", "--ell", "2",
                     "--e", "4", "--m", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_csv_header(self, capsys):
        code = main(["decompose", "--p", "2", "--n", "2", "--m", "1",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree,A,B,total,brute"
        assert lines[1] == "0,1,0,1,1"
        assert len(lines) == 4

    def test_pretty_mentions_ok(self, capsys):
        code = main(["decompose", "--p", "2", "--n", "2", "--m", "1",
                     "--format", "pretty"])
        assert code == 0
        assert "ok: True" in capsys.readouterr().out


class TestOrbits:
    def test_golden_bytes(self, capsys):
        code = main(["orbits", "--p", "2", "--n", "2", "--full-stabilizer",
                     "--m", "1"])
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_ORBITS

    def test_archetype_pretty(self, capsys):
        code = main(["orbits", "--p", "5", "--n", "3", "--ell", "2",
                     "--e", "4", "--m", "1", "--format", "pretty"])
        assert code == 0
        out = capsys.readouterr().out
        assert "26 orbits of 125 points" in out
        assert "match=True" in out

    def test_csv_histogram(self, capsys):
        code = main(["orbits", "--q", "9", "--n", "2", "--full-stabilizer",
                     "--m", "1", "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == "size,multiplicity\n1,9\n72,1\n"

    def test_cap_exits_3(self, capsys):
        code = main(["orbits", "--p", "5", "--n", "3", "--m", "1",
                     "--max-points", "100"])
        assert code == 3
        assert "above the cap" in capsys.readouterr().err

    def test_points_past_the_budget_exit_3(self, capsys):
        # the point cap lets p^2 = 9223371994482243049 points through, but
        # their arrays are charged to the budget before any is allocated
        code = main(["orbits", "--p", "3037000493", "--n", "2", "--m", "1", "--ell", "0",
                     "--e", "1", "--max-points", "10000000000000000000"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "enumerating the orbits of 9223371994482243049 points needs" in err


class TestResolution2D:
    def test_nonmodular_example(self, capsys):
        code = main(["resolution2d", "--p", "5", "--m", "1", "--e", "4",
                     "--ell", "0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["branch"] == "nonmodular"
        assert data["f0_shifts"] == [5, 8]
        assert data["f1_shifts"] == [13]
        assert data["ok"] is True

    def test_modular_default_branch(self, capsys):
        code = main(["resolution2d", "--p", "3", "--m", "2", "--e", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["branch"] == "modular"
        assert [s["name"] for s in data["syzygies"]] == [
            "tau_{0,1}", "tau_{1,2}", "tau_{0,2}"]

    def test_pretty_and_csv(self, capsys):
        code = main(["resolution2d", "--p", "2", "--m", "1", "--e", "1",
                     "--format", "pretty"])
        assert code == 0
        assert "branch: modular" in capsys.readouterr().out
        code = main(["resolution2d", "--p", "2", "--m", "1", "--e", "1",
                     "--format", "csv"])
        assert code == 0
        assert "key,value" in capsys.readouterr().out

    def test_invalid_e_exits_2(self, capsys):
        code = main(["resolution2d", "--p", "5", "--m", "1", "--e", "3"])
        assert code == 2


class TestConjecture:
    def test_single_variable_matches(self, capsys):
        code = main(["conjecture", "--q", "2", "--n", "1", "--m", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["checked"] is True
        assert data["match"] is True
        assert data["series"]["coeffs"] == [1, 1]
        assert data["brute_dims"] == [1, 1]

    def test_pretty_shows_both_sides(self, capsys):
        code = main(["conjecture", "--q", "2", "--n", "1", "--m", "1",
                     "--format", "pretty"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1*t^0 + 1*t^1" in out
        assert "match: True" in out

    def test_two_variables(self, capsys):
        code = main(["conjecture", "--q", "3", "--n", "2", "--m", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["match"] is True

    def test_beyond_brute_range_skips_check(self, capsys):
        code = main(["conjecture", "--q", "4", "--n", "2", "--m", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["checked"] is False
        assert data["match"] is None
        assert data["brute_dims"] is None
        assert data["series"]["conjectural"] is True

    def test_negative_truncate_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conjecture", "--q", "2", "--n", "1", "--m", "1",
                  "--truncate", "-1"])
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_csv_when_checked(self, capsys):
        code = main(["conjecture", "--q", "2", "--n", "2", "--m", "1",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree,conjecture,brute"

    def test_bad_prime_power_exits_2(self, capsys):
        code = main(["conjecture", "--q", "6", "--n", "1", "--m", "1"])
        assert code == 2

    def test_series_length_cap_exits_3(self, capsys):
        # 3 (2^25 - 1) + 1 coefficients: capped before the series is built
        code = main(["conjecture", "--q", "2", "--n", "3", "--m", "25",
                     "--max-monomials", "10"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "the series needs 100663294 coefficients, above the cap of 10"]


def write_manifest(path, **overrides):
    manifest = {
        "grid": {"p": [2, 3], "n": [2], "m": [1], "ell": [0, 1],
                 "e": [1, 2], "full_stabilizer": [False]},
        "commands": ["hilbert", "orbits"],
        "output_dir": str(path / "out"),
        "caps": {"max_monomials": 100000, "max_points": 100000},
    }
    manifest.update(overrides)
    target = path / "manifest.json"
    target.write_text(json.dumps(manifest))
    return target


# the groups of DYING_GRID, in sweep order; the worker given the last one dies
DYING_GRID = {"p": [2, 3, 5], "n": [2], "m": [1], "ell": [1], "e": [1]}
DYING_TAGS = ("p2n2l1e1", "p3n2l1e1", "p5n2l1e1")


def _exit_in_last_group(batch):
    """Stands in for cli._sweep_group in forked pool workers.

    The worker given the last group exits abruptly, but only once the job
    files of the groups before it are on disk, so those groups have finished.
    """
    if batch[0]["spec"]["p"] != 5:
        return _sweep_group(batch)
    earlier = [Path("out", f"{cmd}_{tag}_m1.json")
               for tag in DYING_TAGS[:-1] for cmd in ("hilbert", "orbits")]
    deadline = time.monotonic() + 60
    while not all(f.exists() for f in earlier) and time.monotonic() < deadline:
        time.sleep(0.01)
    os._exit(1)


class TestSweep:
    def test_small_grid(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        code = main(["sweep", "--manifest", str(manifest)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        # p=2 admits (0,1) and (1,1); p=3 admits all four (ell, e) pairs
        assert summary["counts"] == {"ok": 12, "fail": 0, "cap": 0, "skip": 0}
        assert summary["skipped_grid_points"] == 2
        names = {r["file"] for r in summary["jobs"]}
        assert "hilbert_p3n2l1e2_m1.json" in names
        for record in summary["jobs"]:
            assert (tmp_path / "out" / record["file"]).exists()

    def test_job_payload_shape(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        data = json.loads(
            (tmp_path / "out" / "orbits_p3n2l1e2_m1.json").read_text())
        assert data["status"] == "ok"
        assert data["command"] == "orbits"
        assert data["match"] is True

    def test_replay_is_byte_identical(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        first = capsys.readouterr().out
        files = {
            f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()
        }
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        assert capsys.readouterr().out == first
        for f in (tmp_path / "out").iterdir():
            assert f.read_bytes() == files[f.name]

    def test_parallel_matches_serial(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--manifest", str(manifest),
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_jobs_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FROBPOW_JOBS", "2")
        manifest = write_manifest(tmp_path)
        assert main(["sweep", "--manifest", str(manifest)]) == 0

    def test_gbcheck_skips_partial_groups(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, commands=["gbcheck"])
        code = main(["sweep", "--manifest", str(manifest)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        by_spec = {r["spec"]: r["status"] for r in summary["jobs"]}
        assert by_spec["p3n2l1e2"] == "ok"
        assert by_spec["p3n2l0e2"] == "skip"

    def test_cap_exits_3(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path, caps={"max_monomials": 2, "max_points": 2})
        code = main(["sweep", "--manifest", str(manifest)])
        assert code == 3
        summary = json.loads(capsys.readouterr().out)
        assert summary["counts"]["cap"] == summary["counts"]["ok"] + \
            summary["counts"]["cap"]

    def test_csv_summary(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, commands=["orbits"])
        assert main(["sweep", "--manifest", str(manifest),
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "command,spec,m,status,file"

    def test_unknown_command_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, commands=["hilbert", "frobenius"])
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "unknown sweep command" in capsys.readouterr().err

    def test_unknown_manifest_field_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, seed=7)
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "unknown manifest fields" in capsys.readouterr().err

    def test_unknown_grid_axis_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            grid={"p": [2], "n": [2], "weight": [1]})
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "unknown grid axes" in capsys.readouterr().err

    def test_unknown_cap_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, caps={"max_degree": 5})
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "unknown caps" in capsys.readouterr().err

    def test_missing_key_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        content = json.loads(manifest.read_text())
        del content["output_dir"]
        manifest.write_text(json.dumps(content))
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "requires 'output_dir'" in capsys.readouterr().err

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--manifest", str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read the manifest" in err
        assert err.count("\n") == 1

    def test_non_integer_cap_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, caps={"max_monomials": "x"})
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "max_monomials must be an integer" in err
        assert err.count("\n") == 1

    def test_negative_jobs_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        assert main(["sweep", "--manifest", str(manifest), "--jobs", "-1"]) == 2
        err = capsys.readouterr().err
        assert "at least one worker" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_non_integer_jobs_env_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FROBPOW_JOBS", "abc")
        manifest = write_manifest(tmp_path)
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "FROBPOW_JOBS must be a worker count, not 'abc'" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_job_files_are_single_command_output(self, tmp_path, capsys):
        # r = 2, ell = 0 has no closed form (hilbert runs as --mode brute),
        # ell = 0 groups are outside the h-generator range (gbcheck skips),
        # and q = 9 exceeds both caps
        manifest = write_manifest(
            tmp_path,
            grid={"p": [2, 3], "r": [1, 2], "n": [2], "m": [1],
                  "ell": [0, 1], "e": [1, 3], "full_stabilizer": [False, True]},
            commands=["hilbert", "gbcheck", "decompose", "orbits"],
            caps={"max_monomials": 60, "max_points": 60})
        assert main(["sweep", "--manifest", str(manifest)]) == 3
        jobs = json.loads(capsys.readouterr().out)["jobs"]
        statuses = {0: "ok", 1: "fail", 2: "skip", 3: "cap"}
        seen = set()
        for job in jobs:
            data = json.loads((tmp_path / "out" / job["file"]).read_text())
            spec = data["spec"]
            argv = [job["command"], "--p", str(spec["p"]), "--r", str(spec["r"]),
                    "--n", str(spec["n"]), "--m", str(job["m"])]
            if spec["full_stabilizer"]:
                argv.append("--full-stabilizer")
            else:
                argv += ["--ell", str(spec["ell"]), "--e", str(spec["e"])]
            if job["command"] in ("hilbert", "decompose"):
                argv += ["--max-monomials", "60"]
            if job["command"] == "hilbert":
                brute = spec["r"] > 1 and not spec["full_stabilizer"]
                argv += ["--mode", "brute" if brute else "both"]
            if job["command"] == "orbits":
                argv += ["--max-points", "60"]
            code = main(argv)
            out, err = capsys.readouterr()
            if code == 2:
                single = {"spec": spec, "m": job["m"], "skipped": err.strip()}
            elif code == 3:
                single = {"spec": spec, "m": job["m"], "error": err.strip()}
            else:
                single = json.loads(out)
            expected = single | {"command": job["command"], "status": statuses[code]}
            assert (tmp_path / "out" / job["file"]).read_text() == _dump_json(expected)
            seen.add((job["command"], statuses[code], data.get("mode")))
        assert ("hilbert", "ok", "brute") in seen
        assert ("hilbert", "ok", "both") in seen
        assert ("gbcheck", "skip", None) in seen
        assert {"ok", "cap"} <= {status for _, status, _ in seen}

    @pytest.mark.parametrize("overrides, message", [
        ({"grid": {"p": 3, "n": [2]}}, "grid axis 'p' must be a list, not 3"),
        ({"commands": "hilbert"}, "manifest 'commands' must be a list, not 'hilbert'"),
        ({"grid": [2, 3]}, "manifest 'grid' must be an object"),
        ({"grid": {"p": [3.5], "n": [2]}}, "grid axis 'p' holds 3.5"),
        ({"grid": {"p": [3], "n": [2], "full_stabilizer": [1]}},
         "grid axis 'full_stabilizer' holds 1"),
        ({"grid": {"p": [3], "n": [2], "m": [1, 0]}}, "grid axis 'm' holds 0"),
        ({"caps": [5]}, "manifest 'caps' must be an object"),
        ({"caps": {"max_monomials": 0}},
         "cap max_monomials must be an integer of at least 1, not 0"),
        ({"caps": {"max_points": -3}},
         "cap max_points must be an integer of at least 1, not -3"),
        ({"output_dir": 7}, "manifest 'output_dir' must be a string"),
    ])
    def test_mistyped_manifest_exits_2(self, tmp_path, capsys, overrides, message):
        manifest = write_manifest(tmp_path, **overrides)
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1

    def test_manifest_must_be_an_object(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "a manifest must be an object" in capsys.readouterr().err

    def test_all_invalid_grid_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path, grid={"p": [2], "n": [2], "e": [5]})
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "no valid grid points" in capsys.readouterr().err

    def test_parallel_writes_the_same_job_files(self, tmp_path, capsys):
        # both m values and all four commands, so that each group holds
        # several jobs, with ok, cap (Q^2 = 81 for p = 3, m = 2) and skip
        # (gbcheck at ell = 0) jobs among them
        grid = {"p": [2, 3], "n": [2], "m": [1, 2], "ell": [0, 1], "e": [1, 2]}
        outputs = []
        for jobs in ("1", "2"):
            manifest = write_manifest(
                tmp_path, grid=grid, commands=["hilbert", "gbcheck", "decompose", "orbits"],
                output_dir=str(tmp_path / f"out{jobs}"),
                caps={"max_monomials": 50, "max_points": 100000})
            assert main(["sweep", "--manifest", str(manifest), "--jobs", jobs]) == 3
            files = {f.name: f.read_bytes() for f in (tmp_path / f"out{jobs}").iterdir()}
            outputs.append((capsys.readouterr().out, files))
        (serial_out, serial_files), (pool_out, pool_files) = outputs
        assert pool_out == serial_out
        assert pool_files == serial_files
        summary = json.loads(serial_out)
        assert len(serial_files) == len(summary["jobs"]) == 48
        assert all(summary["counts"][s] for s in ("ok", "cap", "skip"))

    def test_sweep_group_renders_each_job_in_order(self, tmp_path):
        manifest = json.loads(write_manifest(
            tmp_path, grid={"p": [3], "n": [2], "m": [1, 2], "ell": [0], "e": [2]},
            commands=["orbits", "gbcheck", "hilbert"]).read_text())
        batch, _ = _expand_manifest(manifest)
        assert len(batch) == 6
        results = _sweep_group(batch)
        assert results == [(_sweep_job(job)["status"], _dump_json(_sweep_job(job)))
                           for job in batch]
        assert {status for status, _ in results} == {"ok", "skip"}

    def test_dead_worker_exits_3_and_keeps_finished_groups(
            self, tmp_path, capsys, monkeypatch):
        # forked workers inherit the replaced group runner
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_sweep_group", _exit_in_last_group)
        manifest = write_manifest(tmp_path, grid=DYING_GRID, commands=["hilbert", "orbits"],
                                  output_dir="out")
        assert main(["sweep", "--manifest", str(manifest), "--jobs", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "worker died" in captured.err
        written = sorted(f.name for f in (tmp_path / "out").iterdir())
        assert written == sorted(f"{cmd}_{tag}_m1.json" for tag in DYING_TAGS[:-1]
                                 for cmd in ("hilbert", "orbits"))


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["hilbert", "--p", "3", "--n", "2", "--m", "1", "--max-monomials", "-5"],
        ["hilbert", "--p", "3", "--n", "2", "--m", "1", "--max-monomials", "0"],
        ["decompose", "--p", "3", "--n", "2", "--m", "1", "--max-monomials", "0"],
        ["conjecture", "--q", "2", "--n", "2", "--m", "1", "--max-monomials", "-1"],
        ["orbits", "--p", "3", "--n", "2", "--m", "1", "--max-points", "0"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_caps_below_one_exit_2(self, argv, capsys):
        # a cap below 1 used to be reported as a cap hit (exit 3)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"a cap is at least 1, not {argv[-1]}" in capsys.readouterr().err

    def test_bad_format_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", "--p", "2", "--n", "2", "--m", "1",
                  "--format", "yaml"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "frobpow.cli", "orbits", "--p", "2",
             "--n", "2", "--full-stabilizer", "--m", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["orbit_count"] == 3
