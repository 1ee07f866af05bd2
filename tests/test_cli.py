"""Exit codes, output formats, and manifest replay for the command line."""

import json
import subprocess
import sys

import pytest

from frobpow.cli import _dump_json, main

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

    def test_all_invalid_grid_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path, grid={"p": [2], "n": [2], "e": [5]})
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "no valid grid points" in capsys.readouterr().err


class TestParser:
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
