"""Exit codes, output formats, and manifest replay for the command line."""

import concurrent.futures
import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from frobpow import cli, ff, invariants
from frobpow.cli import _expand_manifest, _spec_tag, _sweep_group, _sweep_job, main
from frobpow.group import GroupSpec


def whole_json(data):
    """The JSON text of data as one string: what the streamed writer must match."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"

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

    @pytest.mark.parametrize("argv,label", [
        (["--q", "4", "--n", "2", "--full-stabilizer"],
         "((1-t^4)/(1-t^4))^1 [(1-t^3)/(1-t^3) + t^3 ((1-t^4)/(1-t))^1]"),
        (["--p", "3", "--n", "3", "--ell", "1", "--e", "2"],
         "((1-t^3)/(1-t))^1 ((1-t^3)/(1-t^3))^1 [(1-t^2)/(1-t^2) + t^2 ((1-t^3)/(1-t))^1]"),
    ], ids=["stabilizer", "family"])
    def test_closed_form_labels(self, capsys, argv, label):
        # the stabilizer label has no ((1-t^Q)/(1-t))^0 factor, the family's does
        code = main(["hilbert", *argv, "--m", "1", "--mode", "formula"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["series"]["closed_form"] == label

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

    @pytest.mark.parametrize("flags,message", [
        (["--ell", "0", "--e", "2"], "forces ell = n - 1"),
        (["--e", "2"], "forces e = q - 1")], ids=["ell", "e"])
    def test_full_stabilizer_contradiction_exits_2(self, capsys, flags, message):
        code = main(["hilbert", "--p", "5", "--n", "3", "--m", "1",
                     "--full-stabilizer", *flags])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("truncate", ["0", "1000000000000"])
    def test_brute_mode_refuses_truncate(self, capsys, fmt, truncate):
        # brute mode lists every degree, so a window would be ignored
        code = main(["hilbert", "--p", "3", "--n", "2", "--m", "1", "--mode", "brute",
                     "--truncate", truncate, "--format", fmt])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "--truncate" in err

    @pytest.mark.parametrize("omitted,given", [
        ([], ["--ell", "2", "--e", "4"]),
        (["--full-stabilizer"], ["--full-stabilizer", "--ell", "2"])], ids=["plain", "stab"])
    def test_omitted_ell_and_e_take_the_largest_family(self, capsys, omitted, given):
        argv = ["hilbert", "--p", "5", "--n", "3", "--m", "1"]
        assert main(argv + omitted) == 0
        out, err = capsys.readouterr()
        spec = json.loads(out)["spec"]
        assert err == "" and (spec["ell"], spec["e"]) == (2, 4)
        assert main(argv + given) == 0
        assert capsys.readouterr() == (out, "")

    def test_full_stabilizer_agreeing_flags_change_nothing(self, capsys):
        argv = ["hilbert", "--p", "5", "--n", "3", "--m", "1", "--full-stabilizer"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--ell", "2", "--e", "4"]) == 0
        assert capsys.readouterr().out == plain

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
        # 27^4 monomials pass the default monomial cap; under a 128 MiB
        # budget the 3626046 transvection terms are refused before any is built
        monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", 128 * 2 ** 20)
        invariants._brute_dims.cache_clear()
        start = time.perf_counter()
        code = main(["hilbert", "--p", "3", "--n", "4", "--m", "3", "--mode", "brute"])
        assert time.perf_counter() - start < 10
        assert code == 3
        err = capsys.readouterr().err
        assert "eliminating a matrix of 3626046 entries needs" in err
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

    def test_series_past_the_budget_exits_3(self, capsys):
        # inside a raised series cap, but its lists are charged to the budget first
        start = time.perf_counter()
        code = main(["hilbert", "--p", "131", "--n", "2", "--m", "3", "--mode", "formula",
                     "--max-monomials", "10000000"])
        assert time.perf_counter() - start < 5
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "a series of 4496181 coefficients needs" in err

    def test_long_formula_series_runs(self, capsys):
        # 89371 coefficients of p = 31, n = 3, m = 3, every closed form expanded
        assert main(["hilbert", "--p", "31", "--n", "3", "--m", "3", "--mode", "formula"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["series"]["coeffs"]) == 89371
        assert data["total"] == 31 ** 6 + 31 ** 4 * (31 ** 3 - 1) // 30

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

    def test_high_frobenius_power_runs_quickly(self):
        # h-generator degrees up to 31^6 = 887503681: powers go by base-p digits
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "frobpow.cli", "gbcheck", "--p", "31",
                               "--n", "2", "--m", "6", "--ell", "1"],
                              capture_output=True, text=True)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_past_the_spair_cap_exits_3_quickly(self):
        # 1830 h-generators would give 1673535 S-pairs; the count is checked
        # from n before any generator is built
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "frobpow.cli", "gbcheck", "--p", "2",
                               "--n", "60", "--m", "1"], capture_output=True, text=True)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "the S-pair check needs 1673535 pairs, above the cap of 10000\n"

    @pytest.mark.parametrize("argv", [["--m", "0"], ["--m", "1", "--ell", "0", "--e", "1"]],
                             ids=" ".join)
    def test_out_of_range_past_the_spair_cap_exits_2(self, capsys, argv):
        assert main(["gbcheck", "--p", "2", "--n", "60"] + argv) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_largest_n_within_the_spair_cap_runs(self, capsys):
        # 136 h-generators, 9180 S-pairs: the cap of 10^4 stops n = 17 (11628)
        assert main(["gbcheck", "--p", "2", "--n", "16", "--m", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert len(data["certificates"]) == 9180

    def test_huge_extension_field_exits_2_quickly(self, capsys):
        # refused before the modulus search: no code arithmetic fits the field
        start = time.perf_counter()
        code = main(["gbcheck", "--p", "4294967311", "--r", "2", "--n", "2", "--m", "1",
                     "--full-stabilizer"])
        assert time.perf_counter() - start < 10
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too large for int64" in err

    @pytest.mark.parametrize("p", ["3037000507", "4294967311"])
    def test_huge_prime_exits_2(self, capsys, p):
        # the int64 check of the code arithmetic runs before the group is
        # built, so the root-of-unity search never starts
        code = main(["gbcheck", "--p", p, "--n", "2", "--m", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too large for int64" in err


class TestHugeFields:
    # primality is a Miller-Rabin test, q splits by integer roots and the
    # modulus search skips the p candidates divisible by x: no scan grows with p
    @pytest.mark.parametrize("argv,code,message", [
        (["hilbert", "--p", "2305843009213693951"], 3, "monomials, above the cap"),
        (["gbcheck", "--p", "2305843009213693951"], 2, "too large for int64"),
        (["hilbert", "--q", "1000006000009", "--full-stabilizer"], 3,
         "monomials, above the cap"),
    ])
    def test_cap_or_refusal_comes_quickly(self, capsys, argv, code, message):
        start = time.perf_counter()
        assert main(argv + ["--n", "2", "--m", "1"]) == code
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_prime_past_the_exact_test_exits_2(self, capsys):
        assert main(["hilbert", "--p", str(2 ** 89 - 1), "--n", "2", "--m", "1"]) == 2
        assert "too large for an exact primality test" in capsys.readouterr().err

    @pytest.mark.parametrize("command,message", [
        ("hilbert", "monomials, above the cap"), ("decompose", "monomials, above the cap"),
        ("orbits", "points, above the cap"), ("gbcheck", "tabulating GF(")])
    def test_long_extension_is_capped_before_its_modulus_search(
            self, capsys, command, message):
        # GroupSpec checks p and r without building GF(2^200), whose modulus
        # search alone takes seconds, so the cap fires first; gbcheck charges
        # the field's tables from p and r before basic_invariants builds it
        start = time.perf_counter()
        assert main([command, "--p", "2", "--r", "200", "--n", "2", "--m", "1",
                     "--full-stabilizer"]) == 3
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


class TestHugeFrobeniusPower:
    # a count far past its cap is refused from its logarithm: 3^(2 * 10^7)
    # alone takes seconds to build
    @pytest.mark.parametrize("argv,need", [
        (["orbits", "--p", "3", "--n", "2"], "orbit enumeration needs about 2^31699250 points"),
        (["hilbert", "--p", "3", "--n", "2"], "quotient needs about 2^31699250 monomials"),
        (["decompose", "--p", "3", "--n", "2"], "quotient needs about 2^31699250 monomials"),
        (["hilbert", "--mode", "formula", "--p", "3", "--n", "2"],
         "the series needs about 2^15849626 coefficients"),
        (["conjecture", "--q", "3", "--n", "2"], "the series needs about 2^15849626 coefficients"),
        (["resolution2d", "--p", "3", "--e", "2"],
         "the series needs about 2^15849626 coefficients"),
    ], ids=["orbits", "hilbert", "decompose", "hilbert-formula", "conjecture", "resolution2d"])
    def test_cap_fires_quickly(self, capsys, argv, need):
        start = time.perf_counter()
        assert main(argv + ["--m", "10000000"]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"{need}, above the cap of 1000000\n")


class TestTruncateCap:
    # a truncation degree lists truncate + 1 coefficients, under the series cap
    @pytest.mark.parametrize("argv", [
        ["hilbert", "--p", "2", "--n", "2", "--mode", "formula"],
        ["hilbert", "--p", "2", "--n", "2", "--mode", "both"],
        ["conjecture", "--q", "2", "--n", "2"]],
        ids=["hilbert-formula", "hilbert-both", "conjecture"])
    def test_huge_truncate_exits_3_quickly(self, capsys, argv):
        start = time.perf_counter()
        assert main(argv + ["--m", "1", "--truncate", "100000000"]) == 3
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "the series needs 100000001 coefficients, above the cap of 1000000"]

    def test_truncate_within_the_cap_still_runs(self, capsys):
        assert main(["conjecture", "--q", "2", "--n", "1", "--m", "1", "--truncate", "9",
                     "--max-monomials", "10"]) == 0
        assert len(json.loads(capsys.readouterr().out)["series"]["coeffs"]) == 10
        assert main(["conjecture", "--q", "2", "--n", "1", "--m", "1", "--truncate", "10",
                     "--max-monomials", "10"]) == 3


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

    @pytest.mark.parametrize("argv", [
        ["--p", "2", "--m", "40", "--e", "1"],
        ["--p", "2", "--m", "40", "--e", "1", "--ell", "0"],
        ["--p", "31", "--m", "5", "--e", "30", "--ell", "0"],
    ], ids=" ".join)
    def test_series_past_the_cap_exits_3_quickly(self, capsys, argv):
        start = time.perf_counter()
        assert main(["resolution2d"] + argv) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "coefficients, above the cap of 1000000" in err


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

    @pytest.mark.parametrize("q,m,truncate", [(4, 1, 3), (4, 1, 9), (2, 2, 3), (2, 2, 9)])
    def test_csv_rows_follow_the_truncation(self, capsys, q, m, truncate):
        # degrees 0..truncate, padded with zeros past the series like the JSON
        argv = ["conjecture", "--q", str(q), "--n", "2", "--m", str(m),
                "--truncate", str(truncate)]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(truncate + 1))
        assert [int(row[1]) for row in rows] == data["series"]["coeffs"]
        if data["checked"]:
            dims = data["brute_dims"] + [0] * truncate
            assert [int(row[2]) for row in rows] == dims[:truncate + 1]

    def test_bad_prime_power_exits_2(self, capsys):
        code = main(["conjecture", "--q", "6", "--n", "1", "--m", "1"])
        assert code == 2

    def test_no_variables_exits_2_at_any_m(self, capsys):
        # n(q^m - 1) + 1 is 1 for n = 0, within the cap
        assert main(["conjecture", "--q", "2", "--n", "0", "--m", "100"]) == 2
        assert capsys.readouterr().err == "need n >= 1 and m >= 1\n"

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


def _exit_in_last_group(batch, caps):
    """Stands in for cli._sweep_group in forked pool workers.

    The worker given the last group exits abruptly, but only once the job
    files of the groups before it are on disk, so those groups have finished.
    """
    _, _, _, spec = batch[0]
    if spec.p != 5:
        return _sweep_group(batch, caps)
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

    def test_jobs_environment_is_ignored(self, tmp_path, capsys, monkeypatch):
        # the worker count comes from --jobs alone
        manifest = write_manifest(tmp_path)
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        first = capsys.readouterr().out
        monkeypatch.setenv("FROBPOW_JOBS", "abc")
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        assert capsys.readouterr().out == first

    def test_gbcheck_skips_partial_groups(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, commands=["gbcheck"])
        code = main(["sweep", "--manifest", str(manifest)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        by_spec = {r["spec"]: r["status"] for r in summary["jobs"]}
        assert by_spec["p3n2l1e2"] == "ok"
        assert by_spec["p3n2l0e2"] == "skip"

    def test_gbcheck_past_the_spair_cap_is_capped(self, tmp_path, capsys):
        # out of the h-generator range (ell = 0), n = 17 stays a skip
        manifest = write_manifest(
            tmp_path, grid={"p": [2], "n": [2, 17], "m": [1], "ell": [0, 1, 16], "e": [1]},
            commands=["gbcheck"])
        assert main(["sweep", "--manifest", str(manifest)]) == 3
        summary = json.loads(capsys.readouterr().out)
        by_spec = {r["spec"]: r["status"] for r in summary["jobs"]}
        assert by_spec == {"p2n2l0e1": "skip", "p2n2l1e1": "ok",
                           "p2n17l0e1": "skip", "p2n17l1e1": "skip", "p2n17l16e1": "cap"}

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

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        manifest = write_manifest(tmp_path, output_dir=str(tmp_path / "taken"))
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("cannot write the sweep output: ")

    def test_failed_job_file_write_exits_2(self, tmp_path, capsys, monkeypatch):
        # the second group's first file fails to write, as on a full disk
        write_text = Path.write_text

        def fail_on_p3(path, text):
            if "_p3n2" in path.name:
                raise OSError(28, "No space left on device")
            return write_text(path, text)

        monkeypatch.setattr(Path, "write_text", fail_on_p3)
        manifest = write_manifest(tmp_path, grid={"p": [2, 3], "n": [2], "ell": [1], "e": [1]})
        assert main(["sweep", "--manifest", str(manifest), "--jobs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cannot write the sweep output: [Errno 28] No space left on device\n"
        assert sorted(f.name for f in (tmp_path / "out").iterdir()) == [
            "hilbert_p2n2l1e1_m1.json", "orbits_p2n2l1e1_m1.json"]

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
            assert (tmp_path / "out" / job["file"]).read_text() == whole_json(expected)
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
        batch, caps, _ = _expand_manifest(manifest)
        assert len(batch) == 6
        results = _sweep_group(batch, caps)
        assert results == [(_sweep_job(job, caps)["status"], whole_json(_sweep_job(job, caps)))
                           for job in batch]
        assert {status for status, _ in results} == {"ok", "skip"}

    def test_jobs_carry_their_spec_and_tag(self, tmp_path):
        # a full-stabilizer grid point ignores the ell and e axes: one job each
        manifest = json.loads(write_manifest(
            tmp_path, grid={"p": [2, 3], "r": [1, 2], "n": [2], "ell": [0, 1], "e": [1, 3],
                            "full_stabilizer": [False, True]},
            caps={"max_points": 7}).read_text())
        jobs, caps, skipped = _expand_manifest(manifest)
        assert caps == {"max_monomials": 1000000, "max_points": 7}
        assert jobs == sorted(jobs) and len(set(jobs)) == len(jobs)
        specs = {spec for _, _, _, spec in jobs}
        assert all(isinstance(spec, GroupSpec) for spec in specs)
        assert sum(spec.full_stabilizer for spec in specs) == 4
        assert (len(specs), len(jobs), skipped) == (11, 22, 9)
        assert all(tag == _spec_tag(spec) for _, tag, _, spec in jobs)
        assert pickle.loads(pickle.dumps(jobs)) == jobs

    def test_pool_gets_at_most_one_worker_per_group(self, tmp_path, capsys, monkeypatch):
        # a stand-in pool that runs in this process records what it is asked for
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        outputs = []
        for p, jobs in (([2, 3], "1"), ([2, 3], "4096"), ([2], "4096")):
            outdir = tmp_path / f"out{len(p)}-{jobs}"
            manifest = write_manifest(tmp_path, grid={"p": p, "n": [2], "m": [1], "ell": [1],
                                                      "e": [1]}, output_dir=str(outdir))
            assert main(["sweep", "--manifest", str(manifest), "--jobs", jobs]) == 0
            files = {f.name: f.read_bytes() for f in outdir.iterdir()}
            outputs.append((capsys.readouterr(), files))
        assert asked == [2]  # two groups; one group runs in this process
        assert outputs[1] == outputs[0]
        assert len(outputs[0][1]) == 4 and len(outputs[2][1]) == 2

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


class Sink:
    """A stdout that keeps only the length of what is written to it."""

    size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def whole_rendering(fmt, data, csv_rows, pretty_lines):
    """What the writer must stream: the one string each format once was."""
    if fmt == "json":
        return whole_json(data)
    lines = csv_rows() if fmt == "csv" else pretty_lines()
    return "\n".join(line if isinstance(line, str) else "".join(line) for line in lines) + "\n"


class TestWriter:
    # (id, argv): payloads of 71 kB to 777 kB, past the 64 KiB pipe buffer
    CASES = [
        ("hilbert-formula-p101-m2", ["hilbert", "--p", "101", "--n", "2", "--m", "2",
                                     "--mode", "formula"]),
        ("conjecture-q2-m12", ["conjecture", "--q", "2", "--n", "2", "--m", "12"]),
        ("gbcheck-p2-n16", ["gbcheck", "--p", "2", "--n", "16", "--m", "1"]),
    ]

    @staticmethod
    def recorded(monkeypatch, argv):
        """The arguments main(argv) hands cli._emit, which writes nothing."""
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_emit", lambda *args: calls.append(args[1:]))
            code = main(argv)
        assert len(calls) == 1
        return code, calls[0]

    def check_every_format(self, capsys, monkeypatch, rendering):
        # a batch of 7 cuts every payload into thousands of writes, the last one short
        monkeypatch.setattr(cli, "_BATCH", 7)
        for fmt in ("json", "csv", "pretty"):
            cli._emit(fmt, *rendering)
            assert capsys.readouterr().out == whole_rendering(fmt, *rendering), fmt

    @pytest.mark.parametrize("argv", [case[1] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_streamed_output_is_the_whole_rendering(self, capsys, monkeypatch, argv):
        code, rendering = self.recorded(monkeypatch, argv)
        assert code == 0
        self.check_every_format(capsys, monkeypatch, rendering)

    def test_streamed_sweep_summary_is_the_whole_rendering(
            self, tmp_path, capsys, monkeypatch):
        code, rendering = self.recorded(monkeypatch, [
            "sweep", "--manifest", str(write_manifest(tmp_path))])
        assert code == 0 and len(rendering[0]["jobs"]) == 12
        self.check_every_format(capsys, monkeypatch, rendering)

    @pytest.mark.parametrize("size", [0, 1, 6, 7, 8, 14, 15])
    def test_batches_join_every_chunk_once(self, monkeypatch, size):
        monkeypatch.setattr(cli, "_BATCH", 7)
        chunks = [chr(ord("a") + i) for i in range(size)]
        batches = list(cli._batches(iter(chunks)))
        assert "".join(batches) == "".join(chunks)
        assert [len(b) for b in batches] == [7] * (size // 7) + ([size % 7] if size % 7 else [])

    # rendering 10^6 coefficients holds a batch of chunks, never the text:
    # about 0.2 MB of the 14 to 18 MB each format writes
    RENDER_BYTES = 2 ** 19

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_rendering_a_long_series_peaks_within_a_batch(self, monkeypatch, fmt):
        from frobpow.qseries import TruncatedSeries

        series = TruncatedSeries(tuple(d * 7919 % 1000003 for d in range(10 ** 6)),
                                 closed_form="f")
        view = series.to_json()
        data = {"series": view, "total": series.total}
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._emit(fmt, data, lambda: cli._coeff_rows(view["coeffs"]),
                      lambda: [series.closed_form, series.terms(), f"total {series.total}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 13 * 10 ** 6
        assert peak <= self.RENDER_BYTES


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


class TestStartup:
    # numpy's OpenBLAS pool would spin an idle thread in every CLI process
    PROBE = ("import json, os, frobpow.cli; task = '/proc/self/task'; "
             "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], "
             "len(os.listdir(task)) if os.path.isdir(task) else None]))")

    def probe(self, **env):
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", self.PROBE], env=base | env,
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    def test_openblas_runs_on_the_calling_thread(self):
        value, threads = self.probe()
        assert value == "1"
        if threads is None:
            pytest.skip("no /proc/self/task to count threads")
        assert threads == 1

    def test_openblas_setting_of_the_user_is_kept(self):
        assert self.probe(OPENBLAS_NUM_THREADS="3")[0] == "3"

    # a check loads only the layers it runs: each import compiles its source
    # anew wherever bytecode is not written
    FOOTPRINT = ("import contextlib, io, json, sys; from frobpow import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = cli.main(sys.argv[1:])\n"
                 "print(json.dumps([code, sorted(m for m in sys.modules "
                 "if m.startswith('frobpow'))]))")
    SPEC = ["--p", "3", "--n", "2", "--m", "1"]
    CORE = ["frobpow", "frobpow.cli", "frobpow.ff", "frobpow.group", "frobpow.invariants"]

    @pytest.mark.parametrize("argv,extra", [
        (["hilbert", "--mode", "brute"], []),
        (["decompose"], []),
        (["hilbert", "--mode", "both"], ["qseries"]),
        (["gbcheck"], ["groebner", "poly", "qseries"]),
    ], ids=["brute", "decompose", "both", "gbcheck"])
    def test_a_check_loads_only_its_layers(self, argv, extra):
        proc = subprocess.run([sys.executable, "-c", self.FOOTPRINT, *argv, *self.SPEC],
                              capture_output=True, text=True, check=True)
        code, modules = json.loads(proc.stdout)
        assert code == 0
        assert modules == sorted(self.CORE + [f"frobpow.{name}" for name in extra])

    def test_exit_freezes_the_heap_after_every_other_handler(self):
        # atexit runs last in, first out, so a probe registered before the
        # import runs after the freeze that frobpow.cli registers
        probe = ("import atexit, gc; "
                 "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
                 "import frobpow.cli")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "True\n"

    @pytest.mark.parametrize("argv,code", [
        (["conjecture", "--q", "2", "--n", "2", "--m", "11", "--format", "csv"], 0),
        (["orbits", "--p", "3", "--n", "2", "--m", "1", "--format", "pretty"], 0),
        (["hilbert", "--p", "4", "--n", "2", "--m", "1"], 2),
        (["hilbert", "--p", "3", "--n", "2", "--m", "2", "--max-monomials", "5"], 3),
        (["decompose", "--p", "3", "--n", "2", "--m", "0"], 2),
        (["decompose", "--p", "3", "--n", "2", "--m", "-1"], 2),
    ], ids=["long-csv", "pretty", "exit-2", "exit-3", "exit-2-m0", "exit-2-m-1"])
    def test_a_process_prints_what_main_returns(self, capsys, argv, code):
        # the frozen exit must still flush stdout to its last byte: the CSV
        # series runs past 30 KiB, longer than the stdio buffer; a refusal is
        # one stderr line, never a traceback
        assert main(argv) == code
        expected = capsys.readouterr()
        assert expected.err.count("\n") == (1 if code else 0)
        proc = subprocess.run([sys.executable, "-m", "frobpow.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stdout == expected.out
        assert proc.stderr == expected.err
