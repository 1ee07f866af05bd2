"""Negative controls: every comparison the CLI reports can still fail.

Each case plants one fault on one side of a comparison through monkeypatch
and runs the subcommand in process through cli.main.  The verdict must come
back false, with the comparison's exit code (1, or 10 for ``conjecture``),
as a JSON document on stdout, and with no traceback.  One ``orbits`` case
runs in a fresh ``python -O`` process, where no assert can stand in for the
verdict.  The caches a fault reaches are cleared before and after each case,
so no faulty result outlives it.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from frobpow import cli, group, groebner, invariants, orbits, qseries

FAMILY = ["--p", "5", "--n", "2", "--m", "1", "--ell", "1", "--e", "4"]


@pytest.fixture(autouse=True)
def fresh_caches():
    caches = (invariants._brute_dims, invariants.basic_invariants)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def no_diagonal(spec):
    """build_group without its diagonal generator, which comes first."""
    gens = group.build_group(spec)
    assert spec.e > 1, "the spec has no diagonal generator to drop"
    return gens[1:]


def bumped(series, d=1):
    """The series with its degree-d coefficient one higher."""
    coeffs = list(series.coeffs)
    coeffs[d] += 1
    return dataclasses.replace(series, coeffs=tuple(coeffs))


def faulted(function, change):
    """function with change applied to its result."""
    return lambda *args, **kwargs: change(function(*args, **kwargs))


def assert_refuted(capsys, argv, code, verdict):
    """Run argv; returns its JSON, once its exit code and false verdict are checked."""
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data[verdict] is False
    assert "Traceback" not in err
    return data


# -- hilbert: brute dims against the closed form -----------------------------

def test_hilbert_brute_side(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "build_group", no_diagonal)
    assert_refuted(capsys, ["hilbert", *FAMILY, "--mode", "both"], 1, "equal")


def test_hilbert_formula_side(monkeypatch, capsys):
    monkeypatch.setattr(qseries, "hilbert_for_spec", faulted(qseries.hilbert_for_spec, bumped))
    assert_refuted(capsys, ["hilbert", *FAMILY, "--mode", "both"], 1, "equal")


# -- decompose: A + B against the brute-force fixed space -------------------

def test_decompose_a_side(monkeypatch, capsys):
    # the first term is the whole expansion of the f-monomial 1
    monkeypatch.setattr(invariants, "_a_terms",
                        faulted(invariants._a_terms, lambda terms: [a[1:] for a in terms]))
    assert_refuted(capsys, ["decompose", *FAMILY], 1, "ok")


def test_decompose_brute_side(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "build_group", no_diagonal)
    assert_refuted(capsys, ["decompose", *FAMILY], 1, "ok")


# -- orbits: enumeration against the closed count and orbit structure -------

def test_orbits_enumeration_side(monkeypatch, capsys):
    monkeypatch.setattr(orbits, "build_group", no_diagonal)
    assert_refuted(capsys, ["orbits", *FAMILY], 1, "match")


def test_orbits_formula_side(monkeypatch, capsys):
    monkeypatch.setattr(orbits, "closed_form_orbit_count",
                        faulted(orbits.closed_form_orbit_count, lambda count: count + 1))
    assert_refuted(capsys, ["orbits", *FAMILY], 1, "match")


def test_orbits_histogram_alone(monkeypatch, capsys):
    # 6 orbits of 25 points, as the closed form counts, but 4 singletons
    # and sizes 2 and 19 where the group of order 20 gives 5 and 20
    monkeypatch.setattr(orbits, "_enumerate_orbits",
                        lambda *args: ((1, 4), (2, 1), (19, 1)))
    assert_refuted(capsys, ["orbits", *FAMILY], 1, "match")


ORBITS_UNFIXED = """
import sys
from frobpow import cli, group, orbits
orbits.build_group = lambda spec: group.build_group(spec)[1:]
sys.exit(cli.main(sys.argv[1:]))
"""


def test_orbits_verdict_stands_without_asserts():
    proc = subprocess.run([sys.executable, "-O", "-c", ORBITS_UNFIXED, "orbits", *FAMILY],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["match"] is False
    assert "Traceback" not in proc.stderr


# -- gbcheck: S-pair certificates, membership and completion ----------------

GB = ["gbcheck", "--p", "3", "--n", "2", "--m", "2"]


def test_gbcheck_h_generator_coefficient(monkeypatch, capsys):
    # a wrong coefficient in the closed form of h_{1,1}, expanded as
    # h_generators expands it: its x-polynomial leaves the Frobenius ideal
    def doctor(hg):
        h0, (name, f_poly, _), h2 = hg.generators
        f_poly = f_poly + f_poly.ring.monomial(max(f_poly.terms))
        x_poly = invariants.expand_f(f_poly, invariants.basic_invariants(hg.spec))
        return dataclasses.replace(hg, generators=(h0, (name, f_poly, x_poly), h2))

    monkeypatch.setattr(cli, "h_generators", faulted(cli.h_generators, doctor))
    data = assert_refuted(capsys, GB, 1, "ok")
    assert {"pair": None, "remainder": "membership failure"} in data["certificates"]


def test_gbcheck_spair_side(monkeypatch, capsys):
    # h_0 gains the tail f_1 in f-coordinates only, so membership still holds
    # and only the S-pair reductions can see it
    def doctor(hg):
        (name, f_poly, x_poly), *rest = hg.generators
        return dataclasses.replace(
            hg, generators=((name, f_poly + f_poly.ring.variable(0), x_poly), *rest))

    monkeypatch.setattr(cli, "h_generators", faulted(cli.h_generators, doctor))
    data = assert_refuted(capsys, GB, 1, "ok")
    assert all(c["pair"] for c in data["certificates"])
    assert any(c["remainder"] != "0" for c in data["certificates"])


def test_gbcheck_completion_side(monkeypatch, capsys):
    # the completion reports f_1 itself, whose lead no h-generator's divides
    def doctor(basis):
        return basis + [basis[0].ring.variable(0)]

    monkeypatch.setattr(groebner, "_complete_basis", faulted(groebner._complete_basis, doctor))
    data = assert_refuted(capsys, [*GB, "--from-scratch"], 1, "ok")
    assert data["certificates"][-1] == {"pair": None, "remainder": "new leading monomial f^(1, 0)"}


GBCHECK_SKIP = """\
{
  "command": "gbcheck",
  "m": 1,
  "skipped": "h-generators need ell = n - 1 or the full stabilizer",
  "spec": {
    "e": 2,
    "ell": 0,
    "full_stabilizer": false,
    "n": 2,
    "p": 3,
    "r": 1
  },
  "status": "skip"
}
"""


def sweep_gbcheck(path, grid):
    """The exit code of a one-worker gbcheck sweep of grid run in the new
    directory path, and its job files' texts."""
    path.mkdir()
    out = path / "out"
    manifest = path / "manifest.json"
    manifest.write_text(json.dumps({"grid": grid, "commands": ["gbcheck"],
                                    "output_dir": str(out)}))
    code = cli.main(["sweep", "--manifest", str(manifest), "--jobs", "1"])
    return code, [path.read_text() for path in sorted(out.glob("*.json"))]


def test_sweep_gbcheck_error_is_not_a_skip(monkeypatch, tmp_path, capsys):
    # an error inside an in-range job stops the sweep as it stops the single
    # command; only ell < n - 1 is a skip, and that is read off the spec
    def lost_lead(*args, **kwargs):
        raise ValueError("LM of zero")

    monkeypatch.setattr(groebner, "divide", lost_lead)
    assert cli.main(["gbcheck", "--p", "3", "--n", "2", "--m", "1"]) == 2
    assert capsys.readouterr().err == "LM of zero\n"
    code, files = sweep_gbcheck(tmp_path / "in", {"p": [3], "n": [2], "m": [1]})
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "LM of zero\n")
    assert not any('"skip"' in text for text in files)
    code, files = sweep_gbcheck(tmp_path / "out", {"p": [3], "n": [2], "m": [1], "ell": [0]})
    assert (code, files) == (0, [GBCHECK_SKIP])


# -- resolution2d: syzygies and the resolution's series ---------------------

RES = ["resolution2d", "--p", "3", "--m", "2", "--e", "2"]


def test_resolution2d_series_side(monkeypatch, capsys):
    monkeypatch.setattr(groebner, "hilbert_A", faulted(groebner.hilbert_A, bumped))
    assert_refuted(capsys, RES, 1, "ok")


def test_resolution2d_generator_side(monkeypatch, capsys):
    def doctor(hg):
        h0, (name, f_poly, x_poly), *rest = hg.generators
        return dataclasses.replace(hg, generators=(h0, (name, f_poly * 2, x_poly), *rest))

    monkeypatch.setattr(groebner, "h_generators", faulted(groebner.h_generators, doctor))
    assert_refuted(capsys, RES, 1, "ok")


# -- conjecture: the conjectured series against full-GL brute force ---------

CONJ = ["conjecture", "--q", "2", "--n", "2", "--m", "2"]


def test_conjecture_series_side(monkeypatch, capsys):
    monkeypatch.setattr(qseries, "lrs_conjecture", faulted(qseries.lrs_conjecture, bumped))
    assert_refuted(capsys, CONJ, 10, "match")


def test_conjecture_brute_side(monkeypatch, capsys):
    def doctor(basis):
        d = next(d for d, vectors in enumerate(basis) if vectors)
        return basis[:d] + [basis[d][1:]] + basis[d + 1:]

    monkeypatch.setattr(cli, "full_gl_fixed_basis", faulted(cli.full_gl_fixed_basis, doctor))
    assert_refuted(capsys, CONJ, 10, "match")


def test_unfaulted_runs_agree(capsys):
    # the same commands with nothing planted: each control flips a true verdict
    for argv, verdict in ((["hilbert", *FAMILY, "--mode", "both"], "equal"),
                          (["decompose", *FAMILY], "ok"), (["orbits", *FAMILY], "match"),
                          ([*GB, "--from-scratch"], "ok"), (RES, "ok"), (CONJ, "match")):
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)[verdict] is True
