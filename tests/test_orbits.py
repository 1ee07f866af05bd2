"""Orbit enumeration against closed-form counts, fixed-space dimensions and
a breadth-first search over field elements."""

import itertools
import tracemalloc
from collections import Counter

import pytest

from frobpow import ff, orbits
from frobpow.ff import CapExceeded, MatrixFq, embed, factor_prime_power, make_field
from frobpow.group import GroupSpec, build_group, full_gl_generators
from frobpow.invariants import brute_force_hilbert, full_gl_fixed_basis
from frobpow.orbits import (
    OrbitReport, closed_form_orbit_count, count_orbits_custom, count_orbits_enum)
from frobpow.qseries import hilbert_for_spec

ARCHETYPE = GroupSpec(p=5, n=3, ell=2, e=4)

SMALL_SPECS = [
    GroupSpec(p=2, n=2, ell=1, e=1),
    GroupSpec(p=3, n=2, ell=1, e=2),
    GroupSpec(p=3, n=2, ell=0, e=2),
    GroupSpec(p=2, n=3, ell=2, e=1),
    GroupSpec(p=3, n=3, ell=2, e=2),
    GroupSpec(p=5, n=2, ell=1, e=4),
    ARCHETYPE,
    GroupSpec(p=2, r=2, n=2, ell=0, e=3),
    GroupSpec(p=2, r=1, n=2, full_stabilizer=True),
    GroupSpec(p=2, r=2, n=2, full_stabilizer=True),
    GroupSpec(p=3, r=1, n=2, full_stabilizer=True),
    GroupSpec(p=2, r=1, n=3, full_stabilizer=True),
]


# the companion matrix of x^4 + x + 1 over GF(2): a Singer cycle of order 15
SINGER = MatrixFq.from_rows(make_field(2), [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0],
                                            [0, 0, 1, 0]])


def _bfs_histogram(mats, m):
    """Orbit-size histogram by breadth-first search over field elements.

    The matrices are embedded entry by entry into GF(q^m) and applied with
    MatrixFq.apply; no code arithmetic is involved.
    """
    base, n = mats[0].field, mats[0].rows
    big = make_field(base.p, base.r * m)
    moves = [MatrixFq(big, n, n, tuple(embed(base, big, x) for x in mat.entries))
             for mat in mats]
    seen, sizes = set(), Counter()
    for start in itertools.product(list(big.elements()), repeat=n):
        if start in seen:
            continue
        seen.add(start)
        frontier, size = [start], 0
        while frontier:
            size += len(frontier)
            reached = []
            for point in frontier:
                for move in moves:
                    image = move.apply(point)
                    if image not in seen:
                        seen.add(image)
                        reached.append(image)
            frontier = reached
        sizes[size] += 1
    return tuple(sorted(sizes.items()))


class TestClosedForm:
    def test_archetype(self):
        # 5^2 singleton classes on the hyperplane plus one free orbit
        assert closed_form_orbit_count(ARCHETYPE, 1) == 26

    def test_smallest_stabilizer(self):
        spec = GroupSpec(p=2, n=2, full_stabilizer=True)
        assert closed_form_orbit_count(spec, 1) == 3

    def test_trivial_group(self):
        spec = GroupSpec(p=3, n=2, ell=0, e=1)
        assert closed_form_orbit_count(spec, 2) == 3**4

    def test_stabilizer_matches_q_version(self):
        # q^{m(n-1)} + q^{(m-1)(n-1)}(q^m - 1)/(q - 1)
        for spec in SMALL_SPECS:
            if not spec.full_stabilizer:
                continue
            q, n = spec.q, spec.n
            for m in (1, 2, 3):
                want = q ** (m * (n - 1)) + q ** ((m - 1) * (n - 1)) * (
                    q**m - 1
                ) // (q - 1)
                assert closed_form_orbit_count(spec, m) == want

    def test_family_matches_p_version(self):
        for spec in SMALL_SPECS:
            if spec.full_stabilizer or spec.r != 1:
                continue
            p, n = spec.p, spec.n
            for m in (1, 2, 3):
                want = p ** (m * (n - 1)) + p ** (
                    m * (n - 1) - spec.ell
                ) * (p**m - 1) // spec.e
                assert closed_form_orbit_count(spec, m) == want

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError, match="at least 1"):
            closed_form_orbit_count(ARCHETYPE, 0)


class TestEnumeration:
    def test_smallest_stabilizer(self):
        # four points: (0,0) and (1,0) on the hyperplane, the rest one orbit
        report = count_orbits_enum(GroupSpec(p=2, n=2, full_stabilizer=True), 1)
        assert report.total_points == 4
        assert report.orbit_count == 3
        assert report.histogram == ((1, 2), (2, 1))
        assert report.match is True

    def test_archetype(self):
        report = count_orbits_enum(ARCHETYPE, 1)
        assert report.orbit_count == 26
        assert report.histogram == ((1, 25), (100, 1))
        assert report.formula_value == 26

    def test_trivial_group_all_singletons(self):
        report = count_orbits_enum(GroupSpec(p=3, n=2, ell=0, e=1), 2)
        assert report.orbit_count == 81
        assert report.histogram == ((1, 81),)

    def test_quartic_stabilizer_total(self):
        report = count_orbits_enum(
            GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 1)
        assert report.orbit_count == 5
        assert report.histogram == ((1, 4), (12, 1))

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_formula(self, spec, m):
        if spec.q ** (m * spec.n) > 200_000:
            pytest.skip("point set beyond the desk-scale budget")
        report = count_orbits_enum(spec, m)
        assert report.match is True
        assert report.orbit_count == closed_form_orbit_count(spec, m)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    @pytest.mark.parametrize("m", [1, 2])
    def test_orbit_count_is_fixed_space_dimension(self, spec, m):
        # orbits of points and the dimension of the fixed quotient agree
        if spec.q ** (m * spec.n) > 200_000:
            pytest.skip("point set beyond the desk-scale budget")
        report = count_orbits_enum(spec, m)
        assert report.orbit_count == brute_force_hilbert(spec, m).total

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_orbit_count_is_series_total(self, spec):
        series = hilbert_for_spec(spec, 2)
        if series is None:
            pytest.skip("no closed series for this spec")
        assert count_orbits_enum(spec, 2).orbit_count == series.total

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_histogram_structure(self, spec):
        report = count_orbits_enum(spec, 1)
        hist = dict(report.histogram)
        fixed = spec.q ** (spec.n - 1)
        if spec.group_order == 1:
            assert hist == {1: report.total_points}
            return
        assert hist[1] == fixed
        moving = [s for s in hist if s != 1]
        assert moving == [spec.group_order]
        assert hist[moving[0]] * moving[0] == report.total_points - fixed

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded, match="above the cap of 100"):
            count_orbits_enum(ARCHETYPE, 1, max_points=100)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError, match="at least 1"):
            count_orbits_enum(ARCHETYPE, 0)

    def test_report_json(self):
        report = count_orbits_enum(GroupSpec(p=2, n=2, full_stabilizer=True), 1)
        data = report.to_json()
        assert data["spec"]["full_stabilizer"] is True
        assert data["m"] == 1
        assert data["total_points"] == 4
        assert data["orbit_count"] == 3
        assert data["histogram"] == [[1, 2], [2, 1]]
        assert data["formula_value"] == 3
        assert data["match"] is True

    def test_report_rejects_short_histogram(self):
        with pytest.raises(AssertionError, match="every point"):
            OrbitReport(
                spec=None, m=1, total_points=4, orbit_count=2,
                histogram=((1, 2),), formula_value=None, match=None)

    def test_report_rejects_wrong_orbit_count(self):
        with pytest.raises(AssertionError, match="every orbit"):
            OrbitReport(
                spec=None, m=1, total_points=4, orbit_count=3,
                histogram=((1, 4),), formula_value=None, match=None)


class TestCustom:
    def test_full_gl2_over_f2(self):
        # zero is fixed, the three nonzero points form one orbit
        gens = full_gl_generators(make_field(2), 2)
        report = count_orbits_custom(gens, 1)
        assert report.orbit_count == 2
        assert report.histogram == ((1, 1), (3, 1))
        assert report.formula_value is None
        assert report.match is None

    @pytest.mark.parametrize("q,n,m", [
        (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (2, 1, 1), (3, 1, 2),
    ])
    def test_full_gl_count_is_fixed_dimension(self, q, n, m):
        p, r = factor_prime_power(q)
        gens = full_gl_generators(make_field(p, r), n)
        if not gens:
            pytest.skip("no generators for this general linear group")
        report = count_orbits_custom(gens, m)
        basis = full_gl_fixed_basis(q, n, m)
        assert report.orbit_count == sum(len(b) for b in basis)

    @pytest.mark.parametrize("spec", SMALL_SPECS[:6], ids=str)
    def test_agrees_with_spec_enumeration(self, spec):
        report = count_orbits_custom(build_group(spec), 1)
        assert report.orbit_count == count_orbits_enum(spec, 1).orbit_count
        assert report.histogram == count_orbits_enum(spec, 1).histogram

    def test_identity_only(self):
        from frobpow.ff import MatrixFq
        mat = MatrixFq.identity(make_field(3), 2)
        report = count_orbits_custom([mat], 1)
        assert report.histogram == ((1, 9),)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one generator"):
            count_orbits_custom([], 1)

    def test_rejects_mixed_fields(self):
        from frobpow.ff import MatrixFq
        mats = [MatrixFq.identity(make_field(2), 2),
                MatrixFq.identity(make_field(3), 2)]
        with pytest.raises(ValueError, match="one field"):
            count_orbits_custom(mats, 1)

    def test_rejects_bad_exponent(self):
        gens = full_gl_generators(make_field(2), 2)
        with pytest.raises(ValueError, match="at least 1"):
            count_orbits_custom(gens, 0)

    def test_cap_exceeded(self):
        gens = full_gl_generators(make_field(3), 2)
        with pytest.raises(CapExceeded, match="needs 81 points"):
            count_orbits_custom(gens, 2, max_points=80)


class TestAgainstSearch:
    @pytest.mark.parametrize("spec,m", [(spec, m) for spec in SMALL_SPECS for m in (1, 2)
                                        if spec.q ** (m * spec.n) <= 5000], ids=str)
    def test_spec_groups(self, spec, m):
        mats = build_group(spec)
        assert count_orbits_custom(mats, m).histogram == _bfs_histogram(mats, m)

    @pytest.mark.parametrize("q,n,m", [(2, 2, 2), (3, 2, 1), (2, 3, 1)])
    def test_full_gl(self, q, n, m):
        mats = full_gl_generators(make_field(*factor_prime_power(q)), n)
        assert count_orbits_custom(mats, m).histogram == _bfs_histogram(mats, m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_singer_cycle(self, m):
        # orbits of length 15 and its divisors: labels travel far along one cycle
        report = count_orbits_custom([SINGER], m)
        assert report.histogram == _bfs_histogram([SINGER], m)
        if m == 1:
            assert report.histogram == ((1, 1), (15, 1))


class TestBudget:
    def _charges(self, monkeypatch):
        charged = []
        check = orbits.check_budget

        def record(nbytes, what):
            charged.append(nbytes)
            check(nbytes, what)

        monkeypatch.setattr(orbits, "check_budget", record)
        return charged

    def test_points_are_charged_before_they_exist(self, monkeypatch):
        charged = self._charges(monkeypatch)
        count_orbits_enum(ARCHETYPE, 1)
        monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", charged[-1] - 1)

        def no_images(*args):
            raise AssertionError("allocated before the budget was checked")

        monkeypatch.setattr(orbits, "_generator_images", no_images)
        with pytest.raises(CapExceeded, match="enumerating the orbits of 125 points needs"):
            count_orbits_enum(ARCHETYPE, 1)

    @pytest.mark.parametrize("spec,m", [
        (ARCHETYPE, 2), (GroupSpec(p=2, r=2, n=3, full_stabilizer=True), 2),
        (GroupSpec(p=3, n=2, ell=0, e=1), 4), (GroupSpec(p=2, n=2, ell=1, e=1), 6),
    ], ids=str)
    def test_enumeration_peak_within_the_charge(self, spec, m, monkeypatch):
        count_orbits_enum(spec, m)  # fill the caches: fields, tables, groups
        charged = self._charges(monkeypatch)
        tracemalloc.start()
        try:
            count_orbits_enum(spec, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(charged)
