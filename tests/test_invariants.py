"""Invariant generators, brute-force fixed spaces, and the A/B decomposition."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobpow.ff import CapExceeded, factor_prime_power
from frobpow.group import GroupSpec, act, build_group, group_elements
from frobpow.invariants import (
    a_space_dims, b_space_dims, basic_invariants, brute_force_hilbert,
    check_exponent_bound, full_gl_fixed_basis, h_generators,
    verify_decomposition, _degree_buckets)
from frobpow.poly import PolyRing, poly_str, reduce_mod_frobenius

ARCHETYPE = GroupSpec(p=5, n=3, ell=2, e=4)

SMALL_SPECS = [
    GroupSpec(p=2, n=2, ell=1, e=1),
    GroupSpec(p=3, n=2, ell=1, e=1),
    GroupSpec(p=3, n=2, ell=1, e=2),
    GroupSpec(p=3, n=2, ell=0, e=2),
    GroupSpec(p=2, n=3, ell=2, e=1),
    GroupSpec(p=3, n=3, ell=2, e=2),
    GroupSpec(p=5, n=2, ell=1, e=4),
    GroupSpec(p=5, n=3, ell=1, e=2),
    ARCHETYPE,
    GroupSpec(p=2, r=1, n=2, full_stabilizer=True),
    GroupSpec(p=2, r=2, n=2, full_stabilizer=True),
    GroupSpec(p=3, r=1, n=2, full_stabilizer=True),
    GroupSpec(p=2, r=1, n=3, full_stabilizer=True),
]


def expected_total(spec, m):
    # fixed-space count: p^{m(n-1)} + p^{m(n-1)-ell}(p^m-1)/e, with the
    # stabilizer case specializing to q^{m(n-1)} + q^{(m-1)(n-1)}(q^m-1)/(q-1)
    if spec.full_stabilizer:
        q, n = spec.q, spec.n
        return q ** (m * (n - 1)) + q ** ((m - 1) * (n - 1)) * (q ** m - 1) // (q - 1)
    p, n = spec.p, spec.n
    return p ** (m * (n - 1)) + p ** (m * (n - 1) - spec.ell) * (p ** m - 1) // spec.e


class TestBasicInvariants:
    def test_archetype_forms(self):
        b = basic_invariants(ARCHETYPE)
        assert [poly_str(f) for f in b.polys] == [
            "1*x1^5 + 4*x1*x3^4",
            "1*x2^5 + 4*x2*x3^4",
            "1*x3^4",
        ]
        assert b.weights == (5, 5, 4)

    def test_trivial_group_gives_variables(self):
        spec = GroupSpec(p=3, n=3, ell=0, e=1)
        b = basic_invariants(spec)
        ring = b.ring
        assert list(b.polys) == [ring.variable(i) for i in range(3)]
        assert b.weights == (1, 1, 1)

    def test_full_stabilizer_q4(self):
        spec = GroupSpec(p=2, r=2, n=2, full_stabilizer=True)
        b = basic_invariants(spec)
        ring = b.ring
        x1, x2 = ring.variable(0), ring.variable(1)
        assert b.polys[0] == x1 ** 4 - x1 * x2 ** 3
        assert b.polys[1] == x2 ** 3
        assert b.weights == (4, 3)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_fixed_by_every_group_element(self, spec):
        b = basic_invariants(spec)
        for g in group_elements(spec):
            for f in b.polys:
                assert act(g, f) == f

    def test_middle_variables(self):
        spec = GroupSpec(p=5, n=3, ell=1, e=2)
        b = basic_invariants(spec)
        assert poly_str(b.polys[1]) == "1*x2"
        assert b.weights == (5, 1, 2)


class TestHGenerators:
    def test_archetype_m1_list(self):
        h = h_generators(ARCHETYPE, 1)
        names = [name for name, _, _ in h.as_list()]
        assert names == ["h_0", "h_{1,1}", "h_{1,2}",
                         "h_{2,1,1}", "h_{2,1,2}", "h_{2,2,2}"]
        got = {name: (poly_str(ff), poly_str(xx)) for name, ff, xx in h.as_list()}
        assert got["h_0"] == ("1*f3^2", "1*x3^8")
        assert got["h_{1,1}"] == ("1*f1*f3", "1*x1^5*x3^4 + 4*x1*x3^8")
        assert got["h_{2,1,2}"] == (
            "1*f1*f2",
            "1*x1^5*x2^5 + 4*x1^5*x2*x3^4 + 4*x1*x2^5*x3^4 + 1*x1*x2*x3^8")

    def test_archetype_m2_closed_forms(self):
        h = h_generators(ARCHETYPE, 2)
        ring = basic_invariants(ARCHETYPE).ring
        x1, x3 = ring.variable(0), ring.variable(2)
        assert h.h0[1] == x3 ** (25 + 3)
        a1 = h.h1[0]
        assert a1[2] == x1 ** 25 * x3 ** 4 - x1 * x3 ** 28

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=2, n=2, ell=1, e=1), 3),
        (GroupSpec(p=3, n=2, ell=1, e=2), 2),
        (ARCHETYPE, 2),
        (GroupSpec(p=2, n=3, ell=2, e=1), 2),
        (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 2),
        (GroupSpec(p=3, r=1, n=3, full_stabilizer=True), 1),
    ], ids=str)
    def test_membership_and_invariance(self, spec, m):
        # construction asserts the closed x-forms and reduction to zero;
        # on top of that every expansion must be fixed by the group action
        h = h_generators(spec, m)
        Q = spec.q ** m
        for xpoly in h.x_polys():
            assert reduce_mod_frobenius(xpoly, Q) == xpoly.ring.zero()
        for g in build_group(spec):
            for xpoly in h.x_polys():
                assert act(g, xpoly) == xpoly

    def test_rejects_partial_rootspace(self):
        with pytest.raises(ValueError, match="ell = n - 1 or the full stabilizer"):
            h_generators(GroupSpec(p=5, n=3, ell=1, e=2), 1)
        with pytest.raises(ValueError, match="at least 1"):
            h_generators(ARCHETYPE, 0)

    def test_full_stabilizer_uses_q(self):
        spec = GroupSpec(p=2, r=2, n=2, full_stabilizer=True)
        h = h_generators(spec, 1)
        ring = basic_invariants(spec).ring
        x1, x2 = ring.variable(0), ring.variable(1)
        assert h.h0[1] == x2 ** (4 + 2)
        assert h.h1[0][2] == x1 ** 4 * x2 ** 3 - x1 * x2 ** 6
        assert h.h2[0][3] == x1 ** 8 - 2 * x1 ** 4 * x2 ** 3 + x1 ** 2 * x2 ** 6


class TestBruteForce:
    def test_smallest_modular_case(self):
        # hand nullspace on the 4-dimensional quotient
        hf = brute_force_hilbert(GroupSpec(p=2, n=2, ell=1, e=1), 1)
        assert hf.dims == (1, 1, 1)
        assert hf.total == 3

    def test_trivial_group_gets_whole_quotient(self):
        spec = GroupSpec(p=3, n=2, ell=0, e=1)
        hf = brute_force_hilbert(spec, 1)
        assert hf.dims == (1, 2, 3, 2, 1)
        assert hf.total == 9

    def test_archetype_m1(self):
        assert brute_force_hilbert(GroupSpec(p=5, n=3, ell=2, e=1), 1).total == 29
        assert brute_force_hilbert(ARCHETYPE, 1).total == 26

    def test_stabilizer_q4(self):
        hf = brute_force_hilbert(GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 1)
        assert hf.dims == (1, 0, 0, 1, 1, 1, 1)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    @pytest.mark.parametrize("m", [1, 2])
    def test_totals_match_counting_formula(self, spec, m):
        if (spec.q ** m) ** spec.n > 200_000:
            pytest.skip("above the desk-scale budget for the doubled grid")
        assert brute_force_hilbert(spec, m).total == expected_total(spec, m)

    def test_degree_support(self):
        spec = GroupSpec(p=3, n=2, ell=1, e=2)
        hf = brute_force_hilbert(spec, 2)
        assert len(hf.dims) == 2 * (9 - 1) + 1
        assert all(d >= 0 for d in hf.dims)
        assert hf[len(hf.dims) + 5] == 0

    def test_cap(self):
        with pytest.raises(CapExceeded, match="above the cap"):
            brute_force_hilbert(GroupSpec(p=5, n=3, ell=2, e=1), 3, max_monomials=100)
        with pytest.raises(ValueError, match="at least 1"):
            brute_force_hilbert(ARCHETYPE, 0)

    def test_fixed_by_nongenerators(self):
        # dims computed from generators agree with a full-group stack: check
        # by acting with random elements on a reconstructed basis vector count
        spec = GroupSpec(p=3, n=2, ell=1, e=2)
        hf = brute_force_hilbert(spec, 1)
        assert hf.total == expected_total(spec, 1)


class TestDecomposition:
    def test_a_deg0_is_constants(self):
        for spec in (ARCHETYPE, GroupSpec(p=2, n=2, ell=1, e=1)):
            assert a_space_dims(spec, 1)[0] == 1
            assert b_space_dims(spec, 1)[0] == 0

    def test_b_empty_for_p2_n2(self):
        assert b_space_dims(GroupSpec(p=2, n=2, ell=1, e=1), 1).total == 0
        assert b_space_dims(GroupSpec(p=2, n=2, ell=1, e=1), 2).total == 0

    def test_b_p3_n2_single_class(self):
        hf = b_space_dims(GroupSpec(p=3, n=2, ell=1, e=1), 1)
        assert hf.dims == (0, 0, 0, 0, 1)

    def test_smallest_case_split(self):
        rep = verify_decomposition(GroupSpec(p=2, n=2, ell=1, e=1), 1)
        assert rep.ok
        assert [r[1] for r in rep.rows] == [1, 1, 1]
        assert [r[2] for r in rep.rows] == [0, 0, 0]

    def test_trivial_group_is_all_a(self):
        spec = GroupSpec(p=2, n=2, ell=0, e=1)
        rep = verify_decomposition(spec, 2)
        assert rep.ok
        assert all(r[2] == 0 for r in rep.rows)
        assert sum(r[1] for r in rep.rows) == 16

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=2, n=2, ell=1, e=1), 3),
        (GroupSpec(p=3, n=2, ell=1, e=1), 2),
        (GroupSpec(p=3, n=2, ell=1, e=2), 2),
        (GroupSpec(p=3, n=2, ell=0, e=2), 1),
        (GroupSpec(p=2, n=3, ell=2, e=1), 2),
        (GroupSpec(p=3, n=3, ell=2, e=2), 1),
        (GroupSpec(p=5, n=2, ell=1, e=4), 2),
        (GroupSpec(p=5, n=3, ell=1, e=2), 1),
        (ARCHETYPE, 1),
        (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 1),
        (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 2),
        (GroupSpec(p=3, r=1, n=2, full_stabilizer=True), 2),
        (GroupSpec(p=2, r=1, n=3, full_stabilizer=True), 2),
    ], ids=str)
    def test_sum_and_directness(self, spec, m):
        rep = verify_decomposition(spec, m)
        assert rep.ok, rep.mismatches
        for d, a, b, tot, brute in rep.rows:
            assert a + b == tot == brute

    def test_archetype_a_series(self):
        rep = verify_decomposition(ARCHETYPE, 1)
        assert rep.ok
        assert [r[1] for r in rep.rows][:9] == [1, 0, 0, 0, 1, 2, 0, 0, 0]
        assert sum(r[1] for r in rep.rows) == 4
        assert sum(r[2] for r in rep.rows) == 22

    def test_json_shape(self):
        rep = verify_decomposition(GroupSpec(p=2, n=2, ell=1, e=1), 1)
        js = rep.to_json()
        assert js["rows"][0] == [0, 1, 0, 1, 1]
        assert len(js["rows"]) == 3
        assert js["ok"] is True and js["m"] == 1

    def test_b_membership_in_fixed_space(self):
        # every spanning element of the complement module is itself invariant
        spec = GroupSpec(p=3, n=2, ell=1, e=2)
        m, Q = 2, 9
        from frobpow.invariants import _b_vectors
        ring = PolyRing(spec.field, spec.n)
        gens = build_group(spec)
        seen = 0
        for vecs in _b_vectors(spec, m, 10 ** 6):
            for vec in vecs:
                poly = ring.zero()
                for mono, c in vec.items():
                    poly = poly + ring.monomial(mono, c)
                for g in gens:
                    assert reduce_mod_frobenius(act(g, poly), Q) == poly
                seen += 1
        assert seen > 0


class TestExponentBound:
    @pytest.mark.parametrize("q,n,m", [(2, 2, 1), (2, 2, 2), (3, 2, 1),
                                       (2, 2, 3), (3, 2, 2), (2, 3, 1), (4, 2, 1)])
    def test_dichotomy(self, q, n, m):
        basis = full_gl_fixed_basis(q, n, m)
        rep = check_exponent_bound(q, n, m, basis)
        assert rep.ok
        assert rep.top_dim == 1

    def test_q2_top_degree_invariant(self):
        basis = full_gl_fixed_basis(2, 2, 1)
        assert [len(v) for v in basis] == [1, 0, 1]
        assert list(basis[2][0]) == [(1, 1)]

    def test_q3_only_constants_below_top(self):
        basis = full_gl_fixed_basis(3, 2, 1)
        assert [len(v) for v in basis] == [1, 0, 0, 0, 1]
        assert list(basis[4][0]) == [(2, 2)]

    def test_violation_detection(self):
        # a forged basis vector with a large exponent must be flagged
        basis = [[{(0, 0): None}], [], [{(2, 0): None}]]
        rep = check_exponent_bound(2, 2, 1, basis)
        assert not rep.ok
        assert rep.violations == ((2, (2, 0)),)


class TestRewriting:
    @given(st.integers(0, 3), st.integers(0, 8), st.integers(0, 2))
    @settings(max_examples=40)
    def test_multiplication_collapses_to_pure_power(self, a1, an, b1):
        # f_i * x^a * x_n^{Q-1} keeps only the x_i^p branch mod the ideal
        spec = GroupSpec(p=3, n=2, ell=1, e=1)
        m = 2
        Q = 9
        ring = PolyRing(spec.field, spec.n)
        f1 = basic_invariants(spec).polys[0]
        mono = ring.monomial((a1, Q - 1), spec.field.one())
        lhs = reduce_mod_frobenius(f1 * mono, Q)
        rhs = reduce_mod_frobenius(ring.variable(0) ** 3 * mono, Q)
        assert lhs == rhs

    def test_prime_power_helper(self):
        assert factor_prime_power(2) == (2, 1)
        assert factor_prime_power(9) == (3, 2)
        assert factor_prime_power(64) == (2, 6)
        assert factor_prime_power(343) == (7, 3)
        for bad in (0, 1, 6, 12, 100):
            with pytest.raises(ValueError, match="not a prime power"):
                factor_prime_power(bad)

    def test_degree_buckets_partition(self):
        buckets = _degree_buckets(2, 3)
        assert sum(len(b) for b in buckets) == 9
        assert buckets[0] == ((0, 0),)
        assert set(buckets[2]) == {(2, 0), (1, 1), (0, 2)}
