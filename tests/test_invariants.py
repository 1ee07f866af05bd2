"""Invariant generators, brute-force fixed spaces, and the A/B decomposition."""

import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobpow import ff, invariants
from frobpow.ff import CapExceeded, MatrixFq, binom_mod_p, factor_prime_power, make_field
from frobpow.group import (
    GroupSpec, act, build_group, full_gl_generators, group_elements)
from frobpow.invariants import (
    a_space_dims, b_space_dims, basic_invariants, brute_force_hilbert,
    check_exponent_bound, expand_f, full_gl_fixed_basis, h_generators,
    verify_decomposition, _a_terms, _b_mask, _binomial_pairs, _codes,
    _fixed_by_diagonals, _monomial_table, _split_generators, _transvection_terms)
from frobpow.poly import PolyRing, monomial_images, poly_str, reduce_mod_frobenius

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

    def test_checks_generators_without_inverting_them(self, monkeypatch):
        # substitution is a right action, so f o g = f is the whole check
        def refuse(self):
            raise AssertionError("basic_invariants inverted a generator")

        monkeypatch.setattr(MatrixFq, "inverse", refuse)
        basic_invariants.cache_clear()
        for spec in SMALL_SPECS + [ARCHETYPE, GroupSpec(p=2, r=2, n=2, full_stabilizer=True)]:
            assert len(basic_invariants(spec).polys) == spec.n


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

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=5, n=3, ell=2, e=4), 1),
        (GroupSpec(p=5, n=3, ell=2, e=2), 1),
        (GroupSpec(p=5, n=2, ell=1, e=4), 2),
        (GroupSpec(p=2, r=2, n=3, full_stabilizer=True), 1),
        (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 2),
        (GroupSpec(p=2, r=3, n=2, full_stabilizer=True), 2),
        (GroupSpec(p=3, r=2, n=2, full_stabilizer=True), 1),
    ], ids=str)
    def test_a_vectors_match_polynomial_expansion(self, spec, m):
        # reference: expand each f-monomial with the polynomial layer, reduce
        # it mod the Frobenius power and encode its coefficients
        Q = spec.q ** m
        basics = basic_invariants(spec)
        fring = basics.f_ring()
        D = spec.n * (Q - 1)
        expected = [[] for _ in range(D + 1)]
        for bvec in itertools.product(*(range(D // w + 1) for w in basics.weights)):
            degree = sum(w * b for w, b in zip(basics.weights, bvec))
            if degree > D:
                continue
            poly = reduce_mod_frobenius(expand_f(fring.monomial(bvec), basics), Q)
            if poly.terms:
                expected[degree].append(
                    {mono: spec.field.encode(c) for mono, c in poly.terms.items()})
        vector, exps, codes = _a_terms(spec, Q)
        assert np.all(codes > 0) and np.all(codes < spec.p)
        got = [[] for _ in range(D + 1)]
        for v in np.unique(vector):
            terms = vector == v
            vec = dict(zip(map(tuple, exps[terms].tolist()), codes[terms].tolist()))
            assert len(vec) == np.count_nonzero(terms)  # distinct picks, distinct monomials
            assert len({sum(mono) for mono in vec}) == 1
            got[sum(next(iter(vec)))].append(vec)

        def multiset(vecs):
            return sorted(sorted(vec.items()) for vec in vecs)

        assert [multiset(vecs) for vecs in got] == [multiset(vecs) for vecs in expected]

    def test_stack_cap_fires_before_any_elimination(self, monkeypatch):
        def no_elimination(self):
            raise AssertionError("eliminated before the entries were charged")

        # every A term is entered once, and every monomial has two columns:
        # its own and, should it lie in B, the one past all the others
        spec, m = GroupSpec(p=3, n=2, ell=1, e=1), 2
        _, _, codes = _a_terms(spec, 9)
        nnz = len(codes)
        monkeypatch.setattr(ff.CodeEntries, "_eliminate", no_elimination)
        monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", (nnz + 2 * 81) * ff._ENTRY_BYTES - 1)
        with pytest.raises(CapExceeded, match=f"eliminating a matrix of {nnz} entries"):
            verify_decomposition(spec, m)

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=2, n=3, ell=0, e=1), 2),
        (GroupSpec(p=3, n=2, ell=1, e=2), 2),
        (GroupSpec(p=3, n=3, ell=2, e=2), 2),
        (GroupSpec(p=5, n=3, ell=1, e=2), 1),
        (ARCHETYPE, 1),
        (GroupSpec(p=2, r=1, n=3, full_stabilizer=True), 2),
        (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 2),
        (GroupSpec(p=2, r=3, n=2, full_stabilizer=True), 2),
        (GroupSpec(p=3, r=2, n=2, full_stabilizer=True), 1),
    ], ids=str)
    def test_ab_ranks_match_the_stacked_blocks(self, spec, m):
        # reference: per degree, the dense A rows from the expansion, one
        # unit row per B monomial and the two stacked, each ranked alone
        Q = spec.q ** m
        vector, exps, codes = _a_terms(spec, Q)
        table = _monomial_table(spec.n, Q)
        degree = table.sum(axis=1)
        b_codes = np.flatnonzero(_b_mask(table, spec, Q))
        a_codes = _codes(exps, Q)
        expected = []
        for d in range(spec.n * (Q - 1) + 1):
            column = {c: i for i, c in enumerate(np.flatnonzero(degree == d).tolist())}
            terms = np.flatnonzero(degree[a_codes] == d)
            rows = {v: i for i, v in enumerate(np.unique(vector[terms]).tolist())}
            a = np.zeros((len(rows), len(column)), dtype=np.int64)
            for t in terms.tolist():
                a[rows[int(vector[t])], column[int(a_codes[t])]] = codes[t]
            b = np.eye(len(column), dtype=np.int64)[
                [column[c] for c in b_codes[degree[b_codes] == d].tolist()]]
            expected.append(tuple(ff.rank_codes(block, spec.field)
                                  for block in (a, b, np.vstack((a, b)))))
        assert invariants._ab_ranks(spec, m, 10 ** 6) == expected
        assert any(b for _, b, _ in expected) == (spec.ell > 0)

    def test_b_membership_in_fixed_space(self):
        # the B mask picks the spanning elements of the complement module,
        # x^a (a_i < q, sum a >= 2) x_n^(Q-1) times pure powers of
        # f_1..f_(n-1), each once; every one of them is itself invariant
        for spec, m, members in [(GroupSpec(p=3, n=2, ell=1, e=2), 2, True),
                                 (GroupSpec(p=3, n=3, ell=1, e=2), 2, False),
                                 (GroupSpec(p=3, n=3, ell=2, e=2), 2, False),
                                 (GroupSpec(p=2, r=2, n=3, full_stabilizer=True), 2, False)]:
            n, ell, Q = spec.n, spec.ell, spec.q ** m
            weights = basic_invariants(spec).weights[:n - 1]
            expected = []
            for head in itertools.product(range(spec.q), repeat=ell):
                if sum(head) < 2:
                    continue
                pad = head + (0,) * (n - 1 - ell)
                for bvec in itertools.product(*(range((Q - 1 - a) // w + 1)
                                                for w, a in zip(weights, pad))):
                    expected.append(tuple(w * b + a for w, b, a in zip(weights, bvec, pad))
                                    + (Q - 1,))
            exps = _monomial_table(n, Q)
            got = [tuple(mono) for mono in exps[_b_mask(exps, spec, Q)].tolist()]
            assert got and sorted(got) == sorted(expected)
            if not members:
                continue
            ring = PolyRing(spec.field, n)
            gens = build_group(spec)
            for mono in got:
                poly = ring.monomial(mono)
                for g in gens:
                    assert reduce_mod_frobenius(act(g, poly), Q) == poly

    def test_expansion_is_charged_before_it_allocates(self, monkeypatch):
        def no_picks(starts, counts):
            raise AssertionError("expanded before the terms were charged")

        spec, m = GroupSpec(p=3, n=2, ell=1, e=2), 2
        verify_decomposition(spec, m)  # fill the caches
        charged = []
        check = ff.check_budget

        def record(nbytes, what):
            charged.append((nbytes, what))
            check(nbytes, what)

        monkeypatch.setattr(invariants, "check_budget", record)
        _a_terms(spec, 9)
        (nbytes, what), = [c for c in charged if c[1].startswith("expanding")]
        monkeypatch.setattr(invariants, "check_budget", check)
        monkeypatch.setattr(invariants, "_segments", no_picks)
        monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", nbytes - 1)
        with pytest.raises(CapExceeded, match=what):
            verify_decomposition(spec, m)

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=3, n=3, ell=2, e=2), 3),
        (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 3),
    ], ids=str)
    def test_ab_peak_within_the_charge(self, monkeypatch, spec, m):
        # the expansion, and everything up to and through the elimination,
        # stay within the most that was charged to the budget
        Q = spec.q ** m
        invariants._ab_ranks(spec, m, 10 ** 6)  # fill the caches
        check = ff.check_budget
        for run in (lambda: _a_terms(spec, Q), lambda: invariants._ab_ranks(spec, m, 10 ** 6)):
            charged = []

            def record(nbytes, what):
                charged.append(nbytes)
                check(nbytes, what)

            monkeypatch.setattr(ff, "check_budget", record)
            monkeypatch.setattr(invariants, "check_budget", record)
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= max(charged)


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

    def test_monomial_table_partition(self):
        exps = _monomial_table(2, 3)
        assert exps[:1].tolist() == [[0, 0]]
        assert exps[3:6].tolist() == [[1, 0], [1, 1], [1, 2]]
        # row c is the monomial with code c, so the rows run in itertools.product order
        for n, Q in ((2, 3), (3, 4), (4, 2)):
            exps = _monomial_table(n, Q)
            product = list(itertools.product(range(Q), repeat=n))
            assert [tuple(a) for a in exps.tolist()] == product
            assert _codes(exps, Q).tolist() == list(range(Q ** n))
            assert not exps.flags.writeable


# (generators, field, n, Q): every field named by the integer-code engine,
# the full stabilizer, and all of GL_n(F_q) for q in {2, 3}
ASSEMBLY_CASES = [
    (build_group(GroupSpec(p=2, n=3, ell=2, e=1)), make_field(2), 3, 4),
    (build_group(GroupSpec(p=3, n=3, ell=2, e=2)), make_field(3), 3, 9),
    (build_group(GroupSpec(p=5, n=2, ell=1, e=4)), make_field(5), 2, 25),
    (build_group(GroupSpec(p=5, n=3, ell=1, e=2)), make_field(5), 3, 5),
    (build_group(GroupSpec(p=2, r=2, n=3, full_stabilizer=True)), make_field(2, 2), 3, 4),
    (build_group(GroupSpec(p=2, r=2, n=2, ell=0, e=3)), make_field(2, 2), 2, 16),
    (build_group(GroupSpec(p=2, r=3, n=2, full_stabilizer=True)), make_field(2, 3), 2, 8),
    (build_group(GroupSpec(p=3, r=2, n=2, full_stabilizer=True)), make_field(3, 2), 2, 9),
    (build_group(GroupSpec(p=3, n=2, full_stabilizer=True)), make_field(3), 2, 9),
    (full_gl_generators(make_field(2), 3), make_field(2), 3, 4),
    (full_gl_generators(make_field(3), 2), make_field(3), 2, 9),
]


def _case_id(case):
    gens, field, n, Q = case
    return f"GF{field.order}-n{n}-Q{Q}-{len(gens)}gens"


class TestIntegerCodeAssembly:
    """The brute oracle's matrices against the generic polynomial action."""

    @pytest.mark.parametrize("case", ASSEMBLY_CASES, ids=_case_id)
    def test_transvection_columns_match_substitution(self, case):
        gens, field, n, Q = case
        ring = PolyRing(field, n)
        for g in gens:
            logs, moves = _split_generators([g], Q)
            if logs:
                continue
            image = monomial_images(g.inverse(), ring)
            # the columns are the monomials whose codes are not 1 mod 3, so a
            # column's number is not its code; a row is a code, the
            # itertools.product rank
            codes = np.flatnonzero(np.arange(Q ** n) % 3 != 1)
            exps = _monomial_table(n, Q)[codes]
            monos = [tuple(a) for a in exps.tolist()]
            row_of = {mono: i for i, mono in enumerate(itertools.product(range(Q), repeat=n))}
            expected = {}
            for ci, mono in enumerate(monos):
                terms = dict(reduce_mod_frobenius(image(mono), Q).terms)
                terms[mono] = terms.get(mono, field.zero()) - 1
                for target, c in terms.items():
                    if c:
                        expected[row_of[target], ci] = field.encode(c)
            rows, cols, values = _transvection_terms(exps, codes, moves[0], field, Q, 0)
            got = {(int(r), int(c)): int(v) for r, c, v in zip(rows, cols, values)}
            assert len(got) == len(rows)
            assert got == expected
            # int32 codes give int32 rows, here counted from the next move's first row
            shifted = _transvection_terms(exps, codes.astype(np.int32), moves[0], field, Q,
                                          Q ** n)[0]
            assert shifted.dtype == np.int32 and (shifted == rows + Q ** n).all()

    @pytest.mark.parametrize("case", ASSEMBLY_CASES, ids=_case_id)
    def test_ranks_match_the_nullspace_basis(self, case):
        # the dims path (pivot_columns) and the basis path (nullspace) eliminate
        # the same entries; every kernel vector lies in one degree and is
        # fixed by every generator under polynomial substitution
        gens, field, n, Q = case
        dims, _ = invariants._fixed_space(gens, field, n, Q)
        counts, basis = invariants._fixed_space(gens, field, n, Q, want_basis=True)
        assert dims == counts == [len(vectors) for vectors in basis]
        assert len(basis) == n * (Q - 1) + 1
        ring = PolyRing(field, n)
        images = [monomial_images(g.inverse(), ring) for g in gens]
        for d, vectors in enumerate(basis):
            for vec in vectors:
                assert vec and {sum(mono) for mono in vec} == {d}
                poly = ring.zero()
                for mono, c in vec.items():
                    poly = poly + ring.monomial(mono, c)
                for image in images:
                    moved = ring.zero()
                    for mono, c in vec.items():
                        moved = moved + image(mono) * c
                    assert reduce_mod_frobenius(moved, Q) == poly

    @pytest.mark.parametrize("gens,field,n,Q", [
        (build_group(GroupSpec(p=3, n=2, ell=1, e=2)), make_field(3), 2, 9),
        (build_group(GroupSpec(p=2, r=2, n=3, full_stabilizer=True)), make_field(2, 2), 3, 4),
        (full_gl_generators(make_field(3), 2), make_field(3), 2, 3),
    ], ids=["p3-family", "GF4-stabilizer", "GL2-F3"])
    def test_bases_are_each_degrees_canonical_nullspace(self, gens, field, n, Q):
        # one elimination over all degrees, columns in code order, gives each
        # degree the canonical nullspace of that degree's own (g - 1) stack,
        # its columns the monomials of the degree in itertools.product order,
        # each column's image under every generator minus itself, diagonals
        # included
        basis = invariants._fixed_space(gens, field, n, Q, want_basis=True)[1]
        ring = PolyRing(field, n)
        images = [monomial_images(g.inverse(), ring) for g in gens]
        product = list(itertools.product(range(Q), repeat=n))
        for d, vectors in enumerate(basis):
            monos = [a for a in product if sum(a) == d]
            index = {mono: i for i, mono in enumerate(monos)}
            rows = []
            for image in images:
                block = [[field.zero()] * len(monos) for _ in monos]
                for col, mono in enumerate(monos):
                    for target, c in reduce_mod_frobenius(image(mono), Q).terms.items():
                        block[index[target]][col] = c
                    block[col][col] = block[col][col] - 1
                rows += block
            kernel = ff.nullspace(MatrixFq.from_rows(field, rows))
            assert vectors == [{mono: c for mono, c in zip(monos, vec) if c} for vec in kernel]

    @pytest.mark.parametrize("case", ASSEMBLY_CASES, ids=_case_id)
    def test_diagonal_congruence_matches_field_product(self, case):
        gens, field, n, Q = case
        for g in gens + [MatrixFq.identity(field, n)]:
            logs, moves = _split_generators([g], Q)
            if moves:
                continue
            inv = [g.entry(i, i).inverse() for i in range(n)]
            exps = _monomial_table(n, Q)
            keep = _fixed_by_diagonals(exps, logs, field.order - 1)
            for a, kept in zip(exps.tolist(), keep):
                scalar = field.one()
                for d, ai in zip(inv, a):
                    scalar = scalar * d ** ai
                assert kept == (scalar == field.one())

    def test_lucas_binomials_match_binom_mod_p(self):
        # the table lists exactly the nonzero binomials, in key order
        for p, Q in ((2, 128), (3, 81), (5, 125), (7, 343), (11, 121), (127, 127), (3, 3)):
            keys, lows, codes = _binomial_pairs(p, Q)
            expected = [(a * Q + j, j, binom_mod_p(a, j, p))
                        for a in range(Q) for j in range(a + 1) if binom_mod_p(a, j, p)]
            assert list(zip(keys.tolist(), lows.tolist(), codes.tolist())) == expected
            assert lows.dtype == np.int32
            assert codes.dtype == ff.code_arithmetic(make_field(p)).dtype
            assert not (keys.flags.writeable or lows.flags.writeable or codes.flags.writeable)

    def test_brute_oracle_never_calls_the_closed_forms(self):
        calls = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.endswith("qseries.py"):
                calls.append(frame.f_code.co_name)

        invariants._brute_dims.cache_clear()
        sys.setprofile(watch)
        try:
            brute_force_hilbert(GroupSpec(p=3, n=2, ell=1, e=2), 2)
            brute_force_hilbert(GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 1)
            full_gl_fixed_basis(3, 2, 1)
            verify_decomposition(GroupSpec(p=3, n=2, ell=1, e=2), 2)
            verify_decomposition(GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 2)
        finally:
            sys.setprofile(None)
        assert calls == []

    def test_other_generators_are_rejected(self):
        field = make_field(3)
        for rows in ([[1, 1], [1, 2]], [[2, 1], [0, 1]], [[1, 1, 1], [0, 1, 0], [0, 0, 1]]):
            g = MatrixFq.from_rows(field, rows)
            with pytest.raises(ValueError, match="neither diagonal nor"):
                _split_generators([g], 9)

    def test_matrix_cap_fires_before_elimination(self, monkeypatch):
        def no_elimination(self):
            raise AssertionError("eliminated past the matrix cap")

        monkeypatch.setattr(ff.CodeEntries, "_eliminate", no_elimination)
        invariants._brute_dims.cache_clear()
        # passes the default monomial cap (27^4 = 531441); its 3626046
        # transvection terms are counted and charged before any is built
        monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", 128 * 2 ** 20)
        with pytest.raises(CapExceeded, match="eliminating a matrix of 3626046 entries"):
            brute_force_hilbert(GroupSpec(p=3, n=4, ell=3, e=2), 3)
        monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", 100)
        with pytest.raises(CapExceeded, match="above the budget of 0 MiB"):
            verify_decomposition(GroupSpec(p=3, n=2, ell=1, e=2), 2)
        with pytest.raises(CapExceeded, match="needs 0 MiB"):
            brute_force_hilbert(GroupSpec(p=2, n=3, ell=1, e=1), 2)

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=3, n=3, ell=2, e=2), 2),
        (GroupSpec(p=3, n=2, ell=1, e=2), 4),  # one transvection
        (GroupSpec(p=2, r=2, n=3, full_stabilizer=True), 2),
        (GroupSpec(p=2, n=4, ell=1, e=1), 4),
        (GroupSpec(p=7, n=2, ell=1, e=6), 3),
    ], ids=str)
    def test_fixed_space_peak_within_the_charge(self, monkeypatch, spec, m):
        # building the entries and eliminating them stay within the most
        # that was charged to the budget
        gens = build_group(spec)
        Q = spec.q ** m
        invariants._fixed_space(gens, spec.field, spec.n, Q)  # fill the caches
        charged = []
        check = ff.check_budget

        def record(nbytes, what):
            charged.append(nbytes)
            check(nbytes, what)

        monkeypatch.setattr(ff, "check_budget", record)
        tracemalloc.start()
        try:
            invariants._fixed_space(gens, spec.field, spec.n, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(charged)

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=2, n=2, ell=1, e=1), 4),
        (GroupSpec(p=2, n=4, ell=3, e=1), 2),
        (GroupSpec(p=3, n=2, ell=1, e=2), 3),
        (GroupSpec(p=3, n=3, ell=2, e=1), 2),
        (GroupSpec(p=5, n=2, ell=1, e=4), 2),
        (GroupSpec(p=5, n=3, ell=2, e=2), 2),
        (GroupSpec(p=7, n=2, ell=1, e=3), 2),
        (GroupSpec(p=7, n=3, ell=2, e=6), 2),
        (GroupSpec(p=2, r=2, n=3, full_stabilizer=True), 2),
        (GroupSpec(p=2, r=3, n=2, full_stabilizer=True), 2),
    ], ids=str)
    def test_fixed_space_fills_its_charge(self, monkeypatch, spec, m):
        # the charge is the exact count of the entries built, not a bound
        filled = []
        eliminate = ff.CodeEntries._eliminate

        def record(self):
            filled.append((self.size, len(self.keys)))
            return eliminate(self)

        monkeypatch.setattr(ff.CodeEntries, "_eliminate", record)
        invariants._fixed_space(build_group(spec), spec.field, spec.n, spec.q ** m)
        (size, capacity), = filled
        assert 0 < size == capacity

    def test_monomial_budget_fires_before_the_discrete_logs(self, monkeypatch):
        # the 46336 logs of GF(46337) are element products; the budget needs none
        def no_logs(field):
            raise AssertionError("discrete logs computed before the budget was checked")

        monkeypatch.setattr(invariants, "discrete_logs", no_logs)
        spec = GroupSpec(p=46337, n=2, ell=1, e=46336)
        with pytest.raises(CapExceeded, match="listing the 2147117569 monomials needs"):
            brute_force_hilbert(spec, 1, max_monomials=3 * 10 ** 9)

    @pytest.mark.parametrize("n,Q", [(3, 27), (4, 27), (2, 729)])
    def test_monomial_tables_peak_within_the_charge(self, monkeypatch, n, Q):
        charged = []
        check = ff.check_budget

        def record(nbytes, what):
            charged.append(nbytes)
            check(nbytes, what)

        monkeypatch.setattr(invariants, "check_budget", record)
        _monomial_table.cache_clear()
        tracemalloc.start()
        try:
            _monomial_table(n, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert charged and peak <= max(charged)

    def test_monomial_table_is_charged_before_it_exists(self, monkeypatch):
        # 46337^2 monomials would take 16 GiB of exponents
        def no_grid(*args, **kwargs):
            raise AssertionError("allocated before the budget was checked")

        monkeypatch.setattr(invariants.np, "indices", no_grid)
        with pytest.raises(CapExceeded, match="listing the 2147117569 monomials needs"):
            _monomial_table(2, 46337)

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=3, n=4, ell=3, e=2), 3),
        (GroupSpec(p=2, n=6, ell=5, e=1), 3),  # no diagonal generator
        (GroupSpec(p=5, n=2, ell=1, e=4), 4),
        (GroupSpec(p=2, r=2, n=3, full_stabilizer=True), 3),
        # small tables, where a fixed buffer would outgrow the per-monomial charge
        (GroupSpec(p=3, n=2, ell=1, e=2), 2),
        (GroupSpec(p=5, n=3, ell=2, e=4), 1),
    ], ids=str)
    def test_monomial_scans_peak_within_their_charges(self, monkeypatch, spec, m):
        # the diagonal weights and the B mask scan the whole table, and the
        # B mask the x_n^(Q-1) stride that _ab_ranks counts; each stays
        # within the charge it makes before it allocates, and the B mask's
        # charge is what it holds, within 5% and its 2 KiB of headers, as a
        # charge far above the peak refuses work that fits
        Q = spec.q ** m
        exps = _monomial_table(spec.n, Q)
        logs = _split_generators(build_group(spec), Q)[0]
        check = ff.check_budget
        for scan, tight in ((lambda: _fixed_by_diagonals(exps, logs, spec.field.order - 1), False),
                            (lambda: _b_mask(exps, spec, Q), True),
                            (lambda: _b_mask(exps[Q - 1::Q], spec, Q), True)):
            charged = []

            def record(nbytes, what):
                charged.append(nbytes)
                check(nbytes, what)

            monkeypatch.setattr(invariants, "check_budget", record)
            tracemalloc.start()
            try:
                scan()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(charged) == 1 and peak <= charged[0]
            assert not tight or charged[0] <= 1.05 * peak + 2048

    @pytest.mark.parametrize("run,cap,message", [
        (lambda: brute_force_hilbert(GroupSpec(p=3, n=4, ell=3, e=2), 3), 8 * 2 ** 20,
         "weighing the 531441 monomials needs 8 MiB"),
        (lambda: brute_force_hilbert(GroupSpec(p=2, n=6, ell=5, e=1), 3), 14 * 2 ** 20,
         "windowing the 262144 columns needs 15 MiB"),
        # B is counted on the 27^3 monomials with x_4^26, at 2 bytes each for
        # the sums and a residue column, and 2 KiB for the headers
        (lambda: verify_decomposition(GroupSpec(p=3, n=4, ell=3, e=2), 3), 19683 * 4 + 2047,
         "masking the 19683 monomials needs 0 MiB"),
    ], ids=["weights", "windows", "b-mask"])
    def test_scans_past_the_budget_are_refused(self, monkeypatch, run, cap, message):
        # the table of exponents is listed, but what is built from it per
        # monomial or per column does not fit, and is refused before it exists
        invariants._brute_dims.cache_clear()
        _monomial_table(4, 27)  # under the default budget
        monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", cap)
        with pytest.raises(CapExceeded, match=message):
            run()
