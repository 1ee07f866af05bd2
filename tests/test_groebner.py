"""Subduction, S-pair certificates, initial-ideal series, 2-variable resolutions."""

import random

import pytest

from frobpow import groebner
from frobpow.ff import CapExceeded
from frobpow.group import GroupSpec
from frobpow.groebner import (
    BuchbergerReport, SyzygyVector, _complete_basis, _s_polynomial, buchberger_check,
    initial_ideal_hilbert, leading_monomials, resolution_2d, subduct)
from frobpow.invariants import basic_invariants, expand_f, h_generators
from frobpow.poly import divide, leading_monomial, poly_str, reduce_mod_frobenius
from frobpow.qseries import RationalExpr, expand, hilbert_A

ARCHETYPE = GroupSpec(p=5, n=3, ell=2, e=4)


def random_fpoly(rng, fring, weights, max_wdeg, max_terms=3):
    out = fring.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = []
        budget = max_wdeg
        for w in weights:
            top = budget // w
            a = rng.randrange(0, top + 1) if top > 0 else 0
            exps.append(a)
            budget -= w * a
        c = fring.field.elem(rng.randrange(1, fring.field.order))
        out = out + fring.monomial(tuple(exps), c)
    return out


class TestSubduct:
    def test_examples(self):
        b = basic_invariants(ARCHETYPE)
        ring = b.ring
        x1, x3 = ring.variable(0), ring.variable(2)
        assert poly_str(subduct(x3 ** 4, b)) == "1*f3"
        assert poly_str(subduct(x3 ** 8, b)) == "1*f3^2"
        assert poly_str(subduct(x1 ** 5 * x3 ** 4 - x1 * x3 ** 8, b)) == "1*f1*f3"

    def test_stabilizer_coordinates(self):
        spec = GroupSpec(p=2, r=2, n=2, full_stabilizer=True)
        b = basic_invariants(spec)
        fring = b.f_ring()
        x2 = b.ring.variable(1)
        assert subduct(x2 ** 3, b) == fring.variable(1)
        assert subduct(x2 ** 6, b) == fring.variable(1) ** 2

    def test_rejects_non_invariant(self):
        b = basic_invariants(ARCHETYPE)
        with pytest.raises(ValueError, match="not in the invariant subring"):
            subduct(b.ring.variable(0), b)
        with pytest.raises(ValueError, match="not in the invariant subring"):
            subduct(b.ring.variable(2) ** 3, b)

    @pytest.mark.parametrize("spec", [
        ARCHETYPE,
        GroupSpec(p=2, n=2, ell=1, e=1),
        GroupSpec(p=3, n=3, ell=2, e=2),
        GroupSpec(p=5, n=3, ell=1, e=2),
        GroupSpec(p=2, r=2, n=2, full_stabilizer=True),
    ], ids=str)
    def test_round_trip(self, spec):
        b = basic_invariants(spec)
        fring = b.f_ring()
        rng = random.Random(hash(spec) & 0xFFFF)
        for _ in range(40):
            fpoly = random_fpoly(rng, fring, b.weights, 30)
            assert subduct(expand_f(fpoly, b), b) == fpoly

    def test_leading_monomial_compatibility(self):
        # the f-leading monomial of the subduction expands onto the
        # x-leading monomial of the input
        b = basic_invariants(ARCHETYPE)
        fring = b.f_ring()
        rng = random.Random(41)
        for _ in range(60):
            fpoly = random_fpoly(rng, fring, b.weights, 30)
            if not fpoly.terms:
                continue
            f = expand_f(fpoly, b)
            lm_x = leading_monomial(f)[0]
            lm_f, c = leading_monomial(subduct(f, b))
            head = expand_f(fring.monomial(lm_f, c), b)
            assert leading_monomial(head)[0] == lm_x

    def test_h_generator_round_trip(self):
        b = basic_invariants(ARCHETYPE)
        for m in (1, 2):
            for name, hf, hx in h_generators(ARCHETYPE, m).generators:
                assert subduct(hx, b) == hf, name


class TestBuchberger:
    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=3, n=2, ell=1, e=2), 1),
        (GroupSpec(p=2, n=3, ell=2, e=1), 2),
        (GroupSpec(p=2, n=2, ell=1, e=1), 3),
        (GroupSpec(p=3, n=2, ell=1, e=1), 2),
        (GroupSpec(p=5, n=2, ell=1, e=4), 2),
        (ARCHETYPE, 1),
        (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 2),
        (GroupSpec(p=3, r=1, n=3, full_stabilizer=True), 1),
    ], ids=str)
    def test_all_pairs_reduce(self, spec, m):
        rep = buchberger_check(h_generators(spec, m))
        assert rep.ok
        assert all(c["remainder"] == "0" for c in rep.certificates)

    def test_certificate_shape(self):
        rep = buchberger_check(h_generators(GroupSpec(p=2, n=2, ell=1, e=1), 1))
        js = rep.to_json()
        assert js["ok"] is True
        assert js["certificates"][0] == {"pair": [0, 1], "remainder": "0"}
        assert js["names"] == ["h_0", "h_{1,1}", "h_{2,1,1}"]
        assert js["completed_size"] is None

    def test_coprime_leading_pair(self):
        # disjoint leading monomials: the cross pair of the two pure squares
        hg = h_generators(GroupSpec(p=3, n=3, ell=2, e=1), 1)
        entries = hg.generators
        names = [name for name, _, _ in entries]
        i = names.index("h_{2,1,1}")
        j = names.index("h_{2,2,2}")
        hi, hj = entries[i][1], entries[j][1]
        s = _s_polynomial(hi, hj, leading_monomial(hi), leading_monomial(hj))
        _, r = divide(s, [hf for _, hf, _ in entries])
        assert not r.terms

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=2, n=2, ell=1, e=1), 2),
        (GroupSpec(p=3, n=2, ell=1, e=2), 1),
        (GroupSpec(p=2, n=3, ell=2, e=1), 1),
    ], ids=str)
    def test_from_scratch_agrees(self, spec, m):
        rep = buchberger_check(h_generators(spec, m), from_scratch=True)
        assert rep.ok
        assert rep.completed_size == len(rep.names)

    def test_completion_past_its_cap_is_a_cap(self, monkeypatch):
        # not a Groebner basis: its one S-pair leaves a remainder, the third element
        fring = basic_invariants(GroupSpec(p=3, n=2, ell=1, e=2)).f_ring()
        F, E = fring.variable(0), fring.variable(1)
        hlist = [F ** 2 + E, F * E + 1]
        assert len(_complete_basis(hlist)) == 3
        monkeypatch.setattr(groebner, "COMPLETION_CAP", 2)  # the binding groebner reads
        with pytest.raises(CapExceeded, match="completion exceeded the basis cap"):
            _complete_basis(hlist)

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=2, n=2, ell=1, e=1), 2),
        (GroupSpec(p=3, n=2, ell=1, e=2), 1),
    ], ids=str)
    def test_membership_agrees_with_reduction(self, spec, m):
        # remainder-free division against the h-list must coincide with
        # vanishing of the expansion modulo the Frobenius ideal
        b = basic_invariants(spec)
        fring = b.f_ring()
        hg = h_generators(spec, m)
        hlist = [hf for _, hf, _ in hg.generators]
        Q = spec.p ** m
        rng = random.Random(spec.p * 100 + m)
        lms = leading_monomials(hg)
        standard = [
            (a, c) for a in range(10) for c in range(10)
            if not any(a >= u and c >= v for u, v in lms)]
        for _ in range(210):
            combo = fring.zero()
            for hf in hlist:
                combo = combo + random_fpoly(rng, fring, b.weights, 8, 2) * hf
            _, r = divide(combo, hlist)
            assert not r.terms
            assert not reduce_mod_frobenius(expand_f(combo, b), Q).terms
            mono = fring.monomial(rng.choice(standard), fring.field.one())
            _, r = divide(combo + mono, hlist)
            assert r.terms
            assert reduce_mod_frobenius(expand_f(combo + mono, b), Q).terms
        for _ in range(120):
            cand = random_fpoly(rng, fring, b.weights, 14)
            _, r = divide(cand, hlist)
            vanishes = not reduce_mod_frobenius(expand_f(cand, b), Q).terms
            assert (not r.terms) == vanishes


class TestInitialIdeal:
    def test_principal(self):
        s = initial_ideal_hilbert([(0, 3)], (2, 1), 6)
        want = expand(RationalExpr(((1, 0), (-1, 3)), (2, 1)), 6)
        assert s.coeffs == want.coeffs

    def test_smallest_modular_lm_set(self):
        hg = h_generators(GroupSpec(p=2, n=2, ell=1, e=1), 1)
        s = initial_ideal_hilbert(leading_monomials(hg), (2, 1), 2)
        assert s.coeffs == (1, 1, 1)

    def test_low_truncation_sees_free_algebra(self):
        hg = h_generators(GroupSpec(p=2, n=2, ell=1, e=1), 1)
        s = initial_ideal_hilbert(leading_monomials(hg), (2, 1), 1)
        assert s.coeffs == expand(RationalExpr(((1, 0),), (2, 1)), 1).coeffs

    @pytest.mark.parametrize("p,n,m,e", [
        (2, 2, 1, 1), (3, 2, 2, 2), (5, 3, 1, 4), (2, 3, 2, 1), (3, 3, 1, 1),
    ], ids=str)
    def test_matches_invariant_image_series(self, p, n, m, e):
        spec = GroupSpec(p=p, n=n, ell=n - 1, e=e)
        hg = h_generators(spec, m)
        D = n * p ** m
        got = initial_ideal_hilbert(
            leading_monomials(hg), basic_invariants(spec).weights, D)
        assert got.coeffs == hilbert_A(p, n, m, e, D).coeffs

    def test_rejects(self):
        with pytest.raises(ValueError, match="at least one"):
            initial_ideal_hilbert([], (2, 1), 4)
        with pytest.raises(ValueError, match="off-budget"):
            initial_ideal_hilbert([(1, 1)] * 21, (2, 1), 4)


class TestResolution2D:
    @pytest.mark.parametrize("p,m,e", [
        (2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 2), (3, 2, 2), (3, 3, 2),
        (3, 2, 1), (5, 1, 4), (5, 2, 4), (5, 2, 2), (7, 2, 3), (7, 1, 6),
    ], ids=str)
    def test_modular_branch(self, p, m, e):
        r = resolution_2d(p, m, e)
        assert r.ok, r.failures
        P = p ** m
        assert r.f0_shifts == (P + e - 1, P + e, 2 * P)
        assert r.f1_shifts == (2 * P + e - 1, 2 * P + e)
        assert r.resolution_series == r.ideal_series

    def test_syzygies_annihilate(self):
        r = resolution_2d(3, 3, 2)
        hg = h_generators(GroupSpec(p=3, n=2, ell=1, e=2), 3)
        hlist = [hf for _, hf, _ in hg.generators]
        names = [s.name for s in r.syzygies]
        assert names == ["tau_{0,1}", "tau_{1,2}", "tau_{0,2}"]
        for tau in r.syzygies:
            assert not tau.dot(hlist).terms

    def test_syzygy_degrees_are_homogeneous(self):
        # every coefficient of a syzygy component shares one weighted degree
        r = resolution_2d(5, 3, 4)
        assert r.ok
        hdeg = [125 + 3, 125 + 4, 250]
        # the redundant third syzygy sits one h-degree higher than the pair
        for tau, total in zip(r.syzygies, (250 + 3, 250 + 4, 375 + 3)):
            for comp, hd in zip(tau.coeffs, hdeg):
                for mono in comp.terms:
                    assert 5 * mono[0] + 4 * mono[1] + hd == total

    def test_nonmodular_branch(self):
        r = resolution_2d(5, 1, 4, ell=0)
        assert r.ok
        assert r.branch == "nonmodular"
        assert r.f0_shifts == (5, 8)
        assert r.f1_shifts == (13,)
        want = expand(RationalExpr(((1, 5), (1, 8), (-1, 13)), (1, 4)), r.series_bound)
        assert r.ideal_series == want.coeffs

    @pytest.mark.parametrize("p,m,e", [(3, 2, 2), (5, 2, 2), (2, 3, 1), (7, 1, 3)],
                             ids=str)
    def test_nonmodular_grid(self, p, m, e):
        r = resolution_2d(p, m, e, ell=0)
        assert r.ok, r.failures
        P = p ** m
        assert r.f0_shifts == (P, P + e - 1)
        assert r.f1_shifts == (2 * P + e - 1,)

    def test_report_json(self):
        js = resolution_2d(2, 1, 1).to_json()
        assert js["ok"] is True
        assert js["branch"] == "modular"
        assert js["failures"] == []
        assert len(js["syzygies"]) == 3
        assert js["resolution_series"] == js["ideal_series"]

    def test_rejects(self):
        with pytest.raises(ValueError, match="ell 0 or 1"):
            resolution_2d(3, 1, 2, ell=2)
        with pytest.raises(ValueError, match="at least 1"):
            resolution_2d(3, 0, 2)
        with pytest.raises(ValueError, match="must divide"):
            resolution_2d(5, 1, 3)

    @pytest.mark.parametrize("p,m,e,ell", [(2, 40, 1, 1), (2, 40, 1, 0), (31, 5, 30, 0)],
                             ids=str)
    def test_series_past_the_cap_is_refused_first(self, monkeypatch, p, m, e, ell):
        def no_invariants(spec):
            raise AssertionError("built the invariants before the series cap")

        monkeypatch.setattr(groebner, "basic_invariants", no_invariants)
        with pytest.raises(CapExceeded, match=f"needs {2 * p ** m + e + 1} coefficients"):
            resolution_2d(p, m, e, ell)

    def test_series_cap_admits_its_bound(self, monkeypatch):
        # D + 1 = 2p^m + e + 1 coefficients, checked against the default cap
        monkeypatch.setattr(groebner, "DEFAULT_MONOMIAL_CAP", 2 * 3 ** 2 + 2 + 1)
        assert resolution_2d(3, 2, 2).ok
        monkeypatch.setattr(groebner, "DEFAULT_MONOMIAL_CAP", 2 * 3 ** 2 + 2)
        with pytest.raises(CapExceeded, match="needs 21 coefficients, above the cap of 20"):
            resolution_2d(3, 2, 2)
