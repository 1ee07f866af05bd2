"""Acceptance gate: one test per shipping criterion, all exact, zero tolerance.

Each criterion is one test function, so `pytest -v` prints one pass/fail
line per criterion.  Every comparison is integer-exact; any deviation is a
hard failure.  The desk-scale grid is p in {2,3,5}, n in {2,3}, m in {1,2},
0 <= ell <= n-1, e | p-1, skipping combinations above 10^6 monomials, plus
the full-stabilizer cases over F_4, F_8, F_9.
"""

import dataclasses
import math
import random

import branchcov
from frobpow import ff as ff_mod
from frobpow import groebner as groebner_mod
from frobpow import group as group_mod
from frobpow import poly as poly_mod
from frobpow.ff import (
    CapExceeded, MatrixFq, binom_mod_p, embed, factor_prime_power, make_field,
    nullspace, root_of_unity)
from frobpow.group import (
    GroupSpec, act, build_group, enumerate_elements, full_gl_generators,
    group_elements, root_vector, transvection_rootspace_dim)
from frobpow.groebner import (
    buchberger_check, initial_ideal_hilbert, leading_monomials, resolution_2d,
    subduct)
from frobpow.invariants import (
    basic_invariants, brute_force_hilbert, check_exponent_bound,
    full_gl_fixed_basis, h_generators, verify_decomposition)
from frobpow.orbits import closed_form_orbit_count, count_orbits_enum
from frobpow.poly import (
    PolyRing, cmp, divide, leading_monomial, reduce_mod_frobenius,
    substitute_linear)
from frobpow.qseries import (
    RationalExpr, expand, hilbert_A, hilbert_B, hilbert_for_spec,
    hilbert_main_fp, lrs_conjecture)

MONOMIAL_BUDGET = 10**6


def _divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


GRID = [
    (p, n, m, ell, e)
    for p in (2, 3, 5) for n in (2, 3) for m in (1, 2)
    for ell in range(n) for e in _divisors(p - 1)
    if p ** (m * n) <= MONOMIAL_BUDGET
]

STABILIZER_CASES = [
    (q, 2, m) for q in (4, 8, 9) for m in (1, 2)
]


def _stab_spec(q):
    p, r = factor_prime_power(q)
    return GroupSpec(p=p, r=r, n=2, full_stabilizer=True)


def test_criterion_01_series_equals_brute_on_grid():
    checked = 0
    for p, n, m, ell, e in GRID:
        spec = GroupSpec(p=p, n=n, ell=ell, e=e)
        brute = brute_force_hilbert(spec, m)
        series = hilbert_main_fp(p, n, m, ell, e)
        top = max(len(brute.dims) - 1, series.truncation)
        for d in range(top + 1):
            assert series[d] == brute[d], (spec, m, d, series[d], brute[d])
        checked += 1
    print(f"CRITERION 1: PASS - {checked} grid points, "
          "coefficientwise series equality")


def test_criterion_02_dimension_totals():
    for p, n, m, ell, e in GRID:
        spec = GroupSpec(p=p, n=n, ell=ell, e=e)
        want = p ** (m * (n - 1)) + p ** (m * (n - 1) - ell) * (p**m - 1) // e
        assert brute_force_hilbert(spec, m).total == want, (spec, m)
    for q, n, m in STABILIZER_CASES:
        spec = _stab_spec(q)
        want = q ** (m * (n - 1)) + q ** ((m - 1) * (n - 1)) * (
            q**m - 1) // (q - 1)
        assert brute_force_hilbert(spec, m).total == want, (spec, m)
    print(f"CRITERION 2: PASS - closed dimension counts on "
          f"{len(GRID)} family and {len(STABILIZER_CASES)} stabilizer cases")


def test_criterion_03_groebner_certificates():
    cases = [
        (GroupSpec(p=p, n=n, ell=n - 1, e=e), m)
        for p in (2, 3, 5) for n in (2, 3) for m in (1, 2)
        for e in _divisors(p - 1)
    ]
    cases += [(GroupSpec(p=2, r=2, n=2, full_stabilizer=True), m)
              for m in (1, 2)]
    for spec, m in cases:
        hgens = h_generators(spec, m)  # closed x-forms re-derived inside
        Q = spec.q ** m
        for name, _, xpoly in hgens.as_list():
            assert not reduce_mod_frobenius(xpoly, Q).terms, (spec, m, name)
        report = buchberger_check(hgens)
        assert report.ok, (spec, m, report.certificates)
        for cert in report.certificates:
            if cert["pair"] is not None:
                assert cert["remainder"] == "0", (spec, m, cert)
    print(f"CRITERION 3: PASS - all S-pairs reduce to zero on "
          f"{len(cases)} generator families")


def test_criterion_04_decomposition_direct_sum():
    for p, n, m, ell, e in GRID:
        spec = GroupSpec(p=p, n=n, ell=ell, e=e)
        report = verify_decomposition(spec, m)
        assert report.ok, (spec, m, report.mismatches)
    print(f"CRITERION 4: PASS - A + B direct sums match brute force on "
          f"{len(GRID)} grid points")


def test_criterion_05_initial_ideal_series():
    checked = 0
    for p in (2, 3, 5):
        for n in (2, 3):
            for m in (1, 2):
                for e in _divisors(p - 1):
                    spec = GroupSpec(p=p, n=n, ell=n - 1, e=e)
                    D = n * (p**m - 1)
                    ideal = initial_ideal_hilbert(
                        leading_monomials(h_generators(spec, m)),
                        basic_invariants(spec).weights, D)
                    closed = hilbert_A(p, n, m, e, D)
                    assert ideal.coeffs == closed.coeffs, (spec, m)
                    total = hilbert_main_fp(p, n, m, n - 1, e, D)
                    bser = hilbert_B(p, n, m, D)
                    for d in range(D + 1):
                        assert closed[d] + bser[d] == total[d], (spec, m, d)
                    checked += 1
    print(f"CRITERION 5: PASS - inclusion-exclusion equals the closed A "
          f"series and A + B equals the full series on {checked} cases")


def test_criterion_06_orbit_counts():
    cases = [(GroupSpec(p=p, n=n, ell=ell, e=e), m)
             for p, n, m, ell, e in GRID]
    cases += [(_stab_spec(q), m) for q, n, m in STABILIZER_CASES]
    checked = 0
    for spec, m in cases:
        if spec.q ** (m * spec.n) > MONOMIAL_BUDGET:
            continue
        report = count_orbits_enum(spec, m)
        assert report.match, (spec, m)
        assert report.orbit_count == closed_form_orbit_count(spec, m)
        series = hilbert_for_spec(spec, m)
        assert report.orbit_count == series.total, (spec, m)
        hist = dict(report.histogram)
        fixed = spec.q ** (m * (spec.n - 1))
        if spec.group_order == 1:
            assert hist == {1: report.total_points}
        else:
            assert hist[1] == fixed, (spec, m)
            assert set(hist) == {1, spec.group_order}, (spec, m)
        checked += 1
    print(f"CRITERION 6: PASS - enumeration, formula, and series totals "
          f"agree with the singleton/free histogram on {checked} cases")


def test_criterion_07_two_variable_resolution():
    checked = 0
    for p in (2, 3, 5):
        for m in (1, 2):
            for e in _divisors(p - 1):
                P = p**m
                rep = resolution_2d(p, m, e)
                assert rep.ok, (p, m, e, rep.failures)
                assert rep.series_bound == 2 * P + e
                assert rep.resolution_series == rep.ideal_series
                rep0 = resolution_2d(p, m, e, ell=0)
                assert rep0.ok, (p, m, e, rep0.failures)
                closed = expand(RationalExpr(
                    ((1, P), (1, P + e - 1), (-1, 2 * P + e - 1)),
                    (1, e)), rep0.series_bound)
                assert closed.coeffs == rep0.ideal_series, (p, m, e)
                checked += 1
    print(f"CRITERION 7: PASS - syzygies annihilate and both resolution "
          f"branches reproduce the ideal series on {checked} cases")


def test_criterion_08_exponent_dichotomy():
    for q in (2, 3):
        for m in (1, 2):
            basis = full_gl_fixed_basis(q, 2, m)
            report = check_exponent_bound(q, 2, m, basis)
            assert report.ok, (q, m, report.violations)
            assert report.top_dim == 1, (q, m)
    print("CRITERION 8: PASS - exponent dichotomy and one-dimensional "
          "top degree on the full-GL fixed spaces")


def test_criterion_09_conjecture_cross_check():
    instances = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1), (2, 2, 2),
                 (3, 2, 1)]
    for q, n, m in instances:
        series = lrs_conjecture(q, n, m)
        dims = [len(b) for b in full_gl_fixed_basis(q, n, m)]
        top = max(len(dims) - 1, series.truncation)
        for d in range(top + 1):
            have = dims[d] if d < len(dims) else 0
            assert series[d] == have, (q, n, m, d)
    print(f"CRITERION 9: PASS - conjectured series equals full-GL brute "
          f"force on {len(instances)} known instances")


# -- criterion 10: property suites with branch coverage ---------------------

FF_CORE = ["make_field", "Field", "FieldElem", "root_of_unity",
           "binom_mod_p", "embed", "nullspace"]
POLY_CORE = ["Polynomial", "cmp", "leading_monomial", "reduce_mod_frobenius",
             "divide", "compose", "linear_images", "substitute_linear",
             "monomial_images"]
GROUP_CORE = ["build_group", "enumerate_elements", "root_vector",
              "transvection_rootspace_dim"]
GROEBNER_CORE = ["subduct", "buchberger_check", "initial_ideal_hilbert",
                 "resolution_2d"]


def _expect(exc, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except exc:
        return
    raise AssertionError(f"{fn} failed to raise {exc.__name__}")


def _ff_workload():
    make_field.cache_clear()
    root_of_unity.cache_clear()  # its cache would skip the branches it covers
    rng = random.Random(20260822)
    fields = [make_field(2), make_field(3), make_field(7), make_field(2, 2),
              make_field(2, 3), make_field(3, 2), make_field(5, 2)]
    _expect(ValueError, make_field, 6)
    _expect(ValueError, make_field, 6, 2)
    _expect(ValueError, make_field, 3, 0)
    _expect(ValueError, ff_mod.Field, 4, 1, (0, 1))
    _expect(ValueError, ff_mod.Field, 3, 0, (0, 1))
    _expect(ValueError, ff_mod.Field, 3, 1, (1, 1))
    _expect(ValueError, ff_mod.Field, 2, 2, (1, 1))
    _expect(ValueError, ff_mod.Field, 2, 2, (1, 1, 2))
    _expect(ValueError, ff_mod.Field, 2, 2, (0, 0, 1))
    for field in fields:
        elems = list(field.elements())
        assert list(field.elements_lex())[0] == field.zero()
        # field axioms on random triples
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - b == -(b - a)
            assert 1 - (1 - a) == a == (a - 1) + 1
            assert 0 * a == field.zero() and 1 * a == a
            if b:
                assert (a / b) * b == a
                assert b ** -2 == (b * b).inverse()
                assert (2 / b) * b == field.elem(2)
            assert a ** 7 == a * a * a * a * a * a * a
            assert a ** 0 == field.one()
        # Frobenius identity, exhaustively on small fields
        pairs = ((a, b) for a in elems for b in elems) if len(elems) <= 9 \
            else ((rng.choice(elems), rng.choice(elems)) for _ in range(60))
        for a, b in pairs:
            assert (a + b) ** field.p == a ** field.p + b ** field.p
        one = field.one()
        assert one.order() == 1
        assert field.elem(one) == one and field.elem(1) == one
        assert field.elem([1]) == one
        assert one == 1 and one != 0
        assert field.decode(field.encode(elems[-1])) == elems[-1]
        _expect(ValueError, field.elem, [0] * (field.r + 1))
        _expect(ZeroDivisionError, field.zero().inverse)
        _expect(ValueError, field.zero().order)
        for bad in (lambda a: a + 0.5, lambda a: a - 0.5, lambda a: 0.5 - a,
                    lambda a: a * 0.5, lambda a: a / 0.5, lambda a: 0.5 / a):
            _expect(TypeError, bad, one)
        assert not one == "x"
        assert one != ff_mod.FieldElem(field, (1,) * field.r) or field.r == 1
    _expect(ValueError, fields[0].one().__add__, fields[1].one())
    _expect(ValueError, fields[0].elem, fields[1].one())
    assert fields[0].one() != fields[1].one()
    # roots of unity of every admissible order
    for field in fields:
        for e in _divisors(field.order - 1):
            assert root_of_unity(field, e).order() == e
        _expect(ValueError, root_of_unity, field, field.order)
    _expect(ValueError, root_of_unity, fields[0], 0)
    # Lucas against exact binomials
    for p in (2, 3, 5, 7):
        for d in range(65):
            for i in range(d + 1):
                assert binom_mod_p(d, i, p) == math.comb(d, i) % p
    assert binom_mod_p(5, 7, 3) == 0 and binom_mod_p(5, -1, 3) == 0
    # embeddings respect arithmetic
    for src, dst in ((make_field(2), make_field(2, 2)),
                     (make_field(2, 2), make_field(2, 4)),
                     (make_field(3), make_field(3, 2))):
        for a in src.elements():
            for b in src.elements():
                assert embed(src, dst, a * b) == \
                    embed(src, dst, a) * embed(src, dst, b)
                assert embed(src, dst, a + b) == \
                    embed(src, dst, a) + embed(src, dst, b)
        assert embed(src, src, src.one()) == src.one()
    _expect(ValueError, embed, make_field(2), make_field(3), make_field(2).one())
    _expect(ValueError, embed, make_field(2, 2), make_field(2, 3),
            make_field(2, 2).one())
    _expect(ValueError, embed, make_field(2), make_field(2, 2),
            make_field(3).one())
    # nullspace really annihilates
    for field in (make_field(3), make_field(2, 2)):
        for rows, cols in ((3, 4), (4, 3), (2, 2)):
            rows_data = [[field.decode(rng.randrange(field.order))
                          for _ in range(cols)] for _ in range(rows)]
            mat = MatrixFq.from_rows(field, rows_data)
            for vec in nullspace(mat):
                for i in range(rows):
                    acc = field.zero()
                    for j in range(cols):
                        acc = acc + mat.entry(i, j) * vec[j]
                    assert not acc
        empty = MatrixFq.from_rows(field, [])
        assert nullspace(empty) == []


def _poly_workload():
    rng = random.Random(77)
    rings = [PolyRing(make_field(3), 2), PolyRing(make_field(2, 2), 2),
             PolyRing(make_field(5), 3, weights=(5, 5, 4), prefix="f")]

    def rand_poly(ring, terms=3, deg=4):
        out = ring.zero()
        for _ in range(terms):
            exps = tuple(rng.randrange(deg) for _ in range(ring.n))
            out = out + ring.monomial(exps, rng.randrange(1, ring.field.p))
        return out

    for ring in rings:
        for _ in range(40):
            a, b, c = (rand_poly(ring) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a - b) + b == a
            assert a + 1 - 1 == a == 1 + a - 1
            assert a * (b * c) == (a * b) * c
            assert (a + b) ** 2 == a * a + 2 * a * b + b * b
            if a:
                mono, coeff = leading_monomial(a)
                assert a.terms[mono] == coeff
        _expect(ValueError, leading_monomial, ring.zero())
        _expect(TypeError, lambda: rand_poly(ring) + 0.5)
        # order multiplicativity, exhaustive on low degrees
        monos = [tuple(e) for e in _tuples(ring.n, 3)]
        for u in monos:
            for v in monos:
                s = cmp(ring, u, v)
                assert s == -cmp(ring, v, u)
                for w in monos[:4]:
                    uw = tuple(a + b for a, b in zip(u, w))
                    vw = tuple(a + b for a, b in zip(v, w))
                    assert cmp(ring, uw, vw) == s
        # division identity with deterministic divisor order
        for _ in range(25):
            f = rand_poly(ring, terms=4)
            divisors = [rand_poly(ring) for _ in range(2)]
            divisors = [d for d in divisors if d]
            if not divisors:
                continue
            quotients, rem = divide(f, divisors)
            recombined = rem
            for qq, dd in zip(quotients, divisors):
                recombined = recombined + qq * dd
            assert recombined == f
            lms = [leading_monomial(d)[0] for d in divisors]
            for mono in rem.terms:
                assert not any(
                    all(a >= b for a, b in zip(mono, lm)) for lm in lms)
        # frobenius reduction: idempotent, linear, degree-capped
        for _ in range(20):
            f, g = rand_poly(ring, deg=6), rand_poly(ring, deg=6)
            red = reduce_mod_frobenius(f, 4)
            assert reduce_mod_frobenius(red, 4) == red
            assert reduce_mod_frobenius(f + g, 4) == \
                reduce_mod_frobenius(red + reduce_mod_frobenius(g, 4), 4)
            assert all(a < 4 for mono in red.terms for a in mono)
        _expect(ValueError, reduce_mod_frobenius, ring.one(), 1)
    # scalar coercions, power edge cases
    ring0 = rings[0]
    x0, x1 = ring0.variable(0), ring0.variable(1)
    f3 = x0 ** 2 + x1 + 1
    assert f3 ** 0 == ring0.one()
    assert f3 ** 3 == f3 * f3 * f3
    assert f3 ** 4 == f3 * f3 * f3 * f3
    p = ring0.field.p
    assert (x0 + x1) ** p == x0 ** p + x1 ** p
    _expect(ValueError, lambda: f3 ** -1)
    _expect(TypeError, lambda: f3 * 0.5)
    _expect(TypeError, lambda: f3 - 0.5)
    _expect(TypeError, lambda: 0.5 - f3)
    assert 1 - f3 == ring0.one() - f3
    assert ring0.one() == 1 and ring0.zero() != 1
    assert not ring0.one() == "x"
    assert ring0.one() != rings[1].one()
    _expect(ValueError, lambda: ring0.one() + rings[1].one())
    zq, zr = divide(ring0.zero(), [f3])
    assert not zr.terms and all(not q.terms for q in zq)
    # substitution is a right action over a generated reflection group
    spec = GroupSpec(p=3, n=2, ell=1, e=2)
    ring = PolyRing(spec.field, 2)
    f = ring.variable(0) ** 2 * ring.variable(1) + ring.variable(1) + 1
    group = group_elements(spec)
    images = {g: substitute_linear(f, g) for g in group}
    for a in group:
        for b in group:
            assert substitute_linear(images[a], b) == images[a * b]
    _expect(ValueError, substitute_linear, f,
            MatrixFq.identity(make_field(3), 3))
    _expect(ValueError, substitute_linear, f,
            MatrixFq.from_rows(make_field(3), [[0, 1, 0], [1, 0, 0]]))
    _expect(ValueError, substitute_linear, f,
            MatrixFq.identity(make_field(2), 2))


def _tuples(n, bound):
    if n == 0:
        yield ()
        return
    for head in range(bound):
        for tail in _tuples(n - 1, bound):
            yield (head,) + tail


def _group_workload():
    specs = [GroupSpec(p=3, n=2, ell=1, e=2), GroupSpec(p=2, n=3, ell=2, e=1),
             GroupSpec(p=5, n=2, ell=1, e=4), GroupSpec(p=3, n=2, ell=0, e=1),
             GroupSpec(p=2, r=2, n=2, full_stabilizer=True),
             GroupSpec(p=3, n=2, full_stabilizer=True),
             GroupSpec(p=2, r=2, n=2, ell=0, e=3)]
    for spec in specs:
        gens = build_group(spec)
        if not gens:
            assert spec.group_order == 1, spec
            continue
        elements = enumerate_elements(gens)
        assert len(elements) == spec.group_order, spec
        field, n = spec.field, spec.n
        for g in elements:
            for i in range(n - 1):
                basis = tuple(field.one() if j == i else field.zero()
                              for j in range(n))
                assert g.apply(basis) == basis, spec
        # root vectors recover the transvection-root dimension
        want = (n - 1) * spec.r if spec.full_stabilizer else spec.ell
        assert transvection_rootspace_dim(elements) == want, spec
        identity = [g for g in elements if root_vector(g) is None]
        assert len(identity) == 1
    # the action composes contravariantly through matrix products
    group = group_elements(GroupSpec(p=3, n=2, ell=1, e=2))
    ring = PolyRing(make_field(3), 2)
    f = ring.variable(0) ** 2 + ring.variable(0) * ring.variable(1) + 1
    for a in group:
        for b in group:
            assert act(a, act(b, f)) == act(a * b, f)
    _expect(CapExceeded, enumerate_elements,
            build_group(GroupSpec(p=3, n=2, ell=1, e=2)), 3)
    _expect(ValueError, enumerate_elements, [])
    swap = MatrixFq.from_rows(make_field(2), [[0, 1], [1, 0]])
    _expect(ValueError, root_vector, swap)
    assert transvection_rootspace_dim(
        [MatrixFq.identity(make_field(3), 2)]) == 0
    assert full_gl_generators(make_field(2), 2)


def _groebner_workload():
    rng = random.Random(4242)
    # subduction round-trip over two group shapes
    for spec in (GroupSpec(p=3, n=2, ell=1, e=2),
                 GroupSpec(p=2, r=2, n=2, full_stabilizer=True)):
        basics = basic_invariants(spec)
        fring = basics.f_ring()
        for _ in range(30):
            fpoly = fring.zero()
            for _ in range(3):
                exps = tuple(rng.randrange(3) for _ in range(spec.n))
                coeff = fring.field.decode(rng.randrange(1, spec.q))
                fpoly = fpoly + fring.monomial(exps, coeff)
            expanded = basics.polys[0].ring.zero()
            for mono, coeff in fpoly.terms.items():
                term = basics.polys[0].ring.constant(coeff)
                for i, a in enumerate(mono):
                    term = term * basics.polys[i] ** a
                expanded = expanded + term
            assert subduct(expanded, basics) == fpoly
        bad = basics.polys[0].ring.variable(spec.n - 1)
        _expect(ValueError, subduct, bad, basics)
    # certificates for a family and a stabilizer case, plus completion
    for spec, m in ((GroupSpec(p=2, n=2, ell=1, e=1), 2),
                    (GroupSpec(p=3, n=2, ell=1, e=2), 1),
                    (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 1)):
        hgens = h_generators(spec, m)
        assert buchberger_check(hgens).ok
        report = buchberger_check(hgens, from_scratch=True)
        assert report.ok and report.completed_size == len(report.names)
    spec = GroupSpec(p=3, n=2, ell=1, e=2)
    basics = basic_invariants(spec)
    fring = basics.f_ring()
    hgens = h_generators(spec, 1)
    assert subduct(basics.ring.zero(), basics) == fring.zero()
    assert buchberger_check(hgens).ok
    # a doctored generator list must fail every certificate pass
    broken = dataclasses.replace(
        hgens, h0=(fring.variable(0) + fring.variable(1), basics.ring.one()))
    verdict = buchberger_check(broken, from_scratch=True)
    assert not verdict.ok
    assert any(c["pair"] is None and c["remainder"] == "membership failure"
               for c in verdict.certificates)
    assert any(c["pair"] is not None and c["remainder"] != "0"
               for c in verdict.certificates)
    assert any(c["pair"] is None and c["remainder"].startswith("new leading")
               for c in verdict.certificates)
    # initial ideal series: principal case, cancelling degrees, guards
    series = initial_ideal_hilbert([(3, 0)], (2, 1), 8)
    closed = expand(RationalExpr(((1, 0), (-1, 6)), (2, 1)), 8)
    assert series.coeffs == closed.coeffs
    square = [(2, 1), (1, 2), (3, 0), (0, 3)]
    series = initial_ideal_hilbert(square, (1, 1), 6)
    for d in range(7):
        live = sum(1 for a in range(d + 1)
                   if not any(a >= u and d - a >= v for u, v in square))
        assert series[d] == live
    _expect(ValueError, initial_ideal_hilbert, [], (2, 1), 4)
    _expect(ValueError, initial_ideal_hilbert, [(1, 0)] * 21, (2, 1), 4)
    # both resolution branches and their guards
    assert resolution_2d(3, 2, 2).ok
    assert resolution_2d(2, 1, 1).ok
    assert resolution_2d(5, 1, 4, ell=0).ok
    assert resolution_2d(2, 2, 1, ell=0).ok
    _expect(ValueError, resolution_2d, 5, 1, 3)
    _expect(ValueError, resolution_2d, 3, 0, 2)
    _expect(ValueError, resolution_2d, 3, 1, 2, 2)


def test_criterion_10_property_suites_with_coverage():
    suites = [
        ("ff", ff_mod, FF_CORE, _ff_workload),
        ("poly", poly_mod, POLY_CORE, _poly_workload),
        ("group", group_mod, GROUP_CORE, _group_workload),
        ("groebner", groebner_mod, GROEBNER_CORE, _groebner_workload),
    ]
    fractions = []
    for name, module, ops, workload in suites:
        cov = branchcov.BranchCoverage(branchcov.code_objects(module, ops))
        with cov:
            workload()
        frac = cov.fraction()
        assert frac >= 0.95, (name, round(frac, 4), cov.missing())
        fractions.append(f"{name} {100 * frac:.1f}%")
    print("CRITERION 10: PASS - property suites cover core-operation "
          "branches: " + ", ".join(fractions))
