"""Polynomial arithmetic, the two weighted grlex orders, division, truncation,
and the linear-substitution action.

Oracles: term-by-term hand expansions for the pinned products, exhaustive key
comparison for order multiplicativity, and matrix closure for the action law.
"""

import itertools
import random
import typing

import pytest
from hypothesis import given, strategies as st

from frobpow.ff import Field, MatrixFq, make_field
from frobpow.poly import (
    Polynomial,
    PolyRing,
    cmp,
    divide,
    leading_monomial,
    poly_str,
    reduce_mod_frobenius,
    substitute_linear,
)

F2, F3, F5 = make_field(2), make_field(3), make_field(5)

RINGS = [PolyRing(F2, 2), PolyRing(F3, 2), PolyRing(F5, 3), PolyRing(F2, 3)]

rings_st = st.sampled_from(RINGS)


@st.composite
def ring_and_polys(draw, count=3, max_terms=5, max_exp=4):
    ring = draw(rings_st)
    polys = []
    for _ in range(count):
        n_terms = draw(st.integers(0, max_terms))
        terms = {}
        for _ in range(n_terms):
            m = tuple(draw(st.integers(0, max_exp)) for _ in range(ring.n))
            c = draw(st.integers(0, ring.field.order - 1))
            if c:
                terms[m] = ring.field.decode(c)
        polys.append(Polynomial(ring, terms))
    return ring, polys


def _random_poly(ring, rng, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        m = tuple(rng.randrange(max_exp + 1) for _ in range(ring.n))
        c = rng.randrange(1, ring.field.order)
        terms[m] = ring.field.decode(c)
    return Polynomial(ring, terms)


# -- ring axioms ------------------------------------------------------------

def test_ring_axioms_random():
    rng = random.Random(414)
    checked = 0
    while checked < 500:
        ring = RINGS[checked % len(RINGS)]
        a, b, c = (_random_poly(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == ring.zero()
        checked += 1


@given(ring_and_polys())
def test_ring_axioms_property(rp):
    ring, (a, b, c) = rp
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


def test_pow_matches_repeated_product():
    # powers go by the base-p digits of k through the Frobenius, so take k past
    # three digits (111 in base p), and fields with c^p != c for most c
    rng = random.Random(99)
    for ring in RINGS + [PolyRing(make_field(2, 2), 2), PolyRing(make_field(3, 2), 2)]:
        monos = list(itertools.product(range(3), repeat=ring.n))
        p = ring.field.p
        for count in range(5):
            terms = {m: ring.field.decode(rng.randrange(1, ring.field.order))
                     for m in rng.sample(monos, count)}
            f = Polynomial(ring, terms)
            acc = ring.one()
            for k in range(p * p + p + 2):
                assert f ** k == acc
                acc = acc * f
    with pytest.raises(ValueError):
        RINGS[0].one() ** -1


def test_pow_pinned():
    ring = PolyRing(F2, 2)
    x, y = ring.variable(0), ring.variable(1)
    assert (x + y) ** 2 == x ** 2 + y ** 2  # freshman's dream in char 2
    r5 = PolyRing(F5, 3)
    x1, x3 = r5.variable(0), r5.variable(2)
    f1 = x1 ** 5 - x1 * x3 ** 4
    assert f1 * r5.one() == f1
    sq = x1 ** 10 - 2 * x1 ** 6 * x3 ** 4 + x1 ** 2 * x3 ** 8
    assert f1 ** 2 == sq
    assert (x1 - x3) ** 5 == x1 ** 5 - x3 ** 5  # Lucas kills the middle terms


def test_scalar_and_mismatch():
    ring = PolyRing(F5, 2)
    x = ring.variable(0)
    assert 3 * x == x * F5.elem(3)
    assert x * 0 == ring.zero()
    assert x + 1 - 1 == x
    with pytest.raises(ValueError):
        x + PolyRing(F3, 2).variable(0)
    with pytest.raises(TypeError):
        x + "y"
    with pytest.raises(ValueError):
        ring.monomial((1,))
    with pytest.raises(ValueError):
        ring.monomial((-1, 0))
    with pytest.raises(ValueError):
        PolyRing(F5, 2, weights=(1,))


def test_ring_annotations_resolve():
    assert typing.get_type_hints(PolyRing)["field"] is Field


# -- orders -----------------------------------------------------------------

def test_cmp_examples():
    o = PolyRing(F5, 3, weights=(1, 1, 1))
    assert cmp(o, (1, 0, 1), (0, 2, 0)) == 1  # x1x3 beats x2^2 lexicographically
    assert cmp(o, (0, 2, 0), (1, 0, 1)) == -1
    assert cmp(o, (2, 1, 0), (2, 1, 0)) == 0
    of = PolyRing(F5, 3, weights=(5, 5, 1))
    assert cmp(of, (1, 0, 0), (0, 0, 5)) == 1  # f1 beats f3^5 at equal degree 5
    assert cmp(of, (0, 0, 6), (1, 0, 0)) == 1  # higher weighted degree wins


def _monomials_up_to(n, d):
    return [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) <= d]


@pytest.mark.parametrize("weights", [(1, 1, 1), (5, 5, 4)])
def test_order_multiplicative_exhaustive(weights):
    order = PolyRing(F5, 3, weights=weights)
    monos = _monomials_up_to(3, 6)
    keys = {m: order.key(m) for m in monos}
    pairs = [(u, v) for u in monos for v in monos if keys[u] < keys[v]]
    for w in monos:
        for u, v in pairs:
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert order.key(uw) < order.key(vw)


def test_leading_monomial():
    r5 = PolyRing(F5, 3)
    x1, x3 = r5.variable(0), r5.variable(2)
    f1 = x1 ** 5 - x1 * x3 ** 4
    m, c = leading_monomial(f1)
    assert m == (5, 0, 0) and c == F5.one()
    m, c = leading_monomial(r5.constant(3))
    assert m == (0, 0, 0) and c == F5.elem(3)
    with pytest.raises(ValueError, match="LM of zero"):
        leading_monomial(r5.zero())


def test_leading_monomial_h1_in_f_coordinates():
    # p = 2, m = 2, e = 1, n = 2: h_{1,1} = f_2 f_1^2 + f_2^3 f_1 with
    # weights (2, 1); the lead is f_1^{p^{m-1}} f_n = f_1^2 f_2
    fring = PolyRing(F2, 2, weights=(2, 1), prefix="f")
    f1, f2 = fring.variable(0), fring.variable(1)
    h11 = f2 * f1 ** 2 + f2 ** 3 * f1
    m, _ = leading_monomial(h11)
    assert m == (2, 1)


# -- compatibility of the two orders ----------------------------------------

def _archetype_basics():
    r5 = PolyRing(F5, 3)
    x1, x2, x3 = (r5.variable(i) for i in range(3))
    f1 = x1 ** 5 - x1 * x3 ** 4
    f2 = x2 ** 5 - x2 * x3 ** 4
    f3 = x3 ** 4
    fring = PolyRing(F5, 3, weights=(5, 5, 4), prefix="f")
    return fring, [f1, f2, f3]


def _tiny_basics():
    r2 = PolyRing(F2, 2)
    x1, x2 = r2.variable(0), r2.variable(1)
    f1 = x1 ** 2 - x1 * x2
    f2 = x2
    fring = PolyRing(F2, 2, weights=(2, 1), prefix="f")
    return fring, [f1, f2]


def _expand(F, basics):
    out = basics[0].ring.zero()
    for m, c in F.terms.items():
        term = basics[0].ring.constant(c)
        for fi, a in zip(basics, m):
            if a:
                term = term * fi ** a
        out = out + term
    return out


@pytest.mark.parametrize("setup", [_archetype_basics, _tiny_basics])
def test_order_compatibility_on_random_f_polys(setup):
    fring, basics = setup()
    rng = random.Random(20260401)
    done = 0
    while done < 100:
        F = _random_poly(fring, rng, max_terms=4, max_exp=3)
        if not F:
            continue
        lead, lc = leading_monomial(F)
        lead_expanded = _expand(Polynomial(fring, {lead: lc}), basics)
        full_expanded = _expand(F, basics)
        if not full_expanded:
            continue  # the f_i are algebraically independent, so this cannot happen
        lm_via_lead = leading_monomial(lead_expanded)
        lm_direct = leading_monomial(full_expanded)
        assert lm_via_lead[0] == lm_direct[0]
        done += 1


# -- truncation -------------------------------------------------------------

def test_reduce_mod_frobenius_examples():
    r1 = PolyRing(F2, 1)
    x = r1.variable(0)
    assert reduce_mod_frobenius(x ** 3, 2) == r1.zero()
    r2 = PolyRing(F3, 2)
    x1, x2 = r2.variable(0), r2.variable(1)
    assert reduce_mod_frobenius(x1 ** 9 * x2 - x1 * x2, 9) == -x1 * x2
    r5 = PolyRing(F5, 3)
    h0 = r5.variable(2) ** 8  # x_n^{p^m + e - 1} with p = 5, m = 1, e = 4
    assert reduce_mod_frobenius(h0, 5) == r5.zero()
    with pytest.raises(ValueError):
        reduce_mod_frobenius(h0, 1)


@given(ring_and_polys(count=2), st.sampled_from([2, 3, 4, 5]))
def test_reduce_idempotent_linear(rp, Q):
    ring, (f, g) = rp
    rf = reduce_mod_frobenius(f, Q)
    assert reduce_mod_frobenius(rf, Q) == rf
    assert reduce_mod_frobenius(f + g, Q) == rf + reduce_mod_frobenius(g, Q)
    c = ring.field.elem(2)
    assert reduce_mod_frobenius(f * c, Q) == rf * c
    assert all(a < Q for m in rf.terms for a in m)


# -- division ---------------------------------------------------------------

def test_divide_examples():
    r5 = PolyRing(F5, 2)
    x = r5.variable(0)
    d1 = x ** 2 + 3 * x + 1
    q, rem = divide(d1, [d1])
    assert q == [r5.one()] and rem == r5.zero()
    q, rem = divide(x ** 2 + x, [x])
    assert q == [x + 1] and rem == r5.zero()
    q, rem = divide(x + 1, [x ** 2])
    assert q == [r5.zero()] and rem == x + 1


def test_divide_spair_reduces_to_zero():
    # n = 3, p = 2, m = 1, e = 1: the h-list in f-coordinates is
    # [f3^2, f3 f1, f3 f2, f1^2, f1 f2, f2^2]
    fring = PolyRing(F2, 3, weights=(2, 2, 1), prefix="f")
    f1, f2, f3 = (fring.variable(i) for i in range(3))
    hlist = [f3 ** 2, f3 * f1, f3 * f2, f1 ** 2, f1 * f2, f2 ** 2]
    a, b = f1 ** 2, f1 * f2  # h_{2,1,1} and h_{2,1,2}
    spoly = a * f2 - b * f1  # lcm cancellation of the two leads
    q, rem = divide(spoly, hlist)
    assert rem == fring.zero()
    assert spoly == sum((qi * hi for qi, hi in zip(q, hlist)), fring.zero())


@given(ring_and_polys(count=4))
def test_division_identity(rp):
    ring, polys = rp
    f, divisors = polys[0], [d for d in polys[1:] if d]
    if not divisors:
        divisors = [ring.one() + ring.variable(0)]
    q, rem = divide(f, divisors)
    assert f == sum((qi * di for qi, di in zip(q, divisors)), rem)
    leads = [leading_monomial(d)[0] for d in divisors]
    for m in rem.terms:
        assert not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)


def test_leading_monomial_of_zero_raises_every_call():
    zero = PolyRing(F5, 3, weights=(5, 5, 4), prefix="f").zero()
    for _ in range(2):
        with pytest.raises(ValueError, match="LM of zero"):
            leading_monomial(zero)


# -- substitution action ----------------------------------------------------

def test_substitute_identity_and_forms():
    r5 = PolyRing(F5, 3)
    x1, x2, x3 = (r5.variable(i) for i in range(3))
    f = x1 ** 2 * x2 + 3 * x3
    assert substitute_linear(f, MatrixFq.identity(F5, 3)) == f
    # the inverse of the transvection I + E_{1,3} substitutes x1 -> x1 - x3
    g = MatrixFq.from_rows(F5, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    image = substitute_linear(x1, g.inverse())
    assert image == x1 - x3
    # the diagonal generator scales x3 by the inverse root of unity
    gn = MatrixFq.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    image = substitute_linear(x3, gn.inverse())
    assert image == 3 * x3  # 2^{-1} = 3 in F_5
    with pytest.raises(ValueError):
        substitute_linear(f, MatrixFq.identity(F5, 2))
    with pytest.raises(ValueError):
        substitute_linear(f, MatrixFq.identity(F3, 3))


def test_archetype_invariance():
    # the three archetype generators fix f_1, f_2, f_3
    fring, basics = _archetype_basics()
    gens = [
        MatrixFq.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
        MatrixFq.from_rows(F5, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
        MatrixFq.from_rows(F5, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    ]
    for fi in basics:
        for g in gens:
            assert substitute_linear(fi, g.inverse()) == fi


def _closure(gens):
    field = gens[0].field
    n = gens[0].rows
    seen = {MatrixFq.identity(field, n)}
    frontier = list(seen)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                h = m * g
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    return sorted(seen, key=lambda m: tuple(field.encode(c) for c in m.entries))


@pytest.mark.parametrize("p,n,gens_rows,order", [
    (3, 2, [[[2, 0], [0, 1]], [[1, 1], [0, 1]]], 6),
    (5, 2, [[[1, 0], [0, 2]], [[1, 1], [0, 1]]], 20),
    (2, 3, [[[1, 0, 1], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]], 4),
])
def test_substitution_is_right_action(p, n, gens_rows, order):
    field = make_field(p)
    gens = [MatrixFq.from_rows(field, rows) for rows in gens_rows]
    group = _closure(gens)
    assert len(group) == order
    ring = PolyRing(field, n)
    f = ring.variable(0) ** 2 * ring.variable(n - 1) + ring.variable(n - 1) + 1
    images = {g: substitute_linear(f, g) for g in group}
    for a in group:
        fa = images[a]
        for b in group:
            assert substitute_linear(fa, b) == images[a * b]


# -- textual form -----------------------------------------------------------

def test_poly_str():
    r5 = PolyRing(F5, 3)
    x1, x3 = r5.variable(0), r5.variable(2)
    f1 = x1 ** 5 - x1 * x3 ** 4
    assert poly_str(f1) == "1*x1^5 + 4*x1*x3^4"
    assert poly_str(r5.zero()) == "0"
    assert poly_str(r5.constant(2) + x3) == "1*x3 + 2"
    fring = PolyRing(F5, 2, weights=(5, 4), prefix="f")
    assert poly_str(fring.variable(0) + fring.variable(1) ** 2) == "1*f2^2 + 1*f1"
