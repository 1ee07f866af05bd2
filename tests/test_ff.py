"""Field arithmetic, sparse elimination, and Lucas binomials.

Oracles: an in-test exhaustive irreducibility scan (trial division by all
lower-degree monic polynomials), integer powering for element orders, one
FieldElem operation per cell for the lookup tables, sympy's
DomainMatrix over GF(p) for ranks, a per-pivot RREF loop and the earlier
dense round-based echelon kernel for the sparse kernel, math.comb for
binomials, and exhaustive kernel counting over tiny extension fields.
"""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from frobpow import ff
from frobpow.ff import (
    CapExceeded,
    CodeEntries,
    Field,
    FieldElem,
    MatrixFq,
    _tables,
    binom_mod_p,
    check_cap,
    check_power_cap,
    code_arithmetic,
    embed,
    factor_prime_power,
    make_field,
    nullspace,
    nullspace_codes,
    rank_codes,
    root_of_unity,
)

F2, F3, F5, F7 = make_field(2), make_field(3), make_field(5), make_field(7)
F4, F8, F9, F25, F27, F49, F81 = (
    make_field(2, 2), make_field(2, 3), make_field(3, 2), make_field(5, 2),
    make_field(3, 3), make_field(7, 2), make_field(3, 4),
)
ALL_FIELDS = [F2, F3, F5, F7, F4, F8, F9, F25, F27, F49]

fields_st = st.sampled_from(ALL_FIELDS)


@st.composite
def field_and_elems(draw, count=3):
    f = draw(fields_st)
    codes = draw(st.lists(st.integers(0, f.order - 1), min_size=count, max_size=count))
    return f, [f.decode(c) for c in codes]


# -- modulus selection ------------------------------------------------------

def _poly_rem(a, b, p):
    # remainder of a by monic b, coefficient lists low-to-high
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            for j in range(db):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
        a[i] = 0
    return [c % p for c in a[:db]]


def _oracle_irreducible(mod, p):
    # trial division by every monic polynomial of degree 1..deg/2
    r = len(mod) - 1
    for d in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if not any(_poly_rem(mod, div, p)):
                return False
    return True


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4), (2, 6)])
def test_modulus_is_lex_smallest_irreducible(p, r):
    field = make_field(p, r)
    assert _oracle_irreducible(list(field.modulus), p)
    for tail in itertools.product(range(p), repeat=r):
        cand = list(tail) + [1]
        if cand == list(field.modulus):
            break
        assert not _oracle_irreducible(cand, p)


def test_make_field_refuses_huge_extension_fields():
    # no code arithmetic fits GF(p^r) once (p - 1)^2 overflows an int64
    with pytest.raises(ValueError, match="too large for int64"):
        make_field(4294967311, 2)
    assert make_field(3037000493).order == 3037000493


def test_make_field_pinned_moduli():
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1, the unique one
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1; x^2+x and x^2+2x have roots
    assert make_field(5).modulus == (0, 1)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError, match="divisible by 2"):
        make_field(6)
    with pytest.raises(ValueError, match="divisible by 3"):
        make_field(9, 2)
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(ValueError, match="reducible"):
        Field(2, 2, (0, 0, 1))  # x^2
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1))  # not degree r
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1, 2))  # not monic after reduction
    with pytest.raises(ValueError):
        Field(5, 0, (0, 1))
    with pytest.raises(ValueError):
        Field(2, 1, (1, 1, 1))  # r = 1 takes the placeholder only
    assert make_field(23).p == 23  # trial division stops once d^2 > p


PSI_12 = 318665857834031151167461  # least strong pseudoprime to every base up to 37


def test_primality_matches_sympy():
    from sympy import isprime
    rng = random.Random(20261018)
    cases = [*range(-2, 3000), *(rng.randrange(10 ** 6, 10 ** 22) for _ in range(400)),
             561, 3215031751, 3825123056546413051, 2 ** 61 - 1, PSI_12,
             (10 ** 6 + 3) * (10 ** 6 + 33), (10 ** 6 + 3) ** 2]
    for n in cases:
        assert (ff._not_prime_reason(n) is None) == isprime(n), n


def test_primality_messages():
    # trial division names the least divisor; Miller-Rabin names its witness
    with pytest.raises(ValueError, match=r"^7000021 is not prime \(divisible by 7\)$"):
        make_field(7 * 1000003)
    with pytest.raises(ValueError, match=r"is not prime \(base 2 witnesses"):
        make_field((10 ** 6 + 3) * (10 ** 6 + 33))
    with pytest.raises(ValueError, match=r"is not prime \(base 41 witnesses"):
        make_field(PSI_12)
    with pytest.raises(ValueError, match="too large for an exact primality test"):
        make_field(2 ** 89 - 1)  # prime, but past the range where the bases are exact
    assert make_field(2 ** 61 - 1).order == 2 ** 61 - 1


def test_factor_prime_power_by_integer_roots():
    from sympy import factorint
    for q in range(-2, 5000):
        factors = factorint(q) if q > 1 else {}
        if len(factors) == 1:
            assert factor_prime_power(q) == next(iter(factors.items()))
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                factor_prime_power(q)
    for p, r in [(10 ** 6 + 3, 2), (2 ** 61 - 1, 1), (2 ** 61 - 1, 3), (3, 40), (2, 200)]:
        assert factor_prime_power(p ** r) == (p, r)
    for q in [6 ** 5, ((10 ** 6 + 3) * (10 ** 6 + 33)) ** 2, 2 ** 20 * 3]:
        with pytest.raises(ValueError, match="not a prime power"):
            factor_prime_power(q)


@pytest.mark.parametrize("p,modulus,tests", [(10007, (1, 0, 1), 1), (10009, (1, 5, 1), 6)])
def test_modulus_search_starts_at_constant_term_one(monkeypatch, p, modulus, tests):
    # the p candidates with constant term 0 are divisible by x and skipped
    calls = []
    real = ff._is_irreducible
    monkeypatch.setattr(ff, "_is_irreducible", lambda mod, p: calls.append(mod) or real(mod, p))
    field = make_field.__wrapped__(p, 2)  # bypass the cache
    assert field.modulus == modulus
    assert len(calls) == tests + 1  # the search, then Field's own validation


# -- element arithmetic -----------------------------------------------------

def _check_axioms(f, a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + f.zero() == a
    assert a * f.one() == a
    assert a - a == f.zero()
    assert a + (-a) == f.zero()
    if a:
        assert a * a.inverse() == f.one()
        assert (b / a) * a == b


def test_field_axioms_random():
    rng = random.Random(20260822)
    for f in ALL_FIELDS:
        for _ in range(1000):
            a, b, c = (f.decode(rng.randrange(f.order)) for _ in range(3))
            _check_axioms(f, a, b, c)


@given(field_and_elems())
def test_field_axioms_property(fe):
    f, (a, b, c) = fe
    _check_axioms(f, a, b, c)


def test_frobenius_exhaustive():
    for f in [F2, F3, F5, F7, F4, F8, F9, F25, F27, F49, F81]:
        assert f.order <= 81
        els = list(f.elements())
        for a in els:
            assert a ** f.order == a
            for b in els:
                assert (a + b) ** f.p == a ** f.p + b ** f.p


def test_int_coercion_and_division():
    a = F5.elem(3)
    assert 2 + a == F5.elem(0) and a - 4 == 4 and 1 - a == 3
    assert 2 * a == 1 and a / 2 == 4 and 2 / a == 4
    assert a ** -1 == 2 and F5.elem(7) == 2
    assert F4.elem([1, 1]) * F4.elem([0, 1]) == F4.elem(1)  # (1+x)x = x+x^2 = 1
    # powers at and past q - 1, negative powers and a zero base, against
    # repeated multiplication
    for f in (F7, F4, F9):
        for a in f.elements():
            acc = f.one()
            for k in range(2 * f.order + 1):
                assert a ** k == acc
                if a:
                    assert a ** -k * acc == f.one()
                elif k:
                    with pytest.raises(ZeroDivisionError):
                        a ** -k
                acc = acc * a


def test_elem_validation():
    with pytest.raises(ZeroDivisionError):
        F5.zero().inverse()
    with pytest.raises(ValueError, match="field mismatch"):
        F5.elem(1) + F3.elem(1)
    with pytest.raises(ValueError):
        F4.elem([1, 0, 1])
    with pytest.raises(ValueError):
        F4.elem(F9.elem(1))
    assert F4.elem(F4.one()) == F4.one()
    with pytest.raises(ValueError):
        F5.zero().order()


def test_unrelated_operands():
    a = F5.elem(3)
    for op in (lambda: a + "x", lambda: a - "x", lambda: "x" - a, lambda: a * "x",
               lambda: a / "x", lambda: "x" / a):
        with pytest.raises(TypeError):
            op()
    assert (a == "x") is False
    assert (a != "x") is True
    assert a ** 0 == F5.one()


def test_elements_lex_enumeration():
    for f in (F5, F4, F9):
        seen = [x.coeffs for x in f.elements_lex()]
        assert seen == sorted(seen) and len(seen) == f.order
        assert sorted(seen) == sorted(x.coeffs for x in f.elements())


# -- powers -----------------------------------------------------------------

POWER_FIELDS = [F2, F3, F5, F7, make_field(31), make_field(499),
                F4, F9, F25, F49, F8, F27]


@given(st.sampled_from(POWER_FIELDS), st.data())
@settings(max_examples=150)
def test_powers_match_builtin_pow_and_repeated_products(f, data):
    x = f.decode(data.draw(st.integers(0, f.order - 1)))
    k = data.draw(st.integers(-2 * f.order, 2 * f.order))
    if not x:
        if k < 0:
            with pytest.raises(ZeroDivisionError):
                x ** k
        else:
            assert x ** k == (f.one() if k == 0 else f.zero())
        return
    product = f.one()
    for _ in range(abs(k)):
        product = product * x
    if k >= 0:
        assert x ** k == product
    else:
        assert x ** k * product == f.one()
    if f.r == 1:
        assert (x ** k).coeffs == (pow(x.coeffs[0], k, f.p),)


def test_zero_powers():
    for f in POWER_FIELDS:
        assert f.zero() ** 0 == f.one()
        assert f.zero() ** 5 == f.zero()
        with pytest.raises(ZeroDivisionError):
            f.zero() ** -3


def test_prime_field_powers_make_no_products(monkeypatch):
    products = []
    mul = FieldElem.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElem, "__mul__", counted)
    monkeypatch.setattr(FieldElem, "__rmul__", counted)
    for p in (2, 31, 499, 3037000493):
        c = (p + 1) // 2
        x = make_field(p).elem(c)
        assert (x ** (p + 5)).coeffs == (pow(c, p + 5, p),)
        assert x.inverse().coeffs == (pow(c, -1, p),)
        assert x.order() >= 1
    assert products == []
    assert F9.elem([1, 1]) ** 2 == F9.elem([1, 1]) * F9.elem([1, 1])
    assert products == [1]


# -- roots of unity ---------------------------------------------------------

def test_orders_in_f5_by_integer_powering():
    for base in range(2, 5):
        k = 1
        while pow(base, k, 5) != 1:
            k += 1
        assert F5.elem(base).order() == k
    assert F5.elem(2).order() == 4  # 2,4,3,1


def test_orders_match_exhaustive_powering():
    for f in ALL_FIELDS:
        for x in list(f.elements())[1:]:
            y, k = x, 1
            while y != f.one():
                y, k = y * x, k + 1
            assert x.order() == k


def test_root_of_unity_examples():
    assert root_of_unity(F5, 1) == F5.one()
    assert root_of_unity(F5, 4) == F5.elem(2)
    assert root_of_unity(F4, 3).coeffs == (0, 1)  # the class of x


def test_root_of_unity_exact_order():
    for f in ALL_FIELDS:
        q1 = f.order - 1
        for e in range(1, q1 + 1):
            if q1 % e == 0:
                w = root_of_unity(f, e)
                assert w.order() == e
                assert w ** e == f.one()


def test_root_of_unity_lex_first():
    # independently scan coefficient-lex tuples for the first element of order e
    for f, e in [(F9, 4), (F4, 3), (F25, 8), (F7, 6)]:
        for coeffs in itertools.product(range(f.p), repeat=f.r):
            x = f.elem(coeffs)
            if x and x.order() == e:
                assert root_of_unity(f, e) == x
                break


def test_huge_prime_orders_and_roots():
    # orders come from the prime divisors of q - 1 and the lex scan is lazy,
    # so neither enumerates the p residues
    from sympy.ntheory import n_order
    for p in (3037000507, 4294967311):
        F = make_field(p)
        assert next(F.elements_lex()) == F.zero()
        for base in (2, 3, p - 1):
            assert F.elem(base).order() == n_order(base, p)
        assert root_of_unity(F, p - 1).order() == p - 1


def _prime_powers_up_to(limit):
    for q in range(2, limit + 1):
        try:
            yield factor_prime_power(q)
        except ValueError:
            pass


def test_root_of_unity_matches_the_plain_scan_on_every_small_field():
    # the plain scan, for every order at once: walk the powers of the
    # lex-first primitive element, where g^k has order (q - 1)/gcd(k, q - 1),
    # and keep the least coefficient tuple of each order
    for p, r in _prime_powers_up_to(1024):
        f = make_field(p, r)
        q1 = f.order - 1
        g = next(x for x in f.elements_lex() if x and x.order() == q1)
        orders, x = {}, f.one()
        for k in range(q1):
            orders[x.coeffs] = q1 // math.gcd(k, q1)
            x = x * g
        first = {}
        for coeffs in sorted(orders):
            first.setdefault(orders[coeffs], coeffs)
        assert sorted(first) == [e for e in range(1, q1 + 1) if q1 % e == 0]
        for e, coeffs in first.items():
            assert root_of_unity(f, e).coeffs == coeffs, (p, r, e)


def test_root_of_order_two_is_minus_one_without_a_scan(monkeypatch):
    # minus one is the last residue, so the scan would test every other one
    scanned = []
    lex = Field.elements_lex

    def counted(field):
        for x in lex(field):
            scanned.append(x)
            assert len(scanned) < 100, "scanned the field"
            yield x

    monkeypatch.setattr(Field, "elements_lex", counted)
    root_of_unity.cache_clear()
    for p in (1000003, 3037000493, 2 ** 61 - 1):
        f = make_field(p)
        assert root_of_unity(f, 2) == f.elem(-1)


def test_root_of_unity_is_cached_per_field_and_order():
    assert root_of_unity(F25, 8) is root_of_unity(make_field(5, 2), 8)
    assert root_of_unity(F25, 8) is not root_of_unity(F25, 4)


def test_root_of_unity_error():
    with pytest.raises(ValueError, match="no primitive 3-th root of unity"):
        root_of_unity(F5, 3)
    with pytest.raises(ValueError):
        root_of_unity(F4, 2)
    with pytest.raises(ValueError):
        root_of_unity(F4, 0)


# -- linear algebra ---------------------------------------------------------

def test_nullspace_examples():
    assert nullspace(MatrixFq.identity(F3, 2)) == []
    m = MatrixFq.from_rows(F2, [[1, 1], [0, 0]])
    assert nullspace(m) == [(F2.one(), F2.one())]
    m = MatrixFq.from_rows(F5, [[1, 2, 3, 4]])
    basis = nullspace(m)
    assert len(basis) == 3  # rank 1 forces nullity 3
    expect = [(3, 1, 0, 0), (2, 0, 1, 0), (1, 0, 0, 1)]
    assert [[int(str(c)) for c in v] for v in basis] == [list(e) for e in expect]


def test_nullspace_empty_matrix():
    m = MatrixFq(F3, 0, 4, ())
    basis = nullspace(m)
    assert len(basis) == 4
    for i, v in enumerate(basis):
        assert [bool(c) for c in v] == [j == i for j in range(4)]


def _sympy_rank(rows, p):
    K = GF(p)
    shape = (len(rows), len(rows[0]))
    return DomainMatrix([[K(v) for v in row] for row in rows], shape, K).rank()


def test_rank_against_sympy():
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        f = make_field(p)
        for _ in range(40):
            nr, nc = rng.randrange(1, 7), rng.randrange(1, 9)
            rows = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
            assert rank_codes(rows, f) == _sympy_rank(rows, p)


@given(field_and_elems(count=0), st.integers(1, 5), st.integers(1, 6), st.integers(0, 10 ** 9))
def test_nullspace_annihilates_and_counts(fe, nr, nc, seed):
    f, _ = fe
    rng = random.Random(seed)
    rows = [[rng.randrange(f.order) for _ in range(nc)] for _ in range(nr)]
    basis = nullspace_codes(rows, f)
    rank = rank_codes(rows, f)
    assert rank + len(basis) == nc
    m = MatrixFq.from_rows(f, [[f.decode(v) for v in row] for row in rows])
    for vec in basis:
        image = m.apply(tuple(f.decode(int(v)) for v in vec))
        assert all(not c for c in image)
    if len(basis):
        assert rank_codes(basis, f) == len(basis)


@given(field_and_elems(count=0), st.integers(1, 6), st.integers(1, 7), st.integers(0, 10 ** 9))
def test_nullspace_matches_loop_reference(fe, nr, nc, seed):
    # the canonical parameterization, filled one entry at a time
    f, _ = fe
    rng = random.Random(seed)
    rows = [[rng.choice([0, rng.randrange(f.order)]) for _ in range(nc)] for _ in range(nr)]
    rref, pivots = _per_pivot_rref(rows, f)
    free = [c for c in range(nc) if c not in pivots]
    expected = np.zeros((len(free), nc), dtype=np.int64)
    for k, fc in enumerate(free):
        expected[k, fc] = 1
        for i, pc in enumerate(pivots):
            expected[k, pc] = f.encode(-f.decode(int(rref[i, fc])))
    assert np.array_equal(nullspace_codes(rows, f), expected)


# -- the round-based elimination kernel against the per-pivot loop ----------

def _per_pivot_rref(a, field):
    """Reference RREF, one pivot at a time: search, swap, normalize, eliminate.

    Plain residues mod p or the lookup tables, on an int64 copy; returns the
    nonzero RREF rows and the pivot columns.
    """
    a = np.array(a, dtype=np.int64)
    if field.r > 1:
        add, mul, neg, inv = _tables(field)

        def normalize(row, c):
            return mul[inv[c], row]

        def submul(rows, factors, pivot):
            return add[rows, mul[neg[factors][:, None], pivot]]
    else:
        p = field.p
        a %= p

        def normalize(row, c):
            return pow(int(c), p - 2, p) * row % p

        def submul(rows, factors, pivot):
            return (rows - np.outer(factors, pivot)) % p

    nrows, ncols = a.shape
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank] = normalize(a[rank], a[rank, col])
        other = np.nonzero(a[:, col])[0]
        other = other[other != rank]
        if other.size:
            a[other] = submul(a[other], a[other, col], a[rank])
        pivots.append(col)
    return a[:len(pivots)], pivots


def _rref_from_nullspace(a, field):
    """(RREF rows, pivot columns) read back from nullspace_codes(a).

    The canonical nullspace and the pivot list determine the RREF: a free
    column is the last nonzero of its basis row, and the RREF row of pivot
    column c holds, at each free column, the negated basis entry at c.
    """
    basis = nullspace_codes(a, field)
    ncols = np.shape(a)[1]
    free = [int(np.flatnonzero(row)[-1]) for row in basis]
    pivots = [c for c in range(ncols) if c not in free]
    rows = np.zeros((len(pivots), ncols), dtype=np.int64)
    rows[np.arange(len(pivots)), pivots] = 1
    if free:
        rows[:, free] = code_arithmetic(field).neg(basis[:, pivots]).T
    return rows, pivots


def _dense_echelon(a, field):
    """Reference echelon form, densely by rounds: (pivot rows, their columns).

    Each round every live row finds its leading column, the first row leading
    a column without a pivot becomes its normalized pivot, and every other
    live row is reduced by the pivot of its leading column in one step.
    """
    codes = code_arithmetic(field)
    if field.r > 1:
        add, mul, neg, _ = _tables(field)

        def submul(rows, factors, pivots, index):
            rows[...] = add[rows, mul[neg[factors][:, None], pivots[index]]]
    else:
        p = field.p

        def submul(rows, factors, pivots, index):
            rows[...] = (rows - factors[:, None] * pivots[index]) % p

    a = np.array(a, dtype=np.int64)
    if field.r == 1:
        a %= field.p
    work = a[a.any(axis=1)]
    owner = np.full(work.shape[1], -1, dtype=np.intp)
    index = np.arange(len(work))
    pcols = []
    top, end, start = 0, len(work), 0
    while top < end and start < work.shape[1]:
        live = work[top:end, start:]
        nonzero = live != 0
        lead = nonzero.argmax(axis=1)
        rows = nonzero[index[:len(lead)], lead].nonzero()[0]
        rows = rows[lead[rows].argsort(kind="stable")]
        lead = lead[rows] + start
        fresh = np.empty(len(rows), dtype=bool)
        fresh[:1] = True
        np.not_equal(lead[1:], lead[:-1], out=fresh[1:])
        fresh &= owner[lead] < 0
        pick = (~fresh).argsort(kind="stable")
        rows, lead, k = rows[pick], lead[pick], int(np.count_nonzero(fresh))
        end = top + len(rows)
        work[top:end, start:] = live[rows]
        new = work[top:top + k, start:]
        new[...] = codes.mul(codes.inv(new[index[:k], lead[:k] - start])[:, None], new)
        owner[lead[:k]] = index[top:top + k]
        pcols.extend(lead[:k].tolist())
        top, lead = top + k, lead[k:]
        if top == end:
            break
        start = int(lead[0])
        live = work[top:end, start:]
        submul(live, live[index[:len(lead)], lead - start], work[:, start:], owner[lead])
        start += 1
    return work[:top], pcols


KERNEL_FIELDS = [F2, F5, make_field(46337), make_field(46349), make_field(3037000493),
                 F4, F8, F9]


def _kernel_cases(field, rng):
    """Random code matrices: densities 0.01-1, zero rows and columns, repeated rows."""
    for density in (0.01, 0.05, 0.2, 0.5, 1.0):
        for nr, nc in ((1, 1), (3, 9), (9, 3), (12, 12), (40, 15), (15, 40)):
            a = rng.integers(1, field.order, (nr, nc)) * (rng.random((nr, nc)) < density)
            yield a
            if nr > 2 and nc > 2:
                b = a.copy()
                b[0], b[:, 1] = 0, 0
                b[-1] = b[1]
                yield b
                yield np.repeat(a, 3, axis=0)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_matches_per_pivot_loop(field):
    rng = np.random.default_rng(field.order % 1000)
    dtype = code_arithmetic(field).dtype
    for a in _kernel_cases(field, rng):
        expected_rows, expected_pivots = _per_pivot_rref(a, field)
        a = a.astype(dtype)
        before = a.copy()
        rows, pivots = _rref_from_nullspace(a, field)
        assert pivots == expected_pivots
        assert np.array_equal(rows, expected_rows)
        assert rank_codes(a, field) == len(expected_pivots)
        assert sorted(_dense_echelon(a, field)[1]) == expected_pivots
        free = [c for c in range(a.shape[1]) if c not in pivots]
        basis = nullspace_codes(a, field)
        assert basis.shape == (len(free), a.shape[1])
        neg = code_arithmetic(field).neg
        for k, fc in enumerate(free):
            assert basis[k, fc] == 1 and not basis[k, [c for c in free if c != fc]].any()
            assert basis[k, pivots].tolist() == [int(neg(v)) for v in expected_rows[:, fc]]
        assert np.array_equal(a, before)  # the caller's matrix is never written


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_inverse_matches_the_reference(field):
    rng = np.random.default_rng(field.order % 997)
    n, found = 6, 0
    while found < 5:
        a = rng.integers(0, field.order, (n, n)) * (rng.random((n, n)) < 0.6)
        aug = np.hstack([a, np.eye(n, dtype=np.int64)])
        rows, pivots = _per_pivot_rref(aug, field)
        m = MatrixFq.from_rows(field, [[field.decode(int(c)) for c in row] for row in a])
        if pivots[:n] != list(range(n)):
            with pytest.raises(ValueError, match="not invertible"):
                m.inverse()
            continue
        found += 1
        inv = m.inverse()
        assert [[field.encode(inv.entry(i, j)) for j in range(n)] for i in range(n)] \
            == rows[:, n:].tolist()


def _mixed_blocks(field, rng):
    """Blocks of every kind: empty, 1 x 1, zero rows and columns, 1%-sparse, dense."""
    blocks = [np.zeros((0, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
              np.zeros((0, 4), dtype=np.int64), np.array([[0]]), np.array([[1]]),
              np.array([[field.order - 1]]), np.zeros((5, 7), dtype=np.int64)]
    for (nr, nc), density in (((60, 50), 0.01), ((200, 120), 0.01), ((30, 30), 1.0),
                              ((25, 40), 1.0), ((40, 25), 0.3), ((12, 12), 0.2)):
        a = rng.integers(1, field.order, (nr, nc)) * (rng.random((nr, nc)) < density)
        a[rng.integers(nr)] = 0
        a[:, rng.integers(nc)] = 0
        blocks.append(a)
    blocks.append(np.repeat(blocks[-1], 3, axis=0))
    order = rng.permutation(len(blocks))
    return [blocks[i] for i in order]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_pivot_columns_count_interleaved_blocks(field):
    # independent blocks whose columns interleave, each block's in order: the
    # pivots are every block's own pivot columns, so counting them per block
    # gives its rank
    rng = np.random.default_rng(field.order % 991)
    dtype = code_arithmetic(field).dtype
    blocks = _mixed_blocks(field, rng)
    label = rng.permutation(np.repeat(np.arange(len(blocks)), [a.shape[1] for a in blocks]))
    rows, cols, codes, expected = [], [], [], []
    row0 = 0
    for b, a in enumerate(blocks):
        place = np.flatnonzero(label == b)  # the block's columns, ascending
        r, c = np.nonzero(a)
        rows.append(r + row0)
        cols.append(place[c])
        codes.append(a[r, c])
        row0 += a.shape[0]
        expected += place[_dense_echelon(a, field)[1]].tolist() if a.size else []
    shuffle = rng.permutation(sum(map(len, rows)))  # entries in no particular order
    rows = np.concatenate(rows)[shuffle].astype(np.int32)
    cols = np.concatenate(cols)[shuffle].astype(np.int32)
    codes = np.concatenate(codes)[shuffle].astype(dtype)
    args = [rows, cols, codes]
    before = [x.copy() for x in args]
    entries = CodeEntries(len(rows), row0, len(label), field)
    entries.add(rows, cols, codes)
    pivots = entries.pivot_columns()
    assert pivots.tolist() == sorted(expected)
    assert np.bincount(label[pivots], minlength=len(blocks)).tolist() == \
        [rank_codes(a, field) for a in blocks]
    for x, y in zip(args, before):
        assert np.array_equal(x, y)


def test_kernel_degenerate_shapes():
    for field in KERNEL_FIELDS:
        for shape in ((0, 4), (4, 0), (0, 0)):
            rows, pivots = _rref_from_nullspace(np.zeros(shape, dtype=np.int64), field)
            assert pivots == [] and rows.shape == (0, shape[1])
            assert rank_codes(np.zeros(shape, dtype=np.int64), field) == 0
        for code in (0, 1, field.order - 1):
            rows, pivots = _rref_from_nullspace(np.array([[code]]), field)
            assert rows.tolist() == ([[1]] if code else []) and pivots == ([0] if code else [])
            assert rank_codes([[code]], field) == (1 if code else 0)
        assert CodeEntries(0, 1, 3, field).pivot_columns().tolist() == []


def test_entry_keys_must_fit_63_bits():
    # GF(3037000493) codes take 32 bits, which leaves 31 for the row and column
    field = make_field(3037000493)
    CodeEntries(0, 2 ** 16, 2 ** 15, field)
    with pytest.raises(CapExceeded, match="63-bit entry keys"):
        CodeEntries(0, 2 ** 16 + 1, 2 ** 15, field)


def test_code_dtype_is_the_narrowest_safe_one():
    # a product of two codes plus a code must fit the dtype
    assert code_arithmetic(make_field(46337)).dtype == np.int32
    assert code_arithmetic(make_field(46349)).dtype == np.int64
    assert code_arithmetic(F4).dtype == np.int32
    assert code_arithmetic(make_field(3037000493)).dtype == np.int64
    for p in (46337, 46349, 3037000493):
        dtype = code_arithmetic(make_field(p)).dtype
        assert (p - 1) ** 2 + p - 1 <= np.iinfo(dtype).max


def test_residue_arithmetic_at_the_int32_edge():
    # the largest int32-coded prime, every operand at p - 1 or p - 2
    field = make_field(46337)
    codes = code_arithmetic(field)
    p = field.p
    a = np.array([p - 1, p - 1, 1, p - 2], dtype=codes.dtype)
    b = np.array([p - 1, 1, p - 1, p - 2], dtype=codes.dtype)
    assert codes.mul(a, b).tolist() == [x * y % p for x, y in zip(a.tolist(), b.tolist())]
    assert codes.add(a, b).tolist() == [(x + y) % p for x, y in zip(a.tolist(), b.tolist())]
    assert codes.neg(a).tolist() == [-x % p for x in a.tolist()]
    assert (codes.mul(codes.inv(a), a) == 1).all()


@pytest.mark.parametrize("field", [F5, F4, make_field(3037000493)], ids=str)
@pytest.mark.parametrize("shape,density", [((1200, 300), 0.01), ((300, 300), 1.0),
                                           ((20000, 1), 1.0)],
                         ids=["tall-sparse", "dense-square", "one-entry-rows"])
@pytest.mark.parametrize("eliminate", [rank_codes, nullspace_codes])
def test_elimination_peak_within_the_matrix_budget(field, shape, density, eliminate,
                                                   monkeypatch):
    # every allocation is charged first: the tracemalloc peak of an
    # elimination stays within the largest amount it charged the budget
    rng = np.random.default_rng(5)
    values = rng.integers(1, field.order, shape) * (rng.random(shape) < density)
    if shape[0] > shape[1]:
        values[::4] = 0  # rows no transvection term reaches
    a = values.astype(code_arithmetic(field).dtype)
    eliminate(a[:3], field)  # first calls import and cache what they need
    charged = []
    check = ff.check_budget

    def record(nbytes, what):
        charged.append(nbytes)
        check(nbytes, what)

    monkeypatch.setattr(ff, "check_budget", record)
    tracemalloc.start()
    try:
        eliminate(a, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(charged)


def test_elimination_charges_the_budget_before_it_allocates(monkeypatch):
    a = np.eye(40, dtype=np.int64)
    monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", 0)
    for eliminate in (rank_codes, nullspace_codes):
        with pytest.raises(CapExceeded, match="eliminating a matrix of 40 entries"):
            eliminate(a, F5)
    # a dense matrix fits exactly, but its first round merges 39 new entries
    # into each of 39 rows, and that fires mid-elimination
    a = np.random.default_rng(3).integers(1, 5, (40, 40))
    monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", (1600 + 40) * ff._ENTRY_BYTES)
    with pytest.raises(CapExceeded, match="eliminating with 3042 live and 40 pivot entries"):
        rank_codes(a, F5)


def test_kernel_size_exhaustive_extension_fields():
    # |ker| = q^nullity, counted by brute enumeration of all vectors
    rng = random.Random(11)
    x = F4.elem([0, 1])
    crafted = [
        (F4, [[0, 1], [1, 1]]),          # pivot needs a row swap
        (F4, [[1, 0], [0, 1]]),          # nothing to eliminate
        (F4, [[x, x], [x, x]]),
        (F9, [[0, 0], [0, 1]]),
    ]
    cases = [(f, [[f.elem(v) for v in row] for row in rows]) for f, rows in crafted]
    for f in (F4, F9):
        for _ in range(6):
            nr, nc = rng.randrange(1, 4), rng.randrange(1, 4)
            cases.append((f, [[f.decode(rng.randrange(f.order)) for _ in range(nc)]
                              for _ in range(nr)]))
    for f, rows in cases:
        m = MatrixFq.from_rows(f, rows)
        count = 0
        for vec in itertools.product(list(f.elements()), repeat=m.cols):
            if all(not c for c in m.apply(vec)):
                count += 1
        nullity = len(nullspace(m))
        assert count == f.order ** nullity


def test_degenerate_shapes():
    from frobpow.ff import _ppowmod
    assert rank_codes([], F5) == 0
    assert rank_codes(np.zeros((0, 5), dtype=np.int64), F5) == 0
    assert nullspace_codes([], F5).shape == (0, 0)
    assert nullspace_codes(np.zeros((2, 0), dtype=np.int64), F5).shape == (0, 0)
    assert _rref_from_nullspace(np.zeros((2, 0), dtype=np.int64), F5)[1] == []
    assert _ppowmod([0, 1], 0, [1, 1, 1], 2) == [1]
    assert MatrixFq.from_rows(F2, []).rows == 0


def test_matrix_inverse():
    m = MatrixFq.from_rows(F5, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert m * inv == MatrixFq.identity(F5, 2)
    assert inv * m == MatrixFq.identity(F5, 2)
    x = F4.elem([0, 1])
    m4 = MatrixFq.from_rows(F4, [[x, 1], [1, x]])
    assert m4 * m4.inverse() == MatrixFq.identity(F4, 2)
    with pytest.raises(ValueError, match="not invertible"):
        MatrixFq.from_rows(F5, [[1, 2], [2, 4]]).inverse()
    with pytest.raises(ValueError):
        MatrixFq.from_rows(F5, [[1, 2, 3], [4, 5, 6]]).inverse()



def test_int64_headroom():
    # residue products (p - 1)^2 must fit in an int64: p = 3037000493 is the
    # largest prime that passes; larger ones used to overflow silently
    p = 3037000493
    F = make_field(p)
    m = MatrixFq.from_rows(F, [[3, p - 2], [p - 5, 7]])
    assert m * m.inverse() == MatrixFq.identity(F, 2)
    for p in (3037000507, 4294967311):
        # FieldElem arithmetic is exact at any size; only code arithmetic refuses
        F = make_field(p)
        m = MatrixFq.from_rows(F, [[3, p - 2], [p - 5, 7]])
        assert m * m.inverse() == MatrixFq.identity(F, 2)
        with pytest.raises(ValueError, match="too large for int64"):
            rank_codes([[1, 2]], F)

def test_matrix_det():
    assert MatrixFq.from_rows(F5, [[1, 2], [3, 4]]).det() == F5.elem(3)  # 4 - 6
    assert MatrixFq.from_rows(F5, [[1, 2], [2, 4]]).det() == F5.zero()
    assert MatrixFq.identity(F4, 3).det() == F4.one()
    swap = MatrixFq.from_rows(F3, [[0, 1], [1, 0]])
    assert swap.det() == -F3.one()
    x = F4.elem([0, 1])
    m = MatrixFq.from_rows(F4, [[x, 1], [1, x]])
    assert m.det() == x * x - F4.one()
    with pytest.raises(ValueError):
        MatrixFq.from_rows(F5, [[1, 2, 3]]).det()


@st.composite
def square_pairs(draw):
    # 0, 1 and -1 come often, so singular matrices come often in every field
    f = draw(st.sampled_from([F2, F5, F4, F9, make_field(3037000493)]))
    n = draw(st.integers(0, 4))
    code = st.one_of(st.sampled_from([0, 1, f.order - 1]), st.integers(0, f.order - 1))
    square = st.lists(st.lists(code, min_size=n, max_size=n), min_size=n, max_size=n)
    return f, n, *(MatrixFq.from_rows(f, [[f.decode(c) for c in row] for row in draw(square)])
                   for _ in range(2))


@given(square_pairs())
@settings(max_examples=300)
def test_det_and_inverse_agree(case):
    f, n, a, b = case
    assert (a * b).det() == a.det() * b.det()
    for m in (a, b, a * b):
        if not m.det():
            with pytest.raises(ValueError, match="not invertible"):
                m.inverse()
            continue
        assert m * m.inverse() == MatrixFq.identity(f, n) == m.inverse() * m


def test_matrix_apply_matches_mul():
    m = MatrixFq.from_rows(F7, [[1, 2, 3], [4, 5, 6]])
    v = (F7.elem(1), F7.elem(0), F7.elem(2))
    col = MatrixFq(F7, 3, 1, v)
    assert m.apply(v) == (m * col).entries
    with pytest.raises(ValueError):
        m.apply((F7.one(),))
    with pytest.raises(ValueError):
        m * MatrixFq.identity(F7, 2)
    with pytest.raises(ValueError):
        m * MatrixFq.identity(F5, 3)
    with pytest.raises(TypeError):
        m * 3


# -- binomials --------------------------------------------------------------

def test_binom_mod_p_against_factorials():
    for p in (2, 3, 5, 7):
        for d in range(65):
            for i in range(d + 5):  # math.comb gives 0 past the diagonal too
                assert binom_mod_p(d, i, p) == math.comb(d, i) % p


def test_binom_mod_p_pinned():
    # d = 2*5^2 - 1 = 49 has base-5 digits (4,4,1); i = 1+5+25 = 31 digits (1,1,1)
    assert binom_mod_p(49, 31, 5) == 1
    assert binom_mod_p(6, 2, 2) == 1  # digits 110 vs 010
    assert binom_mod_p(12, 0, 3) == 1
    assert binom_mod_p(3, 5, 7) == 0
    assert binom_mod_p(5, -1, 5) == 0


# -- embeddings -------------------------------------------------------------

def test_embed_prime_subfield():
    assert embed(F2, F4, F2.one()) == F4.one()
    assert embed(F2, F4, F2.zero()) == F4.zero()
    assert embed(F3, F9, F3.elem(2)) == F9.elem(2)
    assert embed(F5, F5, F5.elem(3)) == F5.elem(3)


def test_embed_is_ring_hom():
    F16 = make_field(2, 4)
    pairs = [(F2, F4), (F4, F16), (F3, F27), (F9, make_field(3, 4))]
    for src, dst in pairs:
        images = {}
        for a in src.elements():
            images[a] = embed(src, dst, a)
        assert len(set(images.values())) == src.order  # injective
        for a in src.elements():
            for b in src.elements():
                assert embed(src, dst, a + b) == images[a] + images[b]
                assert embed(src, dst, a * b) == images[a] * images[b]
            if a:
                assert images[a].order() == a.order()


def test_embed_root_satisfies_modulus():
    F16 = make_field(2, 4)
    z = embed(F4, F16, F4.elem([0, 1]))
    acc = F16.zero()
    for c in reversed(F4.modulus):
        acc = acc * z + c
    assert not acc


def test_embed_errors():
    with pytest.raises(ValueError):
        embed(F4, F8, F4.one())  # 2 does not divide 3
    with pytest.raises(ValueError):
        embed(F2, F9, F2.one())  # characteristic mismatch
    with pytest.raises(ValueError):
        embed(F2, F4, F3.one())  # element from the wrong field


# -- serialization ----------------------------------------------------------

def test_textual_forms():
    assert str(make_field(5)) == "GF(5; modulus=[0,1])"
    assert str(make_field(3, 2)) == "GF(9; modulus=[1,0,1])"
    assert str(F5.elem(3)) == "3"
    assert str(F9.elem([2, 1])) == "[2,1]"


def test_encode_decode_roundtrip():
    for f in ALL_FIELDS:
        for code in range(f.order):
            assert f.encode(f.decode(code)) == code


def test_table_cap():
    with pytest.raises(CapExceeded):
        _tables(make_field(2, 13))


def test_cap_messages_print_huge_counts_as_powers_of_two():
    with pytest.raises(CapExceeded, match=r"^s needs 99999999999999999999 u, above the cap of 1$"):
        check_cap(10 ** 20 - 1, 1, "s", "u")
    with pytest.raises(CapExceeded, match=r"^s needs about 2\^66 u, above the cap of about 2\^66$"):
        check_cap(10 ** 20 + 1, 10 ** 20, "s", "u")
    with pytest.raises(CapExceeded, match=r"^s needs about 2\^40000 u, above the cap of 1$"):
        check_cap(2 ** 40000, 1, "s", "u")  # past Python's 4300-digit str limit


def test_power_cap_refuses_like_check_cap_on_the_built_count():
    # both sides of the shortcut, near and far past the cap and 10^20
    for base, scale, shift, cap in itertools.product(
            (2, 3, 4, 7, 101, 2 ** 61 - 1), (-1, 0, 1, 2, 3), (0, 1, -2, 5),
            (1, 10 ** 6, 2 ** 90)):
        for bits in range(0, 400, 3):
            exp = max(1, round(bits / math.log2(base)))
            try:
                check_cap(scale * base ** exp + shift, cap, "s", "u")
                want = None
            except CapExceeded as exc:
                want = str(exc)
            try:
                check_power_cap(base, exp, cap, "s", "u", scale, shift)
                got = None
            except CapExceeded as exc:
                got = str(exc)
            assert got == want, (base, exp, scale, shift, cap)
    with pytest.raises(CapExceeded, match=r"^s needs about 2\^31699251 u, above the cap of 10$"):
        check_power_cap(3, 2 * 10 ** 7, 10, "s", "u", 2, -1)  # never built
    # an exponent past a float's range, whose k = 1.58496...e400 is itself past 20 digits
    with pytest.raises(CapExceeded, match=r"^s needs about 2\^about 2\^1329 u, above the cap "):
        check_power_cap(3, 10 ** 400, 10, "s", "u")


def _reference_tables(field):
    """(add, mul, neg, inv) over codes, one FieldElem operation per cell."""
    q = field.order
    elems = list(field.elements())
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    neg = np.zeros(q, dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    enc = field.encode
    for i, a in enumerate(elems):
        neg[i] = enc(-a)
        if a:
            inv[i] = enc(a.inverse())
        for j, b in enumerate(elems[: i + 1]):
            add[i, j] = add[j, i] = enc(a + b)
            mul[i, j] = mul[j, i] = enc(a * b)
    return add, mul, neg, inv


TABLE_FIELDS = [make_field(p, r) for p, r in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
                                              (2, 5), (7, 2), (2, 6), (3, 4), (11, 2), (5, 3)]]


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=str)
def test_tables_match_the_reference(field):
    for table, reference in zip(_tables(field), _reference_tables(field)):
        assert table.dtype == code_arithmetic(field).dtype
        assert np.array_equal(table, reference)


@pytest.mark.parametrize("field", TABLE_FIELDS + [F3, F7, make_field(101)], ids=str)
def test_discrete_logs(field):
    exp, log = ff.discrete_logs(field)
    nonzero = np.arange(1, field.order)
    assert sorted(exp.tolist()) == nonzero.tolist()
    assert np.array_equal(exp[log[nonzero]], nonzero)
    assert exp[1] == field.encode(root_of_unity(field, field.order - 1))


def test_discrete_logs_are_charged_before_they_exist():
    # 3037000492 logs would take hours of element products and 66 GiB
    with pytest.raises(CapExceeded, match=r"the discrete logs of GF\(3037000493\) needs"):
        ff.discrete_logs(make_field(3037000493))


@pytest.mark.parametrize("field", [make_field(2, 10), make_field(3, 6)], ids=str)
def test_table_peak_within_the_charge(field, monkeypatch):
    ff.discrete_logs(field)  # the first call builds it inside the charge too
    charged = []
    check = ff.check_budget

    def record(nbytes, what):
        charged.append(nbytes)
        check(nbytes, what)

    monkeypatch.setattr(ff, "check_budget", record)
    tracemalloc.start()
    try:
        _tables.__wrapped__(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(charged)
