"""Basic invariants, Groebner generators, and the fixed space of the quotient
by a Frobenius power, computed as exact linear algebra.

The quotient by (x_1^Q, ..., x_n^Q) with Q = q^m has the monomial basis
{x^a : a_i < Q}, graded by total degree and listed once, by degree, in a
monomial table.  A group element preserves degree, so each degree is a
block of consecutive columns, and every degree is built and eliminated at
once.  Fixed spaces are computed from generators only, on integer field
codes in numpy arrays, with no field element objects per monomial:

* a diagonal generator diag(d_1, ..., d_n) scales x^a, so it cuts the basis
  to the monomials with sum a_i log d_i = 0 mod q - 1;
* an elementary transvection whose inverse substitutes x_k -> x_k + c x_l
  sends x^a to sum_j C(a_k, j) c^j x^(a - j e_k + j e_l), so its (g - 1)
  columns are the terms j >= 1 with a_l + j < Q and C(a_k, j) nonzero mod
  p, read from a table of binomials made by Lucas' theorem;
* the (g - 1) blocks of all transvections are stacked into one sparse
  matrix, and a single elimination ranks every degree's block, or gives
  every degree's kernel; any other kind of generator is rejected.

The A/B decomposition is built as entry arrays too.  Every coefficient
lies in the prime subfield, so a residue mod p is its own code.  A is
spanned by the f-monomials' expansions, listed from a numpy grid of
f-exponents and expanded one binomial f_i at a time into terms (vector,
exponents, code); B by single monomials, a mask over the table.  Each
degree's A, B and stacked A + B rows are three column blocks of one
elimination.

Two caps bound the work.  The monomial cap bounds the Q^n exponent vectors
enumerated; ff.MATRIX_BYTE_CAP bounds the memory of listing them, of every
step of the A expansion and of every elimination, whose terms and entries
are counted and charged before any is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ff import CapExceeded, CodeEntries, MatrixFq, _code_dtype, _segments, check_budget, \
    code_arithmetic, discrete_logs, factor_prime_power, make_field
from .group import GroupElement, GroupSpec, build_group, full_gl_generators
from .poly import PolyRing, reduce_mod_frobenius, substitute_linear

DEFAULT_MONOMIAL_CAP = 10 ** 6


@dataclass(frozen=True)
class BasicInvariants:
    """The algebra generators f_1..f_n of the invariant ring, with their degrees."""

    polys: tuple
    weights: tuple

    @property
    def ring(self):
        return self.polys[0].ring

    def f_ring(self):
        return PolyRing(self.ring.field, self.ring.n, weights=self.weights, prefix="f")


@functools.lru_cache(maxsize=None)
def basic_invariants(spec):
    """The literal generator list; each entry is checked against the group action.

    GroupSpec forces ell = 0 over a proper extension and ell = n - 1, e = q - 1
    for the full stabilizer, so the binomials x_i^q - x_i x_n^(q-1), i < ell,
    cover the prime-field family and the full stabilizer alike.
    """
    n, q = spec.n, spec.q
    ring = PolyRing(spec.field, n)
    xs = [ring.variable(i) for i in range(n)]
    polys = [xs[i] ** q - xs[i] * xs[n - 1] ** (q - 1) for i in range(spec.ell)]
    polys += xs[spec.ell:n - 1] + [xs[n - 1] ** spec.e]
    weights = [q] * spec.ell + [1] * (n - 1 - spec.ell) + [spec.e]
    for g in build_group(spec):
        inv = g.mat.inverse()
        for f in polys:
            image = substitute_linear(f, inv)
            assert image == f, "generator fails to fix a basic invariant"
    return BasicInvariants(tuple(polys), tuple(weights))


def expand_f(fpoly, basics):
    """Expansion of an f-coordinate polynomial into x-coordinates."""
    xring = basics.ring
    out = xring.zero()
    for mono, c in fpoly.terms.items():
        term = xring.constant(c)
        for fi, a in zip(basics.polys, mono):
            if a:
                term = term * fi ** a
        out = out + term
    return out


@dataclass(frozen=True)
class HGenerators:
    """h_0, h_{1,a}, h_{2,a,b} in f-coordinates and expanded x-coordinates.

    Construction validates the closed x-expansions and membership in the
    Frobenius ideal.  List order is h_0, then h_{1,a} by a, then h_{2,a,b}
    lexicographically; division-based reductions always use this order.
    """

    spec: GroupSpec
    m: int
    h0: tuple            # (f-poly, x-poly)
    h1: tuple            # ((a, f-poly, x-poly), ...) ascending a
    h2: tuple            # ((a, b, f-poly, x-poly), ...) lex on (a, b)

    def as_list(self):
        out = [("h_0", *self.h0)]
        out += [(f"h_{{1,{a}}}", ff, xx) for a, ff, xx in self.h1]
        out += [(f"h_{{2,{a},{b}}}", ff, xx) for a, b, ff, xx in self.h2]
        return out

    def f_polys(self):
        return [f for _, f, _ in self.as_list()]

    def x_polys(self):
        return [x for _, _, x in self.as_list()]


def h_generators(spec, m):
    """Generators of the intersection ideal in f-coordinates, with expansions.

    Requires the maximal-root-space case (ell = n - 1 over the prime field)
    or the full stabilizer; w = q is the degree of the first basic invariants
    and e divides w^m - 1 exactly.
    """
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    if spec.ell != spec.n - 1:
        raise ValueError("h-generators need ell = n - 1 or the full stabilizer")
    basics = basic_invariants(spec)
    n, e, w = spec.n, spec.e, spec.q
    P = w ** m
    fring = basics.f_ring()
    xring = basics.ring
    fs = [fring.variable(i) for i in range(n)]
    xs = [xring.variable(i) for i in range(n)]

    def exact(num):
        assert num % e == 0, "semisimple order fails to divide a power gap"
        return num // e

    def expand(fpoly):
        return expand_f(fpoly, basics)

    h0_f = fs[n - 1] ** (1 + exact(P - 1))
    h0_x = expand(h0_f)
    assert h0_x == xs[n - 1] ** (P + e - 1)
    assert reduce_mod_frobenius(h0_x, P) == xring.zero()

    h1 = []
    for a in range(n - 1):
        acc = fring.zero()
        for k in range(m):
            acc = acc + fs[n - 1] ** (1 + exact(P - w ** (m - k))) * fs[a] ** (w ** (m - k - 1))
        hx = expand(acc)
        assert hx == xs[a] ** P * xs[n - 1] ** e - xs[a] * xs[n - 1] ** (P + e - 1)
        assert reduce_mod_frobenius(hx, P) == xring.zero()
        h1.append((a + 1, acc, hx))

    h2 = []
    s = w ** (m - 1)
    gap = (w - 1) * s
    for a in range(n - 1):
        for b in range(a, n - 1):
            hf = fs[a] ** s * fs[b] ** s
            hx = expand(hf)
            closed = (xs[a] ** P * xs[b] ** P
                      - xs[a] ** s * xs[b] ** P * xs[n - 1] ** gap
                      - xs[a] ** P * xs[b] ** s * xs[n - 1] ** gap
                      + xs[a] ** s * xs[b] ** s * xs[n - 1] ** (2 * gap))
            assert hx == closed
            assert reduce_mod_frobenius(hx, P) == xring.zero()
            h2.append((a + 1, b + 1, hf, hx))
    return HGenerators(spec, m, (h0_f, h0_x), tuple(h1), tuple(h2))


@dataclass(frozen=True)
class HilbertFunction:
    """Per-degree dimensions of a graded space supported in degrees <= n(Q-1)."""

    dims: tuple

    @property
    def total(self):
        return sum(self.dims)

    def __getitem__(self, d):
        return self.dims[d] if 0 <= d < len(self.dims) else 0

    def to_json(self):
        return {"dims": list(self.dims), "total": self.total}


@functools.lru_cache(maxsize=None)
def _monomial_table(n, Q):
    """The quotient's monomials as one read-only table (exps, starts).

    exps lists every exponent row by degree and, within a degree, in
    itertools.product order, the ascending order of their codes (see
    _codes); the rows of degree d are starts[d] .. starts[d + 1] - 1.
    """
    size, dtype = Q ** n, np.dtype(np.int16 if Q <= 2 ** 15 else np.int32)
    top = n * (Q - 1)
    # the grid and its sorted copy, an int64 degree and sort order each, and
    # the int64 degree counts, their sums and the starts; the degrees are
    # freed before the sorted copy is made
    check_budget(size * (2 * n * dtype.itemsize + 16) + 24 * (top + 2),
                 f"listing the {size} monomials")
    grid = np.indices((Q,) * n, dtype=dtype).reshape(n, -1)
    degrees = grid.sum(axis=0)
    order = np.argsort(degrees, kind="stable")
    starts = np.r_[0, np.cumsum(np.bincount(degrees, minlength=top + 1))]
    del degrees
    exps = grid.T[order]
    exps.flags.writeable = starts.flags.writeable = False
    return exps, starts


@functools.lru_cache(maxsize=None)
def _monomial_positions(n, Q):
    """pos[code] is the row of the monomial with that code in _monomial_table(n, Q).

    Read-only.  Only the A/B decomposition looks monomials up by code, so
    the fixed spaces do not pay for it.
    """
    exps = _monomial_table(n, Q)[0]
    size = len(exps)
    dtype = np.dtype(np.int32 if size <= 2 ** 31 else np.int64)
    # _codes holds an int64 copy of the exponents beside the codes, 8(n + 1)
    # bytes a monomial and more than the codes, positions and values after
    # it; one int64 a monomial more covers the weights and array headers
    check_budget(8 * (n + 2) * size, f"indexing the {size} monomials")
    codes = _codes(exps, Q)
    pos = np.empty(size, dtype=dtype)
    pos[codes] = np.arange(size, dtype=dtype)
    pos.flags.writeable = False
    return pos


def _codes(exps, Q):
    """sum a_i Q^(n-1-i) per exponent row: its rank in itertools.product order."""
    return exps @ Q ** np.arange(exps.shape[1] - 1, -1, -1, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _binomial_pairs(p, Q):
    """(keys, codes): the pairs j <= a < Q, Q a power of p, with C(a, j) nonzero mod p.

    keys holds a Q + j, ascending, and codes C(a, j) mod p in the code
    dtype; both read-only.  By Lucas' theorem these are the pairs whose
    base-p digits have j_i <= a_i, and C(a, j) = prod C(a_i, j_i) mod p, so
    they are built a digit at a time from Pascal's triangle mod p, each
    step's pairs charged first at 32 bytes apiece.
    """
    what = f"tabulating the binomials below {Q}"
    check_budget(32 * p * p, what)
    u, v = np.tril_indices(p)
    digit = [np.ones(1, dtype=np.int64)]  # Pascal's triangle mod p, row u = C(u, 0..u)
    for _ in range(p - 1):
        digit.append((np.r_[digit[-1], 0] + np.r_[0, digit[-1]]) % p)
    digit = np.concatenate(digit)
    a = j = np.zeros(1, dtype=np.int64)
    codes = np.ones(1, dtype=np.int64)
    while a[-1] < Q - 1:  # a[-1] = p^k - 1 after k digits
        check_budget(32 * len(a) * len(u), what)
        codes = (codes[:, None] * digit % p).ravel()
        a = (a[:, None] * p + u).ravel()
        j = (j[:, None] * p + v).ravel()
    a *= Q
    a += j
    del j
    order = np.argsort(a)
    codes = codes.astype(_code_dtype(p))[order]
    keys = a[order]
    keys.flags.writeable = codes.flags.writeable = False
    return keys, codes


def _split_generators(gens, Q):
    """(logs, moves): the generators as integer data.

    logs holds, per diagonal generator, the discrete logarithms of its
    diagonal entries.  moves holds, per elementary transvection g, the triple
    (k, l, powers) where g^{-1} substitutes x_k -> x_k + c x_l and powers[j]
    is the code of c^j, j < Q.  Any other generator is a ValueError.
    """
    logs, moves = [], []
    for g in gens:
        mat = g.mat
        diag = [mat.entry(i, i) for i in range(mat.rows)]
        off = [(i, j) for i in range(mat.rows) for j in range(mat.cols)
               if i != j and mat.entry(i, j)]
        if not off:
            log = discrete_logs(mat.field)[1]
            logs.append(log[[mat.field.encode(d) for d in diag]].astype(np.int64))
        elif len(off) == 1 and all(d == 1 for d in diag):
            (k, l), = off
            exp, log = discrete_logs(mat.field)
            c = int(log[mat.field.encode(-mat.entry(k, l))])
            moves.append((k, l, exp[np.arange(Q) * c % (mat.field.order - 1)]))
        else:
            raise ValueError(f"generator {g} is neither diagonal nor an elementary transvection")
    return logs, moves


def _fixed_by_diagonals(exps, logs, order):
    """Mask of the monomials x^a that every diagonal generator fixes.

    diag(d_1, ..., d_n) scales x^a by prod d_i^(-a_i), which is one exactly
    when sum a_i log d_i = 0 mod order, the order of the multiplicative group.
    """
    keep = np.ones(len(exps), dtype=bool)
    for log in logs:
        keep &= exps @ log % order == 0
    return keep


def _transvection_terms(cols, move, field, Q):
    """Nonzero entries (rows, cols, codes) of g - 1 on the columns with exponents cols.

    g^{-1} substitutes x_k -> x_k + c x_l, so x^a goes to the sum over j of
    C(a_k, j) c^j x^(a - j e_k + j e_l).  The j = 0 term cancels against the
    identity, terms with a_l + j >= Q vanish in the quotient and so do those
    whose binomial is zero mod p, so a column's terms are the pairs (a_k, j)
    of _binomial_pairs with 1 <= j <= Q - 1 - a_l.  A row is the code of the
    term's monomial (see _codes).
    """
    k, l, powers = move
    keys, binomials = _binomial_pairs(field.p, Q)
    low = cols[:, k].astype(np.int64) * Q
    first = np.searchsorted(keys, low, side="right").astype(np.int32)  # past j = 0
    counts = np.searchsorted(keys, low + (Q - 1 - cols[:, l]), side="right") - first
    pick = _segments(first, counts)
    col = np.repeat(np.arange(len(cols), dtype=np.int32), counts)
    j, binomials = keys[pick], binomials[pick]
    del pick
    j %= Q
    codes = code_arithmetic(field).mul(binomials, powers[j])
    del binomials
    n = cols.shape[1]
    j *= Q ** (n - 1 - l) - Q ** (n - 1 - k)
    j += _codes(cols, Q)[col]
    return j, col, codes


def _fixed_space(gens, field, n, Q, want_basis=False):
    """Per-degree fixed-space dims (and optionally basis vectors) in S/m^[Q].

    The columns are the monomials every diagonal generator fixes, in table
    order, so each degree is a block of consecutive columns.  The rows are
    the (g - 1) stacks of all transvections, move i's rows i Q^n plus the
    codes of its terms' monomials.  The terms j >= 1 inside the quotient,
    min(a_k, Q - 1 - a_l) per column, are counted, and charged, before any
    entry is built; each move's entries are packed, and its arrays freed,
    before the next.  One elimination gives every degree's rank, or one
    nullspace every degree's basis: a kernel vector lies in the degree of
    its free column.
    """
    exps, starts = _monomial_table(n, Q)  # charged first: the logs cost q - 1 products
    logs, moves = _split_generators(gens, Q)
    cols = np.flatnonzero(_fixed_by_diagonals(exps, logs, field.order - 1))
    bounds, cols = np.searchsorted(cols, starts), exps[cols]  # now their exponents
    terms = sum(int(np.minimum(cols[:, k], Q - 1 - cols[:, l]).sum()) for k, l, _ in moves)
    entries = CodeEntries(terms, len(moves) * len(exps), len(cols), field)
    for i, move in enumerate(moves):
        rows, cidx, codes = _transvection_terms(cols, move, field, Q)
        entries.add(rows + i * len(exps), cidx, codes)
        del rows, cidx, codes
    if not want_basis:
        return (np.diff(bounds) - entries.block_ranks(bounds)).tolist(), None
    monos = [tuple(a) for a in cols.tolist()]
    basis = [[] for _ in bounds[1:]]
    for krow in entries.nullspace():
        nz = np.flatnonzero(krow)
        basis[sum(monos[nz[0]])].append({monos[c]: field.decode(int(krow[c])) for c in nz})
    return [len(b) for b in basis], basis


def _check_cap(Q, n, cap):
    if Q ** n > cap:
        raise CapExceeded(
            f"quotient needs {Q ** n} monomials, above the cap of {cap}")


@functools.lru_cache(maxsize=None)
def _brute_dims(spec, m, cap):
    Q = spec.q ** m
    _check_cap(Q, spec.n, cap)
    return tuple(_fixed_space(build_group(spec), spec.field, spec.n, Q)[0])


def brute_force_hilbert(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Fixed-space dimensions of S/m^[q^m] per degree, by stacked nullspaces."""
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    return HilbertFunction(_brute_dims(spec, m, max_monomials))


def full_gl_fixed_basis(q, n, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Per-degree bases of the GL_n(F_q)-fixed space of S/m^[q^m] (tiny scale)."""
    field, Q = make_field(*factor_prime_power(q)), q ** m
    _check_cap(Q, n, max_monomials)
    gens = full_gl_generators(field, n)
    if not gens:
        gens = [GroupElement(MatrixFq.identity(field, n))]
    return _fixed_space(gens, field, n, Q, want_basis=True)[1]


# -- the A/B decomposition --------------------------------------------------

def _term_charge(live, total, n, what):
    """check_budget for building total expansion terms while live ones exist.

    A term holds its exponent row, vector number and code, 8 bytes each; a
    step's gathers, picks, binomials and masks take about as much again
    per new term.
    """
    check_budget(8 * ((n + 2) * live + (2 * n + 12) * total), what)


def _a_terms(spec, Q):
    """The reduced expansions of all f-monomials, as terms (vector, exponents, codes).

    vector numbers the f-monomial b in its grid, in lex order; exponents is
    a term's monomial of S/m^[Q] and codes its nonzero coefficient mod p.
    The first ell basic invariants are the binomials x_i^q - x_i x_n^(q-1),
    the next ones the bare variables, the last x_n^e.  f_i^(b_i) has the
    terms (-1)^(b_i - j) C(b_i, j) x_i^(b_i + (q-1) j) x_n^((q-1)(b_i - j)),
    whose two exponents add up to q b_i and lie below Q, so b_i <= 2(Q-1)/q.
    The terms start as the grid itself; each binomial in turn replaces every
    term by its picks j that keep x_i and x_n below Q and C(b_i, j) nonzero
    mod p, read from _binomial_pairs.  The x_i exponent grows with j, so
    distinct picks are distinct monomials and none cancel.  Every step's
    terms are charged before they are built.
    """
    n, ell, q, p = spec.n, spec.ell, spec.q, spec.p
    caps = (2 * (Q - 1) // q + 1,) * ell + (Q,) * (n - 1 - ell) + ((Q - 1) // spec.e + 1,)
    size = math.prod(caps)
    _term_charge(0, size, n, f"listing {size} f-monomials")
    exps = np.indices(caps).reshape(n, -1).T
    exps[:, n - 1] *= spec.e
    vector, codes = np.arange(size), np.ones(size, dtype=np.int64)
    for i in range(ell):
        keys, binomials = _binomial_pairs(p, Q)
        b, top = exps[:, i], exps[:, n - 1]
        first = np.searchsorted(keys, b * Q + np.maximum(b - (Q - 1 - top) // (q - 1), 0))
        last = np.searchsorted(keys, b * Q + np.minimum(b, (Q - 1 - b) // (q - 1)), side="right")
        counts = np.maximum(last - first, 0)
        total = int(counts.sum())
        _term_charge(len(vector), total, n, f"expanding the f-monomials into {total} terms")
        pick, term = _segments(first, counts), np.repeat(np.arange(len(counts)), counts)
        j, coef = keys[pick] % Q, binomials[pick]
        coef[(b[term] - j) % 2 == 1] *= -1
        vector, codes, exps = vector[term], codes[term] * coef % p, exps[term]
        exps[:, n - 1] += (q - 1) * (exps[:, i] - j)
        exps[:, i] += (q - 1) * j
    return vector, exps, codes


def _b_mask(exps, spec, Q):
    """Which monomials, given as exponent rows, span the complement module B.

    B is spanned by x^a x_n^(Q-1), a_i < q for i < ell and sum a_i >= 2,
    times products of f_1..f_(n-1), of which only the pure power terms
    x_i^(deg f_i) survive: any x_n in them pushes past x_n^(Q-1).  Every
    exponent below Q splits uniquely as q b_i + a_i, so these products are
    the monomials x^c x_n^(Q-1) with sum over i < ell of (c_i mod q) >= 2,
    each once.
    """
    return (exps[:, -1] == Q - 1) & ((exps[:, :spec.ell] % spec.q).sum(axis=1) >= 2)


def _ab_ranks(spec, m, cap):
    """Per-degree (rank A, rank B, rank of A stacked on B).

    Every degree's A, B and stacked rows are column blocks of one
    elimination: the monomial at table row i of degree d, whose rows are
    lo .. hi - 1, is column i + 2 lo of the A block, i + lo + hi of the B
    block and i + 2 hi of the stacked block.  The A rows are the
    f-monomials' expansions, numbered in grid order; the B rows, one masked
    monomial each in table order, follow them, and both come again for the
    stacked blocks.  The entries, each term twice, are charged before any is
    built, and the expansion is freed before the elimination.
    """
    n, Q = spec.n, spec.q ** m
    _check_cap(Q, n, cap)
    exps, starts = _monomial_table(n, Q)
    pos = _monomial_positions(n, Q)
    b_col = np.flatnonzero(_b_mask(exps, spec, Q))
    vector, a_exps, codes = _a_terms(spec, Q)
    a_rows, b_rows = int(vector.max(initial=-1)) + 1, len(b_col)
    entries = CodeEntries(2 * (len(codes) + b_rows), 2 * (a_rows + b_rows), 3 * Q ** n,
                          spec.field)
    a_col = pos[_codes(a_exps, Q)]
    del a_exps
    for rows, col, vals, b_side in ((vector, a_col, codes, 0),
                                    (np.arange(a_rows, a_rows + b_rows), b_col, 1, 1)):
        degree = np.searchsorted(starts, col, side="right") - 1
        lo, hi = starts[degree], starts[degree + 1]
        entries.add(rows, col + (2 - b_side) * lo + b_side * hi, vals)
        entries.add(rows + a_rows + b_rows, col + 2 * hi, vals)
    del vector, codes, a_col, rows, col, vals, degree, lo, hi
    widths = np.repeat(np.diff(starts), 3)
    ranks = entries.block_ranks(np.cumsum(np.r_[0, widths]))
    return [tuple(ranks[i:i + 3]) for i in range(0, len(ranks), 3)]


def a_space_dims(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Per-degree dimension of the image of the invariant ring in S/m^[q^m]."""
    return HilbertFunction(tuple(a for a, _, _ in _ab_ranks(spec, m, max_monomials)))


def b_space_dims(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Per-degree dimension of the complement module spanned over f_1..f_{n-1}."""
    return HilbertFunction(tuple(b for _, b, _ in _ab_ranks(spec, m, max_monomials)))


@dataclass(frozen=True)
class DecompositionReport:
    """Per-degree comparison of the A/B decomposition against brute force."""

    spec: GroupSpec
    m: int
    rows: tuple          # (degree, dim A, dim B, A + B, brute)
    ok: bool
    mismatches: tuple

    def to_json(self):
        return {
            "spec": self.spec.to_json(), "m": self.m, "ok": self.ok,
            "rows": [list(r) for r in self.rows],
            "mismatches": list(self.mismatches),
        }


def verify_decomposition(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Check per degree that A + B = fixed space, with a stacked-rank witness."""
    ranks = _ab_ranks(spec, m, max_monomials)
    brute = brute_force_hilbert(spec, m, max_monomials)
    rows = []
    mismatches = []
    for d, (a, b, u) in enumerate(ranks):
        br = brute[d]
        rows.append((d, a, b, a + b, br))
        if a + b != br:
            mismatches.append(f"degree {d}: A + B = {a + b} but fixed space has {br}")
        if u != a + b:
            mismatches.append(f"degree {d}: stacked rank {u} shows A and B overlap")
    return DecompositionReport(spec, m, tuple(rows), not mismatches, tuple(mismatches))


@dataclass(frozen=True)
class ExponentBoundReport:
    q: int
    n: int
    m: int
    top_dim: int
    violations: tuple

    @property
    def ok(self):
        return self.top_dim == 1 and not self.violations


def check_exponent_bound(q, n, m, basis_by_degree):
    """Monomial dichotomy for full GL_n(F_q) invariants mod m^[q^m].

    Every monomial of every invariant either is the top monomial
    (x_1...x_n)^{q^m-1} or has all exponents at most q^m - q; the top-degree
    fixed space is one-dimensional.
    """
    Q = q ** m
    top = tuple(Q - 1 for _ in range(n))
    violations = []
    for d, vecs in enumerate(basis_by_degree):
        for vec in vecs:
            for mono in vec:
                if mono == top:
                    continue
                if any(a > Q - q for a in mono):
                    violations.append((d, mono))
    top_dim = len(basis_by_degree[n * (Q - 1)])
    return ExponentBoundReport(q, n, m, top_dim, tuple(violations))
