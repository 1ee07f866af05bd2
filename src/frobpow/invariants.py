"""Basic invariants, Groebner generators, and the fixed space of the quotient
by a Frobenius power, computed as exact linear algebra.

The quotient by (x_1^Q, ..., x_n^Q) with Q = q^m has the monomial basis
{x^a : a_i < Q}, graded by total degree and listed once, in a monomial
table whose row c is the monomial with code c.  A column is a monomial's
code, and its degree is read off its exponents.  A group element preserves
degree, so no row of a (g - 1) stack reaches two degrees, and every degree
is built and eliminated at once.  Fixed spaces are computed from
generators only, on integer field codes in numpy arrays, with no field
element objects per monomial:

* a diagonal generator diag(d_1, ..., d_n) scales x^a, so it cuts the basis
  to the monomials with sum a_i log d_i = 0 mod q - 1;
* an elementary transvection whose inverse substitutes x_k -> x_k + c x_l
  sends x^a to sum_j C(a_k, j) c^j x^(a - j e_k + j e_l), so its (g - 1)
  columns are the terms j >= 1 with a_l + j < Q and C(a_k, j) nonzero mod
  p, a window of a table of binomials made by Lucas' theorem;
* the (g - 1) blocks of all transvections are stacked into one sparse
  matrix, and a single elimination ranks every degree's block, or gives
  every degree's kernel; any other kind of generator is rejected.

The A/B decomposition is built as entry arrays too.  Every coefficient
lies in the prime subfield, so a residue mod p is its own code.  A is
spanned by the f-monomials' expansions, listed from a numpy grid of
f-exponents and expanded one binomial f_i at a time into terms (vector,
exponents, code), each binomial's terms a Lucas window of the same table;
B by single monomials x^c x_n^(Q-1), counted, not eliminated: one
elimination of A, B's columns after all others, counts each pivot in its
range and its column's degree.

Two caps bound the work.  The monomial cap bounds the Q^n exponent vectors
enumerated; ff.MATRIX_BYTE_CAP bounds the memory of listing them, of each
scan of the list (the diagonal weights, the B mask, the columns' windows),
of every step of the A expansion and of every elimination, whose terms and
entries are counted exactly and charged before any is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ff import DEFAULT_MONOMIAL_CAP, CodeEntries, _code_dtype, _segments, \
    check_budget, check_cap, check_power_cap, check_table_budget, code_arithmetic, \
    discrete_logs, factor_prime_power, make_field
from .group import GroupSpec, build_group, full_gl_generators

SPAIR_CAP = 10 ** 4  # S-pairs of the h-generators a Groebner check may reduce
SPAIR_WORK_CAP = 10 ** 7  # S-pairs times m^4: dividing by the m-term h_{1,a} costs ~m^4
COMPLETION_CAP = 60  # basis size a from-scratch completion (gbcheck --from-scratch) may reach
H_GENERATOR_RANGE = "h-generators need ell = n - 1 or the full stabilizer"


@dataclass(frozen=True)
class BasicInvariants:
    """The algebra generators f_1..f_n of the invariant ring, with their degrees."""

    polys: tuple
    weights: tuple

    @property
    def ring(self):
        return self.polys[0].ring

    def f_ring(self):
        from .poly import PolyRing

        return PolyRing(self.ring.field, self.ring.n, weights=self.weights, prefix="f")


@functools.lru_cache(maxsize=None)
def basic_invariants(spec):
    """The literal generator list; each entry is checked against the group action.

    GroupSpec forces ell = 0 over a proper extension and ell = n - 1, e = q - 1
    for the full stabilizer, so the binomials x_i^q - x_i x_n^(q-1), i < ell,
    cover the prime-field family and the full stabilizer alike.
    """
    from .poly import PolyRing, compose, linear_images  # only the Groebner checks need polynomials

    check_table_budget(spec.p, spec.r)  # before spec.field's modulus search
    n, q = spec.n, spec.q
    ring = PolyRing(spec.field, n)
    xs = [ring.variable(i) for i in range(n)]
    polys = [xs[i] ** q - xs[i] * xs[n - 1] ** (q - 1) for i in range(spec.ell)]
    polys += xs[spec.ell:n - 1] + [xs[n - 1] ** spec.e]
    weights = [q] * spec.ell + [1] * (n - 1 - spec.ell) + [spec.e]
    code_arithmetic(spec.field)  # refuse an int64 overflow before root_of_unity's scan
    # substitution is a right action, so f o g^{-1} = f exactly when f o g = f
    for g in build_group(spec):
        images = linear_images(g, ring)
        for f in polys:
            assert compose(f, images) == f, "generator fails to fix a basic invariant"
    return BasicInvariants(tuple(polys), tuple(weights))


def expand_f(fpoly, basics):
    """Expansion of an f-coordinate polynomial into x-coordinates."""
    from .poly import compose

    return compose(fpoly, basics.polys)


@dataclass(frozen=True)
class HGenerators:
    """h_0, h_{1,a}, h_{2,a,b} in f-coordinates and expanded x-coordinates.

    Construction validates the closed x-expansions and membership in the
    Frobenius ideal.  `generators` lists (name, f-poly, x-poly) in check
    order: h_0, then h_{1,a} by a, then h_{2,a,b} lexicographically;
    division-based reductions always use this order.
    """

    spec: GroupSpec
    m: int
    generators: tuple    # ((name, f-poly, x-poly), ...)


def h_generators(spec, m):
    """Generators of the intersection ideal in f-coordinates, with expansions.

    Requires the maximal-root-space case (ell = n - 1 over the prime field)
    or the full stabilizer; w = q is the degree of the first basic invariants
    and e divides w^m - 1 exactly.  Its g = n(n + 1)/2 generators give
    g(g - 1)/2 S-pairs, checked against SPAIR_CAP, and times m^4 against
    SPAIR_WORK_CAP, before anything is built.
    """
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    if spec.ell != spec.n - 1:
        raise ValueError(H_GENERATOR_RANGE)
    g = spec.n * (spec.n + 1) // 2
    pairs = g * (g - 1) // 2
    check_cap(pairs, SPAIR_CAP, "the S-pair check", "pairs")
    check_cap(pairs * m ** 4, SPAIR_WORK_CAP, "the S-pair check", "pairs times m^4")
    from .poly import reduce_mod_frobenius

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
    generators = [("h_0", h0_f, h0_x)]

    for a in range(n - 1):
        acc = fring.zero()
        for k in range(m):
            acc = acc + fs[n - 1] ** (1 + exact(P - w ** (m - k))) * fs[a] ** (w ** (m - k - 1))
        hx = expand(acc)
        assert hx == xs[a] ** P * xs[n - 1] ** e - xs[a] * xs[n - 1] ** (P + e - 1)
        assert reduce_mod_frobenius(hx, P) == xring.zero()
        generators.append((f"h_{{1,{a + 1}}}", acc, hx))

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
            generators.append((f"h_{{2,{a + 1},{b + 1}}}", hf, hx))
    return HGenerators(spec, m, tuple(generators))


@dataclass(frozen=True)
class HilbertFunction:
    """Per-degree dimensions of a graded space supported in degrees <= n(Q-1)."""

    dims: tuple

    @property
    def total(self):
        return sum(self.dims)

    def __getitem__(self, d):
        return self.dims[d] if 0 <= d < len(self.dims) else 0


@functools.lru_cache(maxsize=None)
def _monomial_table(n, Q):
    """The quotient's monomials as one read-only table: row c is the monomial
    with code c (see _codes), so the rows run in itertools.product order."""
    size, dtype = Q ** n, np.dtype(np.int16 if Q <= 2 ** 15 else np.int32)
    # the grid, and while it is filled an arange of Q and the array headers
    check_budget(dtype.itemsize * n * (size + Q) + 2048, f"listing the {size} monomials")
    exps = np.indices((Q,) * n, dtype=dtype).reshape(n, -1).T
    exps.flags.writeable = False
    return exps


def _codes(exps, Q):
    """sum a_i Q^(n-1-i) per exponent row: its rank in itertools.product order."""
    return exps @ Q ** np.arange(exps.shape[1] - 1, -1, -1, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _binomial_pairs(p, Q):
    """(keys, lows, codes): the pairs j <= a < Q, Q a power of p, with C(a, j)
    nonzero mod p.

    keys holds a Q + j, ascending, lows j as int32 and codes C(a, j) mod p
    in the code dtype; all read-only.  By Lucas' theorem these are the
    pairs whose base-p digits have j_i <= a_i, and C(a, j) = prod C(a_i,
    j_i) mod p, so they are built a digit at a time from Pascal's triangle
    mod p, each step's pairs charged first at 32 bytes apiece.
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
    order = np.argsort(a)
    codes = codes.astype(_code_dtype(p))[order]
    keys, lows = a[order], j[order].astype(np.int32)  # Q^n monomials are listed, so Q < 2^31
    keys.flags.writeable = lows.flags.writeable = codes.flags.writeable = False
    return keys, lows, codes


def _lucas_window(p, Q, a, lo, hi):
    """(first, counts): the runs of rows of _binomial_pairs(p, Q) that hold
    the pairs (a_i, j) with lo_i <= j <= hi_i; every bound lies in [0, Q)."""
    keys = _binomial_pairs(p, Q)[0]
    a = a.astype(np.int64) * Q
    first = np.searchsorted(keys, a + lo)
    counts = np.searchsorted(keys, a + hi, side="right") - first
    return first.astype(np.int32), np.maximum(counts, 0)


def _lucas_terms(p, Q, first, counts):
    """(window, j, C(a, j) mod p) for every pair (a, j) in windows of
    _lucas_window; window and j are int32."""
    _, lows, binomials = _binomial_pairs(p, Q)
    pick = _segments(first, counts)
    return np.repeat(np.arange(len(counts), dtype=np.int32), counts), lows[pick], binomials[pick]


def _split_generators(gens, Q):
    """(logs, moves): the generators as integer data.

    logs holds, per diagonal generator, the discrete logarithms of its
    diagonal entries.  moves holds, per elementary transvection g, the triple
    (k, l, powers) where g^{-1} substitutes x_k -> x_k + c x_l and powers[j]
    is the code of c^j, j < Q.  Any other generator is a ValueError.
    """
    logs, moves = [], []
    for mat in gens:
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
            raise ValueError(f"generator {mat} is neither diagonal nor an elementary transvection")
    return logs, moves


def _fixed_by_diagonals(exps, logs, order):
    """Mask of the monomials x^a that every diagonal generator fixes.

    diag(d_1, ..., d_n) scales x^a by prod d_i^(-a_i), which is one exactly
    when sum a_i log d_i = 0 mod order, the order of the multiplicative group.
    """
    size = len(exps)
    # the int64 weights and one column's products, the masks, the array
    # headers and the 64 KiB buffer a ufunc casts the exponents through
    check_budget(size * (17 if logs else 1) + 2 ** 17, f"weighing the {size} monomials")
    keep = np.ones(size, dtype=bool)
    for log in logs:
        weight = np.zeros(size, dtype=np.int64)
        for i in np.flatnonzero(log):
            weight += exps[:, i] * log[i]  # log[i] is an np.int64, so the product is too
        weight %= order
        keep &= weight == 0
    return keep


def _transvection_terms(cols, codes, move, field, Q, first_row):
    """Nonzero entries (rows, columns, value codes) of g - 1 on the columns
    whose monomials have the exponent rows cols and the codes codes, its
    rows counted from first_row.

    g^{-1} substitutes x_k -> x_k + c x_l, so x^a goes to the sum over j of
    C(a_k, j) c^j x^(a - j e_k + j e_l).  The j = 0 term cancels against the
    identity, terms with a_l + j >= Q vanish in the quotient and so do those
    whose binomial is zero mod p, so a column's terms are the Lucas window
    of a_k with 1 <= j <= Q - 1 - a_l.  A row is the code of the term's
    monomial (see _codes) plus first_row, in the dtype of codes, which must
    hold every row.
    """
    k, l, powers = move
    col, j, binomials = _lucas_terms(field.p, Q, *_transvection_window(cols, move, field.p, Q))
    values = code_arithmetic(field).mul(binomials, powers[j])
    del binomials
    n = cols.shape[1]
    rows = j.astype(codes.dtype, copy=False)
    del j
    rows *= Q ** (n - 1 - l) - Q ** (n - 1 - k)
    rows += codes[col]
    rows += first_row
    return rows, col, values


def _transvection_window(cols, move, p, Q):
    """_lucas_window of one transvection's terms on the columns with exponents cols."""
    k, l, _ = move
    return _lucas_window(p, Q, cols[:, k], 1, Q - 1 - cols[:, l])


def _fixed_space(gens, field, n, Q, want_basis=False):
    """Per-degree fixed-space dims (and optionally basis vectors) in S/m^[Q].

    The columns are the codes of the monomials every diagonal generator
    fixes, ascending.  The rows are the (g - 1) stacks of all
    transvections, move i's rows i Q^n plus the codes of its terms'
    monomials.  Every move's terms, the sizes of its Lucas windows, are
    counted and charged exactly before any entry is built; each move's
    window is found again to build its entries, which are packed, and its
    arrays freed, before the next.  A transvection preserves degree, so one
    elimination gives every degree's rank, its pivots counted by their
    columns' degrees, or one nullspace every degree's basis: a kernel
    vector lies in the degree of its free column.
    """
    exps = _monomial_table(n, Q)  # charged first: the logs cost q - 1 products
    logs, moves = _split_generators(gens, Q)
    nrows = len(moves) * len(exps)
    # the codes in the dtype the rows are built in, picked from an arange of
    # it, so no int64 copy is made and freed
    codes = np.arange(len(exps), dtype=np.int32 if nrows < 2 ** 31 else np.int64)
    codes = codes[_fixed_by_diagonals(exps, logs, field.order - 1)]
    # the codes, the exponents and a move's windows: int64 keys, bounds and counts
    check_budget(len(codes) * (exps.itemsize * n + 48), f"windowing the {len(codes)} columns")
    cols = exps[codes]
    terms = sum(int(_transvection_window(cols, move, field.p, Q)[1].sum()) for move in moves)
    entries = CodeEntries(terms, nrows, len(cols), field)
    for i, move in enumerate(moves):
        rows, cidx, values = _transvection_terms(cols, codes, move, field, Q, i * len(exps))
        entries.add(rows, cidx, values)
        del rows, cidx, values
    del codes
    top = n * (Q - 1)
    if not want_basis:
        pivots = entries.pivot_columns()
        degrees = cols.sum(axis=1)
        return (np.bincount(degrees, minlength=top + 1)
                - np.bincount(degrees[pivots], minlength=top + 1)).tolist(), None
    monos = [tuple(a) for a in cols.tolist()]
    basis = [[] for _ in range(top + 1)]
    for krow in entries.nullspace():
        nz = np.flatnonzero(krow)
        basis[sum(monos[nz[0]])].append({monos[c]: field.decode(int(krow[c])) for c in nz})
    return [len(b) for b in basis], basis


@functools.lru_cache(maxsize=None)
def _brute_dims(spec, m, cap):
    check_power_cap(spec.q, m * spec.n, cap, "quotient", "monomials")
    return tuple(_fixed_space(build_group(spec), spec.field, spec.n, spec.q ** m)[0])


def brute_force_hilbert(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Fixed-space dimensions of S/m^[q^m] per degree, by stacked nullspaces."""
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    return HilbertFunction(_brute_dims(spec, m, max_monomials))


def full_gl_fixed_basis(q, n, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Per-degree bases of the GL_n(F_q)-fixed space of S/m^[q^m] (tiny scale)."""
    field = make_field(*factor_prime_power(q))
    check_power_cap(q, m * n, max_monomials, "quotient", "monomials")
    return _fixed_space(full_gl_generators(field, n), field, n, q ** m, want_basis=True)[1]


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
    mod p: a Lucas window of b_i (see _lucas_window).  The x_i exponent
    grows with j, so distinct picks are distinct monomials and none cancel.
    Every step's terms are charged before they are built.
    """
    n, ell, q, p = spec.n, spec.ell, spec.q, spec.p
    caps = (2 * (Q - 1) // q + 1,) * ell + (Q,) * (n - 1 - ell) + ((Q - 1) // spec.e + 1,)
    size = math.prod(caps)
    _term_charge(0, size, n, f"listing {size} f-monomials")
    exps = np.indices(caps).reshape(n, -1).T
    exps[:, n - 1] *= spec.e
    vector, codes = np.arange(size), np.ones(size, dtype=np.int64)
    for i in range(ell):
        b, top = exps[:, i], exps[:, n - 1]
        first, counts = _lucas_window(p, Q, b, np.maximum(b - (Q - 1 - top) // (q - 1), 0),
                                      (Q - 1 - b) // (q - 1))  # the table has j <= b
        total = int(counts.sum())
        _term_charge(len(vector), total, n, f"expanding the f-monomials into {total} terms")
        term, j, coef = _lucas_terms(p, Q, first, counts)
        del first, counts
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
    # charged as the most it holds at once, the sums and one residue column
    # in the exponents' own dtype, and 2 KiB for the array headers; the sums
    # and a mask, or two masks of a byte a monomial, take no more, and the
    # capped residues sum in that dtype, so numpy needs no cast buffer
    check_budget(len(exps) * 2 * exps.itemsize + 2048, f"masking the {len(exps)} monomials")
    sums = np.zeros(len(exps), dtype=exps.dtype)
    for i in range(spec.ell):
        residue = exps[:, i] % spec.q
        sums += np.minimum(residue, 2, out=residue)
        del residue
    mask = sums >= 2
    del sums
    mask &= exps[:, -1] == Q - 1
    return mask


def _ab_ranks(spec, m, cap):
    """Per-degree (rank A, rank B, rank of A stacked on B).

    B's rows are distinct monomials, so rank B counts them and the stack
    has rank B plus the rank of A off B's columns.  So only A, its rows the
    f-monomials' expansions in grid order, is eliminated: the monomial with
    code c is column c, or Q^n + c if it lies in B.  An echelon form's
    pivot columns depend only on the row space, so the pivots before Q^n
    count A's rank off B, all of them rank A, each in its column's degree.
    The entries, one a term, are charged before any is built, and the
    expansion is freed before the elimination.
    """
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    n = spec.n
    check_power_cap(spec.q, m * n, cap, "quotient", "monomials")
    Q = spec.q ** m
    exps = _monomial_table(n, Q)
    top = n * (Q - 1)
    b_exps = exps[Q - 1::Q]  # the monomials with x_n^(Q-1)
    b = np.bincount(b_exps[_b_mask(b_exps, spec, Q)].sum(axis=1), minlength=top + 1)
    vector, a_exps, codes = _a_terms(spec, Q)
    entries = CodeEntries(len(codes), int(vector.max(initial=-1)) + 1, 2 * len(exps), spec.field)
    col = _codes(a_exps, Q)
    col[_b_mask(a_exps, spec, Q)] += len(exps)
    entries.add(vector, col, codes)
    del vector, a_exps, col, codes
    in_b, code = np.divmod(entries.pivot_columns(), len(exps))
    ranks = np.bincount(in_b * (top + 1) + exps[code].sum(axis=1), minlength=2 * (top + 1))
    off_b, on_b = ranks.reshape(2, top + 1)
    return list(zip((off_b + on_b).tolist(), b.tolist(), (off_b + b).tolist()))


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
    """Check per degree that A + B = fixed space, directly: A keeps its rank off B."""
    ranks = _ab_ranks(spec, m, max_monomials)
    brute = brute_force_hilbert(spec, m, max_monomials)
    rows, mismatches = [], []
    for d, (a, b, u) in enumerate(ranks):
        rows.append((d, a, b, a + b, brute[d]))
        if a + b != brute[d]:
            mismatches.append(f"degree {d}: A + B = {a + b} but fixed space has {brute[d]}")
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
