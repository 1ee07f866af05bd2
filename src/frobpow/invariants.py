"""Basic invariants, Groebner generators, and the fixed space of the quotient
by a Frobenius power, computed degree by degree as exact linear algebra.

The quotient by (x_1^Q, ..., x_n^Q) with Q = q^m has the monomial basis
{x^a : a_i < Q}, graded by total degree.  Fixed spaces are computed from
generators only, on integer field codes in numpy arrays, with no field
element objects per monomial:

* a diagonal generator diag(d_1, ..., d_n) scales x^a, so it cuts the basis
  to the monomials with sum a_i log d_i = 0 mod q - 1;
* an elementary transvection whose inverse substitutes x_k -> x_k + c x_l
  sends x^a to sum_j C(a_k, j) c^j x^(a - j e_k + j e_l), so its (g - 1)
  columns are the terms j >= 1 with a_l + j < Q, their binomials mod p by
  Lucas' theorem;
* the (g - 1) blocks of all transvections are stacked per degree, each
  degree is a column block of one sparse matrix, and a single elimination
  ranks every block; any other kind of generator is rejected.

The A/B decomposition is built as entry arrays too.  Every coefficient
lies in the prime subfield, so a residue mod p is its own code.  A is
spanned by the f-monomials' expansions, listed from a numpy grid of
f-exponents and expanded one binomial f_i at a time into terms (vector,
exponents, code); B by single monomials, a mask over each degree bucket.
Each degree's A, B and stacked A + B rows are three column blocks of one
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

from .ff import CapExceeded, CodeEntries, MatrixFq, binom_mod_p, check_budget, code_arithmetic, \
    discrete_logs, factor_prime_power, make_field
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
def _degree_buckets(n, Q):
    """Exponent vectors of the quotient's monomials, one read-only array per degree.

    Each array lists its monomials in itertools.product order, which is the
    ascending order of their codes (see _codes).
    """
    dtype = np.dtype(np.int16 if Q <= 2 ** 15 else np.int32)
    # the grid and its sorted copy, plus an int64 degree and sort index each
    check_budget(Q ** n * (2 * n * dtype.itemsize + 16), f"listing the {Q ** n} monomials")
    grid = np.indices((Q,) * n, dtype=dtype)
    grid = grid.reshape(n, -1).T
    degrees = grid.sum(axis=1)
    ordered = grid[np.argsort(degrees, kind="stable")]
    sizes = np.bincount(degrees, minlength=n * (Q - 1) + 1)
    buckets = np.split(ordered, np.cumsum(sizes)[:-1])
    for bucket in buckets:
        bucket.flags.writeable = False
    return tuple(buckets)


def _codes(exps, Q):
    """sum a_i Q^(n-1-i) per exponent row: its rank in itertools.product order."""
    return exps @ Q ** np.arange(exps.shape[1] - 1, -1, -1, dtype=np.int64)


def _code_powers(c, field, count):
    """Codes of c^0, ..., c^(count - 1) for the element with code c."""
    powers = np.ones(count, dtype=np.int64)
    mul = code_arithmetic(field).mul
    for j in range(1, count):
        powers[j] = mul(int(powers[j - 1]), c)
    return powers


@functools.lru_cache(maxsize=None)
def _digit_binomials(p):
    """C(u, v) mod p for u, v < p, read-only: the factors of Lucas' theorem."""
    table = np.array([[binom_mod_p(u, v, p) for v in range(p)] for u in range(p)],
                     dtype=np.int64)
    table.flags.writeable = False
    return table


def _binomials(a, j, p):
    """C(a, j) mod p elementwise, a product over base-p digits (Lucas)."""
    out = np.ones_like(a)
    while a.any():
        out = out * _digit_binomials(p)[a % p, j % p] % p
        a, j = a // p, j // p
    return out


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
            c = mat.field.encode(-mat.entry(k, l))
            moves.append((k, l, _code_powers(c, mat.field, Q)))
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


def _term_counts(cols, move, Q):
    """Per column, the number of terms j >= 1 of (g - 1) x^a inside the quotient."""
    k, l, _ = move
    return np.minimum(cols[:, k], Q - 1 - cols[:, l]).astype(np.int64)


def _transvection_terms(bucket_codes, cols, move, field, Q):
    """Nonzero entries (rows, cols, codes) of g - 1 on one degree's columns.

    g^{-1} substitutes x_k -> x_k + c x_l, so x^a goes to the sum over j of
    C(a_k, j) c^j x^(a - j e_k + j e_l).  The j = 0 term cancels against the
    identity and terms with a_l + j >= Q vanish in the quotient.  Rows index
    the degree's bucket, whose codes are bucket_codes.
    """
    k, l, powers = move
    ak = cols[:, k].astype(np.int64)
    counts = _term_counts(cols, move, Q)
    col = np.repeat(np.arange(len(cols)), counts)
    j = np.arange(len(col)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    code = code_arithmetic(field).mul(_binomials(ak[col], j, field.p), powers[j])
    nz = code != 0
    col, j = col[nz], j[nz]
    n = cols.shape[1]
    target = _codes(cols, Q)[col] + j * (Q ** (n - 1 - l) - Q ** (n - 1 - k))
    return np.searchsorted(bucket_codes, target), col, code[nz]


def _stacked_entries(degrees, moves, field, Q):
    """The (g - 1) stacks of the given (bucket, columns) degrees side by side.

    Degree i is a column block with a row block per transvection, so the
    blocks are independent.  Terms are counted, and charged, before any
    entry is built; each generator's entries are packed as they come.
    """
    terms = sum(int(_term_counts(cols, move, Q).sum()) for _, cols in degrees for move in moves)
    entries = CodeEntries(terms, len(moves) * sum(len(bucket) for bucket, _ in degrees),
                          sum(len(cols) for _, cols in degrees), field)
    row0 = col0 = 0
    for bucket, cols in degrees:
        bucket_codes = _codes(bucket, Q)
        for move in moves:
            rows, cidx, codes = _transvection_terms(bucket_codes, cols, move, field, Q)
            entries.add(rows + row0, cidx + col0, codes)
            row0 += len(bucket)
        col0 += len(cols)
    return entries


def _fixed_space(gens, field, n, Q, want_basis=False):
    """Per-degree fixed-space dims (and optionally basis vectors) in S/m^[Q].

    The dims come from one elimination of every degree's stack at once, the
    basis from one nullspace per degree.
    """
    buckets = _degree_buckets(n, Q)  # charged first: the logs cost q - 1 products
    logs, moves = _split_generators(gens, Q)
    degrees = [(bucket, bucket[_fixed_by_diagonals(bucket, logs, field.order - 1)])
               for bucket in buckets]
    widths = [len(cols) for _, cols in degrees]
    if not want_basis:
        ranks = _stacked_entries(degrees, moves, field, Q).block_ranks(
            np.cumsum([0] + widths))
        return [w - r for w, r in zip(widths, ranks)], None
    basis = []
    for degree in degrees:
        monos = [tuple(a) for a in degree[1].tolist()]
        kernel = _stacked_entries([degree], moves, field, Q).nullspace()
        basis.append([{monos[ci]: field.decode(int(krow[ci])) for ci in np.flatnonzero(krow)}
                      for krow in kernel])
    return [len(b) for b in basis], basis


def _check_cap(Q, n, cap):
    if Q ** n > cap:
        raise CapExceeded(
            f"quotient needs {Q ** n} monomials, above the cap of {cap}")


@functools.lru_cache(maxsize=None)
def _brute_dims(spec, m, cap):
    Q = spec.q ** m
    _check_cap(Q, spec.n, cap)
    gens = build_group(spec)
    dims, _ = _fixed_space(gens, spec.field, spec.n, Q)
    return tuple(dims)


def brute_force_hilbert(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Fixed-space dimensions of S/m^[q^m] per degree, by stacked nullspaces."""
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    return HilbertFunction(_brute_dims(spec, m, max_monomials))


def full_gl_fixed_basis(q, n, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Per-degree bases of the GL_n(F_q)-fixed space of S/m^[q^m] (tiny scale)."""
    p, r = factor_prime_power(q)
    field = make_field(p, r)
    Q = q ** m
    _check_cap(Q, n, max_monomials)
    gens = full_gl_generators(field, n)
    if not gens:
        gens = [GroupElement(MatrixFq.identity(field, n))]
    dims, basis = _fixed_space(gens, field, n, Q, want_basis=True)
    return basis


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
    term by its picks j that keep x_i and x_n below Q.  The x_i exponent
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
        lo = np.maximum(b - (Q - 1 - top) // (q - 1), 0)
        counts = np.maximum(np.minimum(b, (Q - 1 - b) // (q - 1)) - lo + 1, 0)
        total = int(counts.sum())
        _term_charge(len(vector), total, n, f"expanding the f-monomials into {total} terms")
        term = np.repeat(np.arange(len(counts)), counts)
        j = np.arange(total) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        bt = b[term]
        coef = _binomials(bt, j, p)
        coef[(bt - j) % 2 == 1] *= -1
        nz = coef != 0
        term, j = term[nz], j[nz]
        vector, codes, exps = vector[term], codes[term] * coef[nz] % p, exps[term]
        exps[:, n - 1] += (q - 1) * (exps[:, i] - j)
        exps[:, i] += (q - 1) * j
    return vector, exps, codes


def _b_mask(bucket, spec, Q):
    """Which monomials of a degree bucket span the complement module B.

    B is spanned by x^a x_n^(Q-1), a_i < q for i < ell and sum a_i >= 2,
    times products of f_1..f_(n-1), of which only the pure power terms
    x_i^(deg f_i) survive: any x_n in them pushes past x_n^(Q-1).  Every
    exponent below Q splits uniquely as q b_i + a_i, so these products are
    the monomials x^c x_n^(Q-1) with sum over i < ell of (c_i mod q) >= 2,
    each once.
    """
    return (bucket[:, -1] == Q - 1) & ((bucket[:, :spec.ell] % spec.q).sum(axis=1) >= 2)


def _ab_ranks(spec, m, cap):
    """Per-degree (rank A, rank B, rank of A stacked on B).

    Every degree's A, B and stacked rows are column blocks of one
    elimination.  The A rows are the f-monomials' expansions, numbered in
    grid order; the B rows, one masked monomial each, follow them, and both
    come again for the stacked blocks, A before B.  The entries, each term
    twice, are charged before any is built, and the expansion is freed
    before the elimination.
    """
    n, Q = spec.n, spec.q ** m
    _check_cap(Q, n, cap)
    buckets = _degree_buckets(n, Q)
    b_cols = [np.flatnonzero(_b_mask(bucket, spec, Q)) for bucket in buckets]
    vector, exps, codes = _a_terms(spec, Q)
    a_rows, b_rows = int(vector.max(initial=-1)) + 1, sum(map(len, b_cols))
    entries = CodeEntries(2 * (len(codes) + b_rows), 2 * (a_rows + b_rows), 3 * Q ** n,
                          spec.field)
    degree = exps.sum(axis=1)
    by_degree = np.split(np.argsort(degree, kind="stable"),
                         np.cumsum(np.bincount(degree, minlength=len(buckets)))[:-1])
    copy, row0, col0 = a_rows + b_rows, a_rows, 0
    for bucket, terms, b_col in zip(buckets, by_degree, b_cols):
        rows, vals = vector[terms], codes[terms]
        cols = np.searchsorted(_codes(bucket, Q), _codes(exps[terms], Q)) + col0
        entries.add(rows, cols, vals)
        entries.add(rows + copy, cols + 2 * len(bucket), vals)
        rows, cols = np.arange(row0, row0 + len(b_col)), b_col + col0 + len(bucket)
        entries.add(rows, cols, 1)
        entries.add(rows + copy, cols + len(bucket), 1)
        row0, col0 = row0 + len(b_col), col0 + 3 * len(bucket)
    del vector, exps, codes, degree, by_degree
    widths = np.repeat([len(bucket) for bucket in buckets], 3)
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
