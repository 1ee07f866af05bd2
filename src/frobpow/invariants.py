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

The A/B decomposition runs on integer codes too: every coefficient of its
spanning vectors lies in the prime subfield, so a residue mod p is its own
code, and each degree's A, B and stacked A + B rows are three column blocks
of one elimination.

Two caps bound the work.  The monomial cap bounds the Q^n exponent vectors
enumerated; ff.MATRIX_BYTE_CAP bounds the memory of listing them and of
every elimination, whose entries are counted and charged before any is
built.
"""

from __future__ import annotations

import functools
import itertools
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

def _binomial_power_terms(b, w, Q, p):
    """Terms of (x_var^w - x_var x_n^{w-1})^b with the var exponent below Q."""
    out = []
    for j in range(b + 1):
        c = binom_mod_p(b, j, p)
        if not c:
            continue
        evar = w * j + (b - j)
        if evar >= Q:
            continue
        if (b - j) % 2:
            c = p - c
        out.append((evar, (w - 1) * (b - j), c))
    return out


def _wexp_vectors(weights, bound, caps):
    """Exponent tuples b with b_i < caps_i and weighted degree <= bound, in lex order."""
    if not weights:
        yield ()
        return
    w = weights[0]
    for head in range(min(bound // w + 1, caps[0])):
        for tail in _wexp_vectors(weights[1:], bound - w * head, caps[1:]):
            yield (head,) + tail


def _vector_setup(spec, m, cap):
    """(Q, basic-invariant weights, top degree D, empty per-degree lists)."""
    Q = spec.q ** m
    _check_cap(Q, spec.n, cap)
    D = spec.n * (Q - 1)
    return Q, basic_invariants(spec).weights, D, [[] for _ in range(D + 1)]


def _a_vectors(spec, m, cap):
    """Reduced expansions of f-monomials, grouped by degree, as {exponents: code}.

    The first ell basic invariants are the binomials x_i^q - x_i x_n^(q-1),
    the next ones the bare variables, the last a power of x_n.  An expansion
    term picks one term of each binomial power; the exponent of x_i grows
    with the pick, so distinct picks are distinct monomials and none cancel.
    """
    Q, weights, D, by_degree = _vector_setup(spec, m, cap)
    n, ell, p = spec.n, spec.ell, spec.p
    # every term is divisible by x_i^(b_i), i < n - 1, and by x_n^(b_n e)
    caps = (Q,) * (n - 1) + ((Q - 1) // weights[n - 1] + 1,)
    for bvec in _wexp_vectors(weights, D, caps):
        bare = bvec[ell:n - 1]
        pieces = [_binomial_power_terms(b, spec.q, Q, p) for b in bvec[:ell]]
        xn = bvec[n - 1] * weights[n - 1]
        vec = {}
        for pick in itertools.product(*pieces):
            top = xn + sum(en for _, en, _ in pick)
            if top < Q:
                mono = tuple(evar for evar, _, _ in pick) + bare + (top,)
                vec[mono] = math.prod(c for _, _, c in pick) % p
        if vec:
            by_degree[sum(w * b for w, b in zip(weights, bvec))].append(vec)
    return by_degree


def _b_vectors(spec, m, cap):
    """Reduced spanning elements of the complement module, grouped by degree.

    Multiplying by a basic invariant f_i, i < n, contributes only its pure
    power term x_i^(deg f_i): any x_n contribution pushes past x_n^(Q-1).
    """
    Q, weights, D, by_degree = _vector_setup(spec, m, cap)
    n, ell = spec.n, spec.ell
    heads = [a for a in itertools.product(range(spec.q), repeat=ell) if sum(a) >= 2]
    fweights = weights[: n - 1]
    for avec in heads:
        base_deg = sum(avec) + Q - 1
        pad = avec + (0,) * (n - 1 - ell)
        caps = [(Q - 1 - ai) // wi + 1 for wi, ai in zip(fweights, pad)]  # w b + a < Q
        for bvec in _wexp_vectors(fweights, D - base_deg, caps):
            full = tuple(wi * bi + ai for wi, bi, ai in zip(fweights, bvec, pad))
            by_degree[sum(full) + Q - 1].append({full + (Q - 1,): 1})
    return by_degree


def _ab_entries(vecs, bucket, Q):
    """One degree's vectors as entries (rows, cols, codes); columns follow the bucket."""
    rows = np.repeat(np.arange(len(vecs)), [len(vec) for vec in vecs])
    monos = np.array([mono for vec in vecs for mono in vec], dtype=np.int64)
    cols = np.searchsorted(_codes(bucket, Q), _codes(monos, Q))
    return rows, cols, np.array([c for vec in vecs for c in vec.values()], dtype=np.int64)


def _ab_ranks(spec, m, cap):
    """Per-degree (rank A, rank B, rank of A stacked on B).

    Every degree's A, B and stacked rows are column blocks of one
    elimination; their entries, each vector twice, are charged before any
    is built.
    """
    Q = spec.q ** m
    a_vecs, b_vecs = _a_vectors(spec, m, cap), _b_vectors(spec, m, cap)
    buckets = _degree_buckets(spec.n, Q)
    vecs = [av + bv for av, bv in zip(a_vecs, b_vecs)]
    entries = CodeEntries(2 * sum(len(vec) for vs in vecs for vec in vs),
                          2 * sum(map(len, vecs)), 3 * Q ** spec.n, spec.field)
    row0 = col0 = 0
    for av, both, bucket in zip(a_vecs, vecs, buckets):
        if both:
            rows, cols, codes = _ab_entries(both, bucket, Q)
            alone = np.where(rows < len(av), col0, col0 + len(bucket))
            entries.add(rows + row0, cols + alone, codes)
            entries.add(rows + row0 + len(both), cols + col0 + 2 * len(bucket), codes)
            row0 += 2 * len(both)
        col0 += 3 * len(bucket)
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
