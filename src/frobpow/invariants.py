"""Basic invariants, Groebner generators, and the fixed space of the quotient
by a Frobenius power, computed degree by degree as exact linear algebra.

The quotient by (x_1^Q, ..., x_n^Q) with Q = q^m has the monomial basis
{x^a : a_i < Q}, graded by total degree.  Fixed spaces are computed from
generators only: a diagonal generator acts diagonally on monomials and cuts
the basis by an eigenvalue filter, every other generator contributes the
matrix of (action - identity) to a stacked nullspace problem.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .ff import CapExceeded, MatrixFq, binom_mod_p, factor_prime_power, make_field, \
    nullspace_codes, rank_codes
from .group import GroupElement, GroupSpec, build_group, full_gl_generators
from .poly import PolyRing, monomial_images, reduce_mod_frobenius, substitute_linear

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
    buckets = [[] for _ in range(n * (Q - 1) + 1)]
    for exps in itertools.product(range(Q), repeat=n):
        buckets[sum(exps)].append(exps)
    return tuple(tuple(b) for b in buckets)


def _split_generators(gens):
    diagonal, general = [], []
    for g in gens:
        mat = g.mat
        if all(not mat.entry(i, j) for i in range(mat.rows) for j in range(mat.cols) if i != j):
            diagonal.append(tuple(mat.entry(i, i) for i in range(mat.rows)))
        else:
            general.append(g)
    return diagonal, general


def _fixed_space(gens, field, n, Q, want_basis=False):
    """Per-degree fixed-space dims (and optionally basis vectors) in S/m^[Q]."""
    ring = PolyRing(field, n)
    diagonal, general = _split_generators(gens)
    diag_inv = [tuple(d.inverse() for d in diag) for diag in diagonal]
    engines = [monomial_images(g.mat.inverse(), ring) for g in general]
    one = field.one()
    buckets = _degree_buckets(n, Q)
    dims = []
    basis = []
    for bucket in buckets:
        cols = []
        for mono in bucket:
            keep = True
            for diag in diag_inv:
                scalar = one
                for d, a in zip(diag, mono):
                    if a:
                        scalar = scalar * d ** a
                if scalar != one:
                    keep = False
                    break
            if keep:
                cols.append(mono)
        if not engines or not cols:
            dims.append(len(cols))
            if want_basis:
                basis.append([{mono: one} for mono in cols])
            continue
        row_index = {mono: i for i, mono in enumerate(bucket)}
        nrows = len(bucket)
        stacked = np.zeros((nrows * len(engines), len(cols)), dtype=np.int64)
        for gi, engine in enumerate(engines):
            base = gi * nrows
            for ci, mono in enumerate(cols):
                img = reduce_mod_frobenius(engine(mono), Q).terms
                img[mono] = img.get(mono, field.zero()) - one
                for target, c in img.items():
                    if c:
                        stacked[base + row_index[target], ci] = field.encode(c)
        kernel = nullspace_codes(stacked, field)
        dims.append(len(kernel))
        if want_basis:
            vecs = []
            for krow in kernel:
                vec = {}
                for ci, code in enumerate(krow):
                    if code:
                        vec[cols[ci]] = field.decode(int(code))
                vecs.append(vec)
            basis.append(vecs)
    return (dims, basis) if want_basis else (dims, None)


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


def _wexp_vectors(weights, bound):
    """All exponent tuples with weighted degree <= bound."""
    if not weights:
        yield ()
        return
    w = weights[0]
    for head in range(bound // w + 1):
        for tail in _wexp_vectors(weights[1:], bound - w * head):
            yield (head,) + tail


def _vector_setup(spec, m, cap):
    """(Q, basic-invariant weights, top degree D, empty per-degree lists)."""
    Q = spec.q ** m
    _check_cap(Q, spec.n, cap)
    D = spec.n * (Q - 1)
    return Q, basic_invariants(spec).weights, D, [[] for _ in range(D + 1)]


def _a_vectors(spec, m, cap):
    """Reduced expansions of f-monomials, grouped by degree.

    The first ell basic invariants are the binomials x_i^q - x_i x_n^(q-1),
    the next ones the bare variables, the last a power of x_n.
    """
    Q, weights, D, by_degree = _vector_setup(spec, m, cap)
    field, n, ell, q = spec.field, spec.n, spec.ell, spec.q
    for bvec in _wexp_vectors(weights, D):
        d = sum(wi * bi for wi, bi in zip(weights, bvec))
        terms = [((), field.one())]  # ((x-exponent per binomial var...), coeff)
        alive = True
        for i in range(ell):
            if not bvec[i]:
                terms = [(exps + (0, 0), c) for exps, c in terms]
                continue
            piece = [(evar, en, field.elem(cc))
                     for evar, en, cc in _binomial_power_terms(bvec[i], q, Q, spec.p)]
            if not piece:
                alive = False
                break
            terms = [(exps + (evar, en), c * cc)
                     for exps, c in terms for evar, en, cc in piece]
        if not alive:
            continue
        vec = {}
        for exps, c in terms:
            full = [0] * n
            xn = 0
            for i in range(ell):
                full[i] = exps[2 * i]
                xn += exps[2 * i + 1]
            for i in range(ell, n - 1):
                full[i] = bvec[i]
            xn += bvec[n - 1] * weights[n - 1]
            if xn >= Q or any(x >= Q for x in full[:n - 1]):
                continue
            full[n - 1] = xn
            key = tuple(full)
            prev = vec.get(key)
            s = c if prev is None else prev + c
            if s:
                vec[key] = s
            else:
                vec.pop(key, None)
        if vec:
            by_degree[d].append(vec)
    return by_degree


def _b_vectors(spec, m, cap):
    """Reduced spanning elements of the complement module, grouped by degree.

    Multiplying by a basic invariant f_i, i < n, contributes only its pure
    power term x_i^(deg f_i): any x_n contribution pushes past x_n^(Q-1).
    """
    Q, weights, D, by_degree = _vector_setup(spec, m, cap)
    field, n, ell = spec.field, spec.n, spec.ell
    heads = [a for a in itertools.product(range(spec.q), repeat=ell) if sum(a) >= 2]
    fweights = weights[: n - 1]
    for avec in heads:
        base_deg = sum(avec) + Q - 1
        pad = avec + (0,) * (n - 1 - ell)
        for bvec in _wexp_vectors(fweights, D - base_deg):
            full = tuple(wi * bi + ai for wi, bi, ai in zip(fweights, bvec, pad))
            if all(x < Q for x in full):
                by_degree[sum(full) + Q - 1].append({full + (Q - 1,): field.one()})
    return by_degree


def _rank_by_degree(by_degree, field, n, Q):
    buckets = _degree_buckets(n, Q)
    dims = []
    for d, vecs in enumerate(by_degree):
        if not vecs:
            dims.append(0)
            continue
        index = {mono: i for i, mono in enumerate(buckets[d])}
        rows = np.zeros((len(vecs), len(index)), dtype=np.int64)
        for vi, vec in enumerate(vecs):
            for mono, c in vec.items():
                rows[vi, index[mono]] = field.encode(c)
        dims.append(rank_codes(rows, field))
    return dims


def a_space_dims(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Per-degree dimension of the image of the invariant ring in S/m^[q^m]."""
    Q = spec.q ** m
    vecs = _a_vectors(spec, m, max_monomials)
    return HilbertFunction(tuple(_rank_by_degree(vecs, spec.field, spec.n, Q)))


def b_space_dims(spec, m, max_monomials=DEFAULT_MONOMIAL_CAP):
    """Per-degree dimension of the complement module spanned over f_1..f_{n-1}."""
    Q = spec.q ** m
    vecs = _b_vectors(spec, m, max_monomials)
    return HilbertFunction(tuple(_rank_by_degree(vecs, spec.field, spec.n, Q)))


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
    Q = spec.q ** m
    field, n = spec.field, spec.n
    a_vecs = _a_vectors(spec, m, max_monomials)
    b_vecs = _b_vectors(spec, m, max_monomials)
    a_dims = _rank_by_degree(a_vecs, field, n, Q)
    b_dims = _rank_by_degree(b_vecs, field, n, Q)
    union = [av + bv for av, bv in zip(a_vecs, b_vecs)]
    union_dims = _rank_by_degree(union, field, n, Q)
    brute = brute_force_hilbert(spec, m, max_monomials)
    rows = []
    mismatches = []
    for d in range(len(a_dims)):
        a, b, u, br = a_dims[d], b_dims[d], union_dims[d], brute[d]
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
