"""Sparse multivariate polynomials over a finite field, with weighted
graded-lex orders, multivariate division, and truncation by a Frobenius power.

Monomials are plain exponent tuples; a polynomial is a map from exponent
tuple to nonzero coefficient.  The same machinery carries both the ambient
ring in the variables x_1..x_n (all weights 1) and the invariant subring in
the basic invariants f_1..f_n (weights deg f_i), because the two orders of
interest are weighted graded-lex with first-variable precedence in both.

Matrix substitution convention, worked 2x2 example.  substitute_linear(f, A)
replaces x_j by the row-j combination sum_i A[j][i] x_i, which makes it a
right action: substituting A then B equals substituting A*B.  A group element
with matrix M (acting on column vectors v -> M v) therefore acts on
polynomials by f -> substitute_linear(f, M^{-1}).  Over F_5 with n = 2 take
the transvection M = [[1,1],[0,1]], so M^{-1} = [[1,4],[0,1]]: row 1 sends
x_1 to x_1 - x_2 and row 2 fixes x_2.  The polynomial x_1^5 - x_1 x_2^4 is
then fixed: (x_1-x_2)^5 - (x_1-x_2) x_2^4 expands to x_1^5 - x_2^5
- x_1 x_2^4 + x_2^5 = x_1^5 - x_1 x_2^4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ff import FieldElem, binom_mod_p


@dataclass(frozen=True)
class PolyRing:
    """Ambient descriptor: arity, scalar field, per-variable weights, name prefix."""

    field: Field
    n: int
    weights: tuple = None
    prefix: str = "x"

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights", (1,) * self.n)
        else:
            object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != self.n:
            raise ValueError("one weight per variable")

    def order(self):
        return MonomialOrder(self.weights)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = self.field.elem(c)
        return Polynomial(self, {(0,) * self.n: c} if c else {})

    def variable(self, i):
        """x_{i+1}: zero-based index into x_1..x_n."""
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.n)))

    def monomial(self, exps, coeff=1):
        c = self.field.elem(coeff)
        exps = tuple(int(a) for a in exps)
        if len(exps) != self.n or any(a < 0 for a in exps):
            raise ValueError("bad exponent vector")
        return Polynomial(self, {exps: c} if c else {})


@dataclass(frozen=True)
class MonomialOrder:
    """Weighted graded-lex: weighted degree first, then lex with x_1 > ... > x_n."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))

    def key(self, exps):
        return (sum(w * a for w, a in zip(self.weights, exps)), exps)

    def degree(self, exps):
        return sum(w * a for w, a in zip(self.weights, exps))


def cmp(order, u, v):
    """-1, 0, or 1 as u <, =, > v under the order."""
    ku, kv = order.key(u), order.key(v)
    return (ku > kv) - (ku < kv)


def _mono_mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _mono_divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def _mono_div(u, v):
    return tuple(a - b for a, b in zip(u, v))


class Polynomial:
    """Immutable sparse polynomial; terms map exponent tuple -> nonzero coeff."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _check(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("ring mismatch")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in o.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, FieldElem)):
            c = self.ring.field.elem(other)
            if not c:
                return self.ring.zero()
            return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()})
        o = self._check(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return self.ring.one()
        items = list(self.terms.items())
        if len(items) == 0:
            return self.ring.zero()
        if len(items) == 1:
            (m, c), = items
            return Polynomial(self.ring, {tuple(a * k for a in m): c ** k})
        if len(items) == 2:
            # binomial expansion with Lucas coefficients; most group images
            # of variables are binomials, so this path carries the bulk
            (m1, c1), (m2, c2) = items
            p = self.ring.field.p
            out = {}
            for j in range(k + 1):
                b = binom_mod_p(k, j, p)
                if not b:
                    continue
                c = (c1 ** j) * (c2 ** (k - j)) * b
                if not c:
                    continue
                m = tuple(a * j + b2 * (k - j) for a, b2 in zip(m1, m2))
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
            return Polynomial(self.ring, out)
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero())

    def total_degree(self):
        """Max unweighted degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def weighted_degree(self, weights=None):
        if not self.terms:
            return None
        w = self.ring.weights if weights is None else weights
        return max(sum(wi * a for wi, a in zip(w, m)) for m in self.terms)

    def __str__(self):
        return poly_str(self)

    __repr__ = __str__


def leading_monomial(f, order):
    """Maximal (monomial, coefficient) under the order; error on zero."""
    if not f.terms:
        raise ValueError("LM of zero")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def reduce_mod_frobenius(f, Q):
    """Canonical representative of f modulo (x_1^Q, ..., x_n^Q)."""
    if Q < 2:
        raise ValueError("Frobenius power must be at least 2")
    terms = {m: c for m, c in f.terms.items() if all(a < Q for a in m)}
    return Polynomial(f.ring, terms)


def divide(f, divisors, order):
    """Multivariate division: f = sum q_i d_i + rem, first-divisor-wins.

    No monomial of rem is divisible by any divisor's leading monomial; the
    quotients depend on the list order, so callers fix it.
    """
    leads = [leading_monomial(d, order) for d in divisors]
    quotients = [f.ring.zero() for _ in divisors]
    rem_terms = {}
    work = f
    while work.terms:
        m, c = leading_monomial(work, order)
        for i, (lm, lc) in enumerate(leads):
            if _mono_divides(lm, m):
                t = Polynomial(f.ring, {_mono_div(m, lm): c / lc})
                quotients[i] = quotients[i] + t
                work = work - t * divisors[i]
                break
        else:
            rem_terms[m] = c
            work = Polynomial(f.ring, {k: v for k, v in work.terms.items() if k != m})
    return quotients, Polynomial(f.ring, rem_terms)


def monomial_images(g, ring):
    """x^a -> its image under the substitution of substitute_linear, by g.

    Returns a function of the exponent tuple a.  The image of x_j is the row-j
    combination sum_i g[j][i] x_i; its powers are cached across calls, so
    the images of many monomials under one matrix share the work.
    """
    if g.rows != ring.n or g.cols != ring.n or g.field != ring.field:
        raise ValueError("substitution matrix must be n x n over the ring's field")
    rows = []
    for j in range(ring.n):
        img = ring.zero()
        for i in range(ring.n):
            c = g.entry(j, i)
            if c:
                img = img + ring.monomial(tuple(1 if t == i else 0 for t in range(ring.n)), c)
        rows.append(img)
    pows = [{} for _ in range(ring.n)]

    def image(exps):
        out = None
        for j, a in enumerate(exps):
            if a:
                part = pows[j].get(a)
                if part is None:
                    part = pows[j][a] = rows[j] ** a
                out = part if out is None else out * part
        return ring.one() if out is None else out

    return image


def substitute_linear(f, g):
    """Replace x_j by the row-j combination sum_i g[j][i] x_i (a right action).

    See the module docstring for the convention and a worked example.
    """
    image = monomial_images(g, f.ring)
    out = f.ring.zero()
    for m, c in f.terms.items():
        out = out + image(m) * c
    return out


def poly_str(f):
    """Deterministic text form: terms in descending ring order, `c*x1^a1*...`."""
    if not f.terms:
        return "0"
    order = f.ring.order()
    parts = []
    for m in sorted(f.terms, key=order.key, reverse=True):
        c = f.terms[m]
        factors = [str(c)]
        for i, a in enumerate(m):
            if a == 1:
                factors.append(f"{f.ring.prefix}{i + 1}")
            elif a > 1:
                factors.append(f"{f.ring.prefix}{i + 1}^{a}")
        parts.append("*".join(factors))
    return " + ".join(parts)
