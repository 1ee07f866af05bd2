"""Sparse multivariate polynomials over a finite field, with weighted
graded-lex orders, multivariate division, and truncation by a Frobenius power.

Monomials are plain exponent tuples; a polynomial is a map from exponent
tuple to nonzero coefficient.  The same machinery carries both the ambient
ring in the variables x_1..x_n (all weights 1) and the invariant subring in
the basic invariants f_1..f_n (weights deg f_i), because the two orders of
interest are weighted graded-lex with first-variable precedence in both.
The order is the ring's: PolyRing.key sorts monomials by it.  A polynomial
is a plain value, its terms fixed at construction and nothing cached on
it; its leading term is a max over them, and a loop that needs the same
leads many times keeps them itself.

Both substitutions of the invariant theory run through compose, which
replaces each x_i by the i-th of a list of polynomials in one ring: a group
element's linear images of the x_i (substitute_linear, monomial_images), and
the basic invariants' x-expansions of the f_i (invariants.expand_f).

Powers use the Frobenius: in characteristic p, f^p is f with every exponent
times p and every coefficient to the p-th power, so f^k is the product over
the base-p digits d_i of k of (f^(p^i))^(d_i), by at most (p - 1) log_p k
products of sparse factors.  A one-term f is raised directly.

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

from .ff import Field, FieldElem


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

    def key(self, exps):
        """Weighted graded-lex: weighted degree first, then lex with x_1 > ... > x_n."""
        return (sum(w * a for w, a in zip(self.weights, exps)), exps)

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


def cmp(ring, u, v):
    """-1, 0, or 1 as u <, =, > v under the ring's order."""
    ku, kv = ring.key(u), ring.key(v)
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
        if len(self.terms) == 1:
            # exact in O(n), where the digit loop takes up to (p - 1) log_p k products
            (m, c), = self.terms.items()
            return Polynomial(self.ring, {tuple(a * k for a in m): c ** k})
        p = self.ring.field.p
        result = self.ring.one()
        frob = self   # self^(p^i) for the current base-p digit i of k
        while k:
            k, digit = divmod(k, p)
            for _ in range(digit):
                result = result * frob
            frob = Polynomial(self.ring, {tuple(a * p for a in m): c ** p
                                          for m, c in frob.terms.items()})
        return result

    def __str__(self):
        return poly_str(self)

    __repr__ = __str__


def leading_monomial(f):
    """Maximal (monomial, coefficient) under the ring's order; error on zero."""
    if not f.terms:
        raise ValueError("LM of zero")
    m = max(f.terms, key=f.ring.key)
    return m, f.terms[m]


def reduce_mod_frobenius(f, Q):
    """Canonical representative of f modulo (x_1^Q, ..., x_n^Q)."""
    if Q < 2:
        raise ValueError("Frobenius power must be at least 2")
    terms = {m: c for m, c in f.terms.items() if all(a < Q for a in m)}
    return Polynomial(f.ring, terms)


def divide(f, divisors, leads=None):
    """Multivariate division: f = sum q_i d_i + rem, first-divisor-wins.

    No monomial of rem is divisible by any divisor's leading monomial; the
    quotients depend on the list order, so callers fix it.  leads, the
    divisors' leading terms in order, saves a caller that divides by the
    same list many times from listing them on every call.
    """
    if leads is None:
        leads = [leading_monomial(d) for d in divisors]
    quotients = [f.ring.zero()] * len(divisors)
    rem_terms = {}
    work = f
    while work.terms:
        m, c = leading_monomial(work)
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


def compose(f, images):
    """f with each x_i replaced by images[i]; the images share one ring, the result's."""
    ring = images[0].ring
    out = ring.zero()
    for m, c in f.terms.items():
        term = ring.constant(c)
        for image, a in zip(images, m):
            if a:
                term = term * image ** a
        out = out + term
    return out


def linear_images(g, ring):
    """The images of x_1..x_n under substitute_linear by g: x_j -> sum_i g[j][i] x_i."""
    if g.rows != ring.n or g.cols != ring.n or g.field != ring.field:
        raise ValueError("substitution matrix must be n x n over the ring's field")
    xs = [ring.variable(i) for i in range(ring.n)]
    return [sum((x * g.entry(j, i) for i, x in enumerate(xs)), ring.zero())
            for j in range(ring.n)]


def monomial_images(g, ring):
    """x^a -> its image under the substitution of substitute_linear, by g.

    Returns a function of the exponent tuple a: the product of the images of
    the x_j to the powers a_j.
    """
    images = linear_images(g, ring)
    return lambda exps: compose(ring.monomial(exps), images)


def substitute_linear(f, g):
    """Replace x_j by the row-j combination sum_i g[j][i] x_i (a right action).

    See the module docstring for the convention and a worked example.
    """
    return compose(f, linear_images(g, f.ring))


def poly_str(f):
    """Deterministic text form: terms in descending ring order, `c*x1^a1*...`."""
    if not f.terms:
        return "0"
    parts = []
    for m in sorted(f.terms, key=f.ring.key, reverse=True):
        c = f.terms[m]
        factors = [str(c)]
        for i, a in enumerate(m):
            if a == 1:
                factors.append(f"{f.ring.prefix}{i + 1}")
            elif a > 1:
                factors.append(f"{f.ring.prefix}{i + 1}^{a}")
        parts.append("*".join(factors))
    return " + ".join(parts)
