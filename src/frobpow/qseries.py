"""Truncated Hilbert series, Gaussian binomials, and closed-form expansions.

Everything here is exact integer arithmetic on dense coefficient lists.  A
rational form with denominator factors (1 - t^w) is expanded division-free:
multiplying a truncated series by 1/(1 - t^w) is the stride-w prefix sum.
The closed-form series all turn out to be polynomials, so each operation
builds them from geometric blocks [k]_{t^s} = 1 + t^s + ... + t^{s(k-1)}
and cross-checks the alternative printed forms against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ff import factor_prime_power
from .group import GroupSpec


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer coefficients by t-degree, exact up to the truncation bound."""

    coeffs: tuple
    closed_form: str = field(default="", compare=False)
    conjectural: bool = field(default=False, compare=False)

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    @property
    def total(self):
        """Evaluation at t = 1; the dimension when the series is a polynomial."""
        return sum(self.coeffs)

    def __getitem__(self, d):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def to_json(self, truncate=None):
        """JSON form; a truncate degree re-windows the coefficients to 0..truncate."""
        top = self.truncation if truncate is None else truncate
        out = {"coeffs": [self[d] for d in range(top + 1)], "truncation": top,
               "closed_form": self.closed_form}
        if self.conjectural:
            out["conjectural"] = True
        return out

    def __str__(self):
        parts = [f"{c}*t^{d}" for d, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class RationalExpr:
    """Signed numerator terms over a product of (1 - t^w) factors."""

    numer: tuple          # ((coefficient, exponent), ...)
    denom: tuple          # stride w per factor, multiplicity by repetition

    def __post_init__(self):
        if any(w < 1 for w in self.denom):
            raise ValueError("denominator factors need exponent at least 1")

    def __str__(self):
        terms = " + ".join(f"{c}*t^{d}" for c, d in self.numer) or "0"
        if not self.denom:
            return terms
        bottom = "".join(f"(1-t^{w})" for w in self.denom)
        return f"({terms})/{bottom}"


def expand(expr, D):
    """Exact expansion of a rational form to degree D by prefix sums."""
    if D < 0:
        raise ValueError("truncation bound must be nonnegative")
    c = [0] * (D + 1)
    for coeff, exp in expr.numer:
        if 0 <= exp <= D:
            c[exp] += coeff
    for w in expr.denom:
        for i in range(w, D + 1):
            c[i] += c[i - w]
    return TruncatedSeries(tuple(c), closed_form=str(expr))


# -- dense polynomial helpers ------------------------------------------------

def _geom(count, stride):
    """[count]_{t^stride} as a dense list; the empty product for count = 0."""
    out = [0] * ((count - 1) * stride + 1) if count > 0 else [1]
    for i in range(count):
        out[i * stride] = 1
    return out


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _pow(a, k):
    out = [1]
    for _ in range(k):
        out = _mul(out, a)
    return out


def _add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def _shift(a, k):
    return [0] * k + list(a)


def _divide_exact(u, b):
    """Quotient of u by (1 - t^b); the division must be remainder-free."""
    v = list(u)
    for i in range(b, len(v)):
        v[i] += v[i - b]
    assert all(x == 0 for x in v[len(v) - b:]), "division left a remainder"
    return v[: len(v) - b]


def _trim(a, D):
    out = list(a[: D + 1]) + [0] * (D + 1 - len(a))
    return tuple(out)


def _series(poly, D, closed_form="", conjectural=False):
    assert all(c == 0 for c in poly[D + 1:]), "support exceeds the bound"
    s = TruncatedSeries(_trim(poly, D), closed_form=closed_form,
                        conjectural=conjectural)
    assert all(c >= 0 for c in s.coeffs), "negative series coefficient"
    return s


# -- binomials ---------------------------------------------------------------

def gaussian_binomial(m, k, q):
    """Count of k-dimensional subspaces of F_q^m; 0 for k outside [0, m]."""
    if m < 0 or q < 2:
        raise ValueError("need m >= 0 and q >= 2")
    if k < 0 or k > m:
        return 0
    num = math.prod(q ** m - q ** i for i in range(k))
    den = math.prod(q ** k - q ** i for i in range(k))
    assert num % den == 0
    return num // den


def _qt_poly(m, k, q):
    out = [1]
    for i in range(k):
        out = _mul(out, [1] + [0] * (q ** m - q ** i - 1) + [-1])
    for i in range(k):
        out = _divide_exact(out, q ** k - q ** i)
    return out


def qt_binomial(m, k, q, D):
    """(q,t)-analogue prod_{i<k} (1-t^{q^m-q^i})/(1-t^{q^k-q^i}), truncated.

    The quotient is an honest polynomial (asserted during the exact
    division); k outside [0, m] gives the zero series, matching the
    Gaussian-binomial convention.
    """
    if m < 0 or q < 2 or D < 0:
        raise ValueError("need m >= 0, q >= 2, and a nonnegative bound")
    form = f"prod_(i<{k}) (1-t^({q}^{m}-{q}^i))/(1-t^({q}^{k}-{q}^i))"
    if k < 0 or k > m:
        return TruncatedSeries(_trim([0], D), closed_form=form)
    poly = _qt_poly(m, k, q)
    s = TruncatedSeries(_trim(poly, D), closed_form=form)
    assert all(c >= 0 for c in s.coeffs)
    return s


# -- closed-form Hilbert series ----------------------------------------------

def hilbert_main_fp(p, n, m, ell, e, D=None):
    """Fixed-space Hilbert series for a transvection family over F_p.

    Expands all three equivalent printed forms independently and insists
    they agree; the returned series carries the first form as its label.
    """
    GroupSpec(p=p, n=n, ell=ell, e=e)
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    P = p ** m
    if D is None:
        D = n * (P - 1)
    inner = _add(_geom((P - 1) // e, e), _shift(_pow(_geom(p, 1), ell), P - 1))
    prefactor = _mul(_pow(_geom(P, 1), n - ell - 1), _pow(_geom(p ** (m - 1), p), ell))
    form1 = _mul(prefactor, inner)
    form2 = _add(_mul(prefactor, _geom((P - 1) // e, e)),
                 _shift(_pow(_geom(P, 1), n - 1), P - 1))
    bracket = _add([1] + [0] * (P - 2) + [-1],
                   _shift(_mul([1] + [0] * (e - 1) + [-1],
                               _pow(_geom(p, 1), ell)), P - 1))
    numer = _mul(_pow([1] + [0] * (P - 1) + [-1], n - 1), bracket)
    expr = RationalExpr(
        tuple((c, d) for d, c in enumerate(numer) if c),
        tuple([p] * ell + [1] * (n - ell - 1) + [e]))
    form3 = expand(expr, D)
    label = (f"((1-t^{P})/(1-t))^{n - ell - 1} ((1-t^{P})/(1-t^{p}))^{ell} "
             f"[(1-t^{P - 1})/(1-t^{e}) + t^{P - 1} ((1-t^{p})/(1-t))^{ell}]")
    out = _series(form1, D, closed_form=label)
    assert out.coeffs == _trim(form2, D) == form3.coeffs, "printed forms disagree"
    return out


def hilbert_stabilizer_fq(q, n, m, D=None):
    """Fixed-space Hilbert series for the full hyperplane stabilizer in GL_n(F_q)."""
    p, r = factor_prime_power(q)
    GroupSpec(p=p, r=r, n=n, full_stabilizer=True)
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    Q = q ** m
    if D is None:
        D = n * (Q - 1)
    prefactor = _pow(_geom(q ** (m - 1), q), n - 1)
    form1 = _mul(prefactor, _add(_geom((Q - 1) // (q - 1), q - 1),
                                 _shift(_pow(_geom(q, 1), n - 1), Q - 1)))
    bracket = _add([1] + [0] * (Q - 2) + [-1],
                   _shift(_mul([1] + [0] * (q - 2) + [-1],
                               _pow(_geom(q, 1), n - 1)), Q - 1))
    numer = _mul(_pow([1] + [0] * (Q - 1) + [-1], n - 1), bracket)
    expr = RationalExpr(
        tuple((c, d) for d, c in enumerate(numer) if c),
        tuple([q] * (n - 1) + [q - 1]))
    form2 = expand(expr, D)
    form3 = _add(_mul(prefactor, _qt_poly(m, 1, q)),
                 _shift(_mul(_pow(_geom(Q, 1), n - 1), _qt_poly(m, 0, q)), Q - 1))
    label = (f"((1-t^{Q})/(1-t^{q}))^{n - 1} "
             f"[(1-t^{Q - 1})/(1-t^{q - 1}) + t^{Q - 1} ((1-t^{q})/(1-t))^{n - 1}]")
    out = _series(form1, D, closed_form=label)
    assert out.coeffs == form2.coeffs == _trim(form3, D), "printed forms disagree"
    return out


def hilbert_A(w, n, m, e, D=None):
    """Series of the invariant image: ((1-t^{w^m})/(1-t^w))^{n-1} times
    (1 - t^{w^m+e-1} + (n-1) t^{w^m} (1-t^e))/(1-t^e); w is p or q."""
    factor_prime_power(w)
    if n < 2 or m < 1 or e < 1 or (w - 1) % e:
        raise ValueError("need n >= 2, m >= 1, and e dividing w - 1")
    P = w ** m
    if D is None:
        D = n * (P - 1)
    inner = _add(_geom((P + e - 1) // e, e), _shift([n - 1], P))
    poly = _mul(_pow(_geom(w ** (m - 1), w), n - 1), inner)
    label = (f"((1-t^{P})/(1-t^{w}))^{n - 1} "
             f"(1-t^{P + e - 1} + {n - 1} t^{P} (1-t^{e}))/(1-t^{e})")
    return _series(poly, D, closed_form=label)


def hilbert_B(w, n, m, D=None):
    """Series of the complement module: t^{w^m-1} times
    (((1-t^w)/(1-t))^{n-1} - (n-1) t - 1) ((1-t^{w^m})/(1-t^w))^{n-1}."""
    factor_prime_power(w)
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    P = w ** m
    if D is None:
        D = n * (P - 1)
    head = _add(_pow(_geom(w, 1), n - 1), [-1, -(n - 1)])
    poly = _shift(_mul(head, _pow(_geom(w ** (m - 1), w), n - 1)), P - 1)
    label = (f"t^{P - 1} (((1-t^{w})/(1-t))^{n - 1} - {n - 1} t - 1) "
             f"((1-t^{P})/(1-t^{w}))^{n - 1}")
    return _series(poly, D, closed_form=label)


def lrs_conjecture(q, n, m, D=None):
    """Conjectured series for the full general linear group: the sum over
    k of t^{(n-k)(q^m-q^k)} times the (q,t)-binomial [m k]."""
    factor_prime_power(q)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if D is None:
        D = n * (q ** m - 1)
    total = [0]
    kmax = min(n, m)
    for k in range(kmax + 1):
        total = _add(total, _shift(_qt_poly(m, k, q), (n - k) * (q ** m - q ** k)))
    label = (f"sum_(k=0..{kmax}) t^(({n}-k)({q}^{m}-{q}^k)) [{m} k]_({q},t)")
    return _series(total, D, closed_form=label, conjectural=True)


def has_closed_form(spec):
    """Whether hilbert_for_spec has a formula for the spec.

    The transvection-family formula needs the prime field; a proper-extension
    spec without the full stabilizer has no established closed form here.
    """
    return spec.full_stabilizer or spec.r == 1


def hilbert_for_spec(spec, m, D=None):
    """Closed-form series for a group spec, or None when no formula applies."""
    if not has_closed_form(spec):
        return None
    if spec.full_stabilizer:
        return hilbert_stabilizer_fq(spec.q, spec.n, m, D)
    return hilbert_main_fp(spec.p, spec.n, m, spec.ell, spec.e, D)
