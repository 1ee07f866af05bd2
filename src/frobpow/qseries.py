"""Truncated Hilbert series, Gaussian binomials, and closed-form expansions.

Everything here is exact integer arithmetic on dense coefficient lists.
Every closed form the paper checks is a polynomial written as a ratio of
products of (1 - t^a), and one primitive, :func:`_ratio`, builds a list
times such a ratio: multiplying by (1 - t^u) subtracts a copy shifted by u,
and dividing by (1 - t^v) is the stride-v prefix sum, whose remainder must
vanish.  Each factor costs O(length), so a series costs a few passes over
its n(P - 1) + 1 coefficients, and every builder charges those against the
memory budget before it builds a list.  The product, split, rational and
(q,t)-binomial forms of the family series are separate factor lists and are
asserted equal; :func:`expand` stays the independent truncated route for a
rational form, by the same prefix sums.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .ff import check_budget, count_str, factor_prime_power
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
        out = {"coeffs": list(self.coeffs[:top + 1]) + [0] * (top - self.truncation),
               "truncation": top, "closed_form": self.closed_form}
        if self.conjectural:
            out["conjectural"] = True
        return out

    def terms(self):
        """The text of the series a term at a time: c*t^d for each nonzero
        coefficient by ascending degree, each after the first led by " + ";
        a zero series is the one term "0"."""
        sep = ""
        for d, c in enumerate(self.coeffs):
            if c:
                yield f"{sep}{c}*t^{d}"
                sep = " + "
        if not sep:
            yield "0"

    def __str__(self):
        return "".join(self.terms())


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
    _charge(D + 1)
    c = [0] * (D + 1)
    for coeff, exp in expr.numer:
        if 0 <= exp <= D:
            c[exp] += coeff
    for w in expr.denom:
        for i in range(w, D + 1):
            c[i] += c[i - w]
    return TruncatedSeries(tuple(c), closed_form=str(expr))


# -- dense polynomial helpers ------------------------------------------------

# What a builder holds at its peak per coefficient of the full series length:
# the few dense lists alive at once, a pointer and an integer object each.
# Under tracemalloc that came to 52-194 bytes for n = 2 to 5 and, as the
# integers grow with n, at most 242 bytes up to n = 20.
_COEFF_BYTES = 256


def _charge(length):
    """check_budget for building series lists of length coefficients."""
    check_budget(_COEFF_BYTES * length, f"a series of {count_str(length)} coefficients")


def _ratio(a, ups=(), downs=()):
    """a prod (1 - t^u) / prod (1 - t^v) as a dense list; every division is exact.

    Multiplying by (1 - t^u) subtracts the list shifted by u, and dividing
    by (1 - t^v) is the stride-v prefix sum, whose last v entries are the
    remainder: each factor costs O(length).
    """
    out = list(a) + [0] * sum(ups)
    for u in ups:
        out[u:] = map(operator.sub, out[u:], out)
    for v in downs:
        for r in range(v):
            out[r::v] = itertools.accumulate(out[r::v])
        assert not any(out[-v:]), "division left a remainder"
        del out[-v:]
    return out


def _add(a, b):
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]


def _trim(a, D):
    return tuple(a[: D + 1]) + (0,) * (D + 1 - len(a))


def _series(poly, D, closed_form="", conjectural=False):
    degree = max((d for d, c in enumerate(poly) if c), default=0)
    if D < degree:
        raise ValueError(f"truncation bound D={D} is below the series degree "
                         f"{degree}; the least valid D is {degree}")
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


def _qt_poly(m, k, q, a=(1,)):
    """a times the (q,t)-binomial [m k] as a dense list."""
    return _ratio(a, [q ** m - q ** i for i in range(k)],
                  [q ** k - q ** i for i in range(k)])


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
    """Fixed-space Hilbert series for a transvection family over F_p."""
    return hilbert_for_spec(GroupSpec(p=p, n=n, ell=ell, e=e), m, D)


def hilbert_stabilizer_fq(q, n, m, D=None):
    """Fixed-space Hilbert series for the full hyperplane stabilizer in GL_n(F_q)."""
    p, r = factor_prime_power(q)
    return hilbert_for_spec(GroupSpec(p=p, r=r, n=n, full_stabilizer=True), m, D)


def hilbert_A(w, n, m, e, D=None):
    """Series of the invariant image: ((1-t^{w^m})/(1-t^w))^{n-1} times
    (1 - t^{w^m+e-1} + (n-1) t^{w^m} (1-t^e))/(1-t^e); w is p or q."""
    factor_prime_power(w)
    if n < 2 or m < 1 or e < 1 or (w - 1) % e:
        raise ValueError("need n >= 2, m >= 1, and e dividing w - 1")
    P = w ** m
    D = n * (P - 1) if D is None else D
    _charge(max(D, n * (P - 1)) + 1)
    ups, downs = [P] * (n - 1), [w] * (n - 1)
    poly = _add(_ratio([1], ups + [P + e - 1], downs + [e]),
                _ratio([0] * P + [n - 1], ups, downs))
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
    D = n * (P - 1) if D is None else D
    _charge(max(D, n * (P - 1)) + 1)
    ups, shift = [P] * (n - 1), [0] * (P - 1)
    poly = _add(_ratio(shift + [1], ups, [1] * (n - 1)),
                _ratio(shift + [-1, -(n - 1)], ups, [w] * (n - 1)))
    label = (f"t^{P - 1} (((1-t^{w})/(1-t))^{n - 1} - {n - 1} t - 1) "
             f"((1-t^{P})/(1-t^{w}))^{n - 1}")
    return _series(poly, D, closed_form=label)


def lrs_conjecture(q, n, m, D=None):
    """Conjectured series for the full general linear group: the sum over
    k of t^{(n-k)(q^m-q^k)} times the (q,t)-binomial [m k]."""
    factor_prime_power(q)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    D = n * (q ** m - 1) if D is None else D
    _charge(max(D, n * (q ** m - 1)) + 1)
    total = [0]
    kmax = min(n, m)
    for k in range(kmax + 1):
        shift = [0] * ((n - k) * (q ** m - q ** k))
        total = _add(total, _qt_poly(m, k, q, shift + [1]))
    label = (f"sum_(k=0..{kmax}) t^(({n}-k)({q}^{m}-{q}^k)) [{m} k]_({q},t)")
    return _series(total, D, closed_form=label, conjectural=True)


def has_closed_form(spec):
    """Whether hilbert_for_spec has a formula for the spec.

    Every spec is the family (q, n, ell, e) over F_q; the formula is
    established here for r = 1 and for the full stabilizer only.
    """
    return spec.full_stabilizer or spec.r == 1


def hilbert_for_spec(spec, m, D=None):
    """Closed-form series for a group spec, or None when no formula applies.

    Expands the product form, the split form, the rational form and, when
    e = q - 1, the (q,t)-binomial form of the family series independently
    and insists they agree.  The full stabilizer's label leaves out the
    factor ((1-t^Q)/(1-t))^0.
    """
    if not has_closed_form(spec):
        return None
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    q, n, ell, e = spec.q, spec.n, spec.ell, spec.e
    P = q ** m
    D = n * (P - 1) if D is None else D
    _charge(max(D, n * (P - 1)) + 1)
    label = (f"((1-t^{P})/(1-t^{q}))^{ell} "
             f"[(1-t^{P - 1})/(1-t^{e}) + t^{P - 1} ((1-t^{q})/(1-t))^{ell}]")
    if not spec.full_stabilizer:
        label = f"((1-t^{P})/(1-t))^{n - ell - 1} " + label
    # the prefactor [P]_t^{n-ell-1} [q^{m-1}]_{t^q}^ell, distributed over each bracket
    ups, downs = [P] * (n - 1), [1] * (n - ell - 1) + [q] * ell
    shifted = [0] * (P - 1) + [1]
    head = _ratio([1], ups + [P - 1], downs + [e])
    out = _series(_add(head, _ratio(shifted, ups + [q] * ell, downs + [1] * ell)), D,
                  closed_form=label)
    # each other form is compared as soon as it is built, to hold few lists at once
    tail = _ratio(shifted, [P] * (n - 1), [1] * (n - 1))
    assert out.coeffs == _trim(_add(head, tail), D), "printed forms disagree"
    del head
    bracket = _add(_ratio([1], [P - 1]), _ratio(shifted, [e] + [q] * ell, [1] * ell))
    numer = enumerate(_ratio(bracket, [P] * (n - 1)))
    rational = RationalExpr(tuple((c, d) for d, c in numer if c), tuple(downs + [e]))
    assert out.coeffs == expand(rational, D).coeffs, "printed forms disagree"
    if e == q - 1:
        binomial = _add(_qt_poly(m, 1, q, _ratio([1], ups, downs)), tail)
        assert out.coeffs == _trim(binomial, D), "printed forms disagree"
    return out
