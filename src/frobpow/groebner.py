"""Subduction into f-coordinates, S-pair verification of the h-generators,
initial-ideal Hilbert series, and the two-variable free resolution check.

An f-coordinate polynomial is a plain Polynomial over the weighted f-ring
attached to a BasicInvariants value.
Subduction inverts the presentation of the invariant ring: the leading
monomial of every basic invariant is the pure power x_i^{w_i}, so leading
exponents determine the f-monomial uniquely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ff import DEFAULT_MONOMIAL_CAP, CapExceeded, check_power_cap
from .group import GroupSpec
from .invariants import COMPLETION_CAP, basic_invariants, expand_f, h_generators
from .poly import divide, leading_monomial, poly_str, reduce_mod_frobenius
from .qseries import RationalExpr, expand, hilbert_A, hilbert_main_fp


def subduct(f, basics):
    """Rewrite an invariant polynomial in the f_i, by leading-term matching.

    Each step divides the leading exponents by the invariant degrees; a
    non-divisible exponent means the leading monomial is outside the
    subalgebra generated by the f_i and the input is rejected.
    """
    fring = basics.f_ring()
    weights = basics.weights
    rest = f
    out = fring.zero()
    while rest.terms:
        mono, coeff = leading_monomial(rest)
        if any(a % w for a, w in zip(mono, weights)):
            raise ValueError(
                f"leading monomial x^{mono} is not in the invariant subring")
        head = fring.monomial(tuple(a // w for a, w in zip(mono, weights)), coeff)
        rest = rest - expand_f(head, basics)
        out = out + head
    return out


def leading_monomials(hgens):
    """Leading f-exponents of each h-generator under the weighted order."""
    return [leading_monomial(hf)[0] for _, hf, _ in hgens.generators]


@dataclass(frozen=True)
class BuchbergerReport:
    spec: GroupSpec
    m: int
    names: tuple
    certificates: tuple   # ({"pair": [i, j], "remainder": "0" | str}, ...)
    ok: bool
    completed_size: int | None   # set when the from-scratch run was requested

    def to_json(self):
        return {"spec": self.spec.to_json(), "m": self.m,
                "names": list(self.names),
                "certificates": [dict(c) for c in self.certificates],
                "ok": self.ok, "completed_size": self.completed_size}


def _s_polynomial(fi, fj, lead_i, lead_j):
    """The S-polynomial of fi and fj, given their leading terms."""
    ring = fi.ring
    (mi, ci), (mj, cj) = lead_i, lead_j
    lcm = tuple(max(a, b) for a, b in zip(mi, mj))
    ui = ring.monomial(tuple(a - b for a, b in zip(lcm, mi)), cj)
    uj = ring.monomial(tuple(a - b for a, b in zip(lcm, mj)), ci)
    return ui * fi - uj * fj


def _complete_basis(hlist):
    basis = list(hlist)
    leads = [leading_monomial(b) for b in basis]
    queue = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while queue:
        i, j = queue.pop()
        s = _s_polynomial(basis[i], basis[j], leads[i], leads[j])
        _, r = divide(s, basis, leads)
        if r.terms:
            basis.append(r)
            leads.append(leading_monomial(r))
            if len(basis) > COMPLETION_CAP:
                raise CapExceeded("completion exceeded the basis cap")
            queue += [(i, len(basis) - 1) for i in range(len(basis) - 1)]
    return basis


def buchberger_check(hgens, from_scratch=False):
    """S-pair reduction certificate that the h-list generates its own
    leading-term ideal; optionally re-runs a full completion as a second
    oracle and confirms no new leading monomials appear.  The check passes
    when every certificate's remainder is "0"."""
    names, hlist, xlist = zip(*hgens.generators)
    leads = [leading_monomial(h) for h in hlist]
    Q = hgens.spec.q ** hgens.m
    certificates = [{"pair": None, "remainder": "membership failure"}
                    for xpoly in xlist if reduce_mod_frobenius(xpoly, Q).terms]
    for i, j in itertools.combinations(range(len(hlist)), 2):
        s = _s_polynomial(hlist[i], hlist[j], leads[i], leads[j])
        _, r = divide(s, hlist, leads)
        certificates.append({"pair": [i, j], "remainder": poly_str(r)})
    completed = None
    if from_scratch:
        basis = _complete_basis(hlist)
        completed = len(basis)
        lms = [lm for lm, _ in leads]
        for extra in basis[len(hlist):]:
            lm = leading_monomial(extra)[0]
            if not any(all(a >= b for a, b in zip(lm, known)) for known in lms):
                certificates.append(
                    {"pair": None, "remainder": f"new leading monomial f^{lm}"})
    ok = all(c["remainder"] == "0" for c in certificates)
    return BuchbergerReport(hgens.spec, hgens.m, names, tuple(certificates),
                            ok, completed)


def initial_ideal_hilbert(lead_monomials, weights, D):
    """Series of the quotient by a monomial ideal, by inclusion-exclusion
    over least common multiples of the generators."""
    gens = [tuple(g) for g in lead_monomials]
    if not gens:
        raise ValueError("need at least one monomial generator")
    if len(gens) > 20:
        raise ValueError("inclusion-exclusion over this many generators is off-budget")
    terms = {}
    for size in range(len(gens) + 1):
        for subset in itertools.combinations(gens, size):
            lcm = [0] * len(weights)
            for g in subset:
                lcm = [max(a, b) for a, b in zip(lcm, g)]
            d = sum(w * a for w, a in zip(weights, lcm))
            terms[d] = terms.get(d, 0) + (-1) ** size
    expr = RationalExpr(tuple((c, d) for d, c in sorted(terms.items()) if c),
                        tuple(weights))
    return expand(expr, D)


@dataclass(frozen=True)
class SyzygyVector:
    """Coefficients against (h_0, h_1, h_2); the dot product must vanish."""

    name: str
    coeffs: tuple

    def dot(self, hlist):
        out = None
        for c, h in zip(self.coeffs, hlist):
            term = c * h
            out = term if out is None else out + term
        return out

    def to_json(self):
        return {"name": self.name, "coeffs": [poly_str(c) for c in self.coeffs]}


@dataclass(frozen=True)
class Resolution2DReport:
    branch: str
    p: int
    m: int
    e: int
    f0_shifts: tuple
    f1_shifts: tuple
    syzygies: tuple
    series_bound: int
    resolution_series: tuple
    ideal_series: tuple
    failures: tuple

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {"branch": self.branch, "p": self.p, "m": self.m, "e": self.e,
                "f0_shifts": list(self.f0_shifts),
                "f1_shifts": list(self.f1_shifts),
                "syzygies": [s.to_json() for s in self.syzygies],
                "series_bound": self.series_bound,
                "resolution_series": list(self.resolution_series),
                "ideal_series": list(self.ideal_series),
                "ok": self.ok, "failures": list(self.failures)}


def _free_module_series(shifts, weights, D):
    numer = {}
    for s in shifts:
        numer[s] = numer.get(s, 0) + 1
    expr = RationalExpr(tuple((c, d) for d, c in sorted(numer.items())),
                        tuple(weights))
    return expand(expr, D).coeffs


def resolution_2d(p, m, e, ell=1):
    """Resolution of the two-variable intersection ideal over the invariant ring.

    The modular branch (ell = 1) builds the three h-generators and the two
    independent syzygies between them, confirms the third syzygy is the
    stated combination of those two, and matches the alternating sum of
    free-module series against the ideal's series.  The nonmodular branch
    (ell = 0) does the same for the Koszul pair.
    """
    if ell not in (0, 1):
        raise ValueError("the two-variable resolution needs ell 0 or 1")
    spec = GroupSpec(p=p, n=2, ell=ell, e=e)
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    # the series are compared through degree D = 2p^m + e
    check_power_cap(p, m, DEFAULT_MONOMIAL_CAP, "the series", "coefficients", 2, e + 1)
    basics = basic_invariants(spec)
    fring = basics.f_ring()
    F, E = fring.variable(0), fring.variable(1)
    P = p ** m
    failures = []

    def check(cond, message):
        if not cond:
            failures.append(message)

    if ell == 0:
        h = F ** P
        hp = E ** (1 + (P - 1) // e)
        hlist = [h, hp]
        f0_shifts = (P, P + e - 1)
        f1_shifts = (2 * P + e - 1,)
        tau = SyzygyVector("tau", (hp, -h))
        check(not tau.dot(hlist).terms, "Koszul syzygy fails to annihilate")
        syzygies = (tau,)
        branch = "nonmodular"
        D = 2 * P + e
        a_series = hilbert_main_fp(p, 2, m, 0, e, D)
    else:
        hlist = [hf for _, hf, _ in h_generators(spec, m).generators]
        s = p ** (m - 1)
        Pp = fring.zero()
        for j in range(m):
            Pp = Pp + E ** ((P - p ** (j + 1)) // e) * F ** (p ** j)
        check(E * Pp == hlist[1], "h_1 fails to factor through the partial sum")
        R = Pp - F ** s
        tau01 = SyzygyVector("tau_{0,1}", (-Pp, E ** ((P - 1) // e), fring.zero()))
        cross = fring.zero()
        for j in range(1, m):
            for k in range(1, m):
                cross = cross + (F ** (p ** (j - 1) + p ** (k - 1))
                                 * E ** ((P - p ** j - p ** k + 1) // e))
        tau12 = SyzygyVector("tau_{1,2}", (-cross, R - F ** s, E))
        tau02 = SyzygyVector("tau_{0,2}",
                             (F ** (2 * s), fring.zero(), -E ** (1 + (P - 1) // e)))
        for tau in (tau01, tau12, tau02):
            check(not tau.dot(hlist).terms, f"{tau.name} fails to annihilate")
        lead = R - F ** s
        scale = E ** ((P - 1) // e)
        for i in range(3):
            want = lead * tau01.coeffs[i] - scale * tau12.coeffs[i]
            check(want == tau02.coeffs[i],
                  f"redundancy identity breaks in component {i}")
        syzygies = (tau01, tau12, tau02)
        f0_shifts = (P + e - 1, P + e, 2 * P)
        f1_shifts = (2 * P + e - 1, 2 * P + e)
        branch = "modular"
        D = 2 * P + e
        a_series = hilbert_A(p, 2, m, e, D)

    weights = basics.weights
    for hx in (expand_f(hf, basics) for hf in hlist):
        check(not reduce_mod_frobenius(hx, P).terms,
              "generator expansion escapes the Frobenius ideal")
    f0 = _free_module_series(f0_shifts, weights, D)
    f1 = _free_module_series(f1_shifts, weights, D)
    resolution = tuple(a - b for a, b in zip(f0, f1))
    sg = expand(RationalExpr(((1, 0),), tuple(weights)), D)
    ideal = tuple(a - b for a, b in zip(sg.coeffs, a_series.coeffs))
    check(resolution == ideal, "series of the resolution misses the ideal")
    check(all(c >= 0 for c in resolution), "negative coefficient in the ideal series")
    return Resolution2DReport(branch, p, m, e, f0_shifts, f1_shifts, syzygies,
                              D, resolution, ideal, tuple(failures))
