"""Hyperplane-fixing reflection groups in their normalized basis.

Every group is the family (q, n, ell, e) over F_q = GF(p^r): a diagonal
reflection of order e and transvections with roots over an F_p-basis of F_q
in the first ell coordinates of ker(x_n); the full pointwise stabilizer in
GL_n(F_q) is ell = n - 1, e = q - 1.  Groups are generator matrices,
enumerated by closure, acting on polynomials by inverse-matrix substitution,
so the displayed forms x_k -> x_k - x_n and x_n -> w^{-1} x_n hold literally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ff import CapExceeded, MatrixFq, check_field_params, make_field, rank_codes, \
    root_of_unity

ENUM_CAP = 10_000_000


@dataclass(frozen=True)
class GroupSpec:
    """Parameters (p, r, n, ell, e) of a hyperplane-fixing group of order e q^ell.

    ell counts hyperplane coordinates carrying roots over all of F_q, e is the
    order of the diagonal reflection.  For r > 1 only ell = 0 and
    full_stabilizer, GL_n(F_q)_H with ell = n - 1 and e = q - 1, are admitted.
    An omitted ell or e takes that largest family's value.
    """

    p: int
    r: int = 1
    n: int = 2
    ell: int = None
    e: int = None
    full_stabilizer: bool = False

    def __post_init__(self):
        check_field_params(self.p, self.r)  # the field itself is built on first use
        if self.n < 2:
            raise ValueError("dimension n must be at least 2")
        q = self.p ** self.r
        if self.ell is None:
            object.__setattr__(self, "ell", self.n - 1)
        elif self.full_stabilizer and self.ell != self.n - 1:
            raise ValueError("full stabilizer forces ell = n - 1")
        if self.e is None:
            object.__setattr__(self, "e", q - 1)
        elif self.full_stabilizer and self.e != q - 1:
            raise ValueError("full stabilizer forces e = q - 1")
        if self.full_stabilizer:
            return
        if not 0 <= self.ell <= self.n - 1:
            raise ValueError("ell must lie in [0, n - 1]")
        if self.e < 1 or (q - 1) % self.e != 0:
            raise ValueError(f"e must divide q - 1 = {q - 1}")
        if self.r > 1 and self.ell != 0:
            raise ValueError(
                "the transvection family is normalized over the prime field; "
                "use r = 1, ell = 0, or full_stabilizer"
            )

    @property
    def q(self):
        return self.p ** self.r

    @property
    def field(self):
        return make_field(self.p, self.r)

    @property
    def group_order(self):
        return self.e * self.q ** self.ell

    def to_json(self):
        return {
            "p": self.p, "r": self.r, "n": self.n, "ell": self.ell,
            "e": self.e, "full_stabilizer": self.full_stabilizer,
        }


def _diagonal(field, n, omega):
    return MatrixFq.elementary(field, n, n - 1, n - 1, omega)


def build_group(spec):
    """Generator matrices, acting on column vectors v -> g v, in the normalized
    basis: diagonal first, then transvections.

    The transvection I + gamma E_{k,n} adds gamma v_n to v_k, dually
    x_k -> x_k - gamma x_n, for every k < ell and gamma in the F_p-basis
    1, alpha, ..., alpha^(r-1) of F_q.
    """
    field, n = spec.field, spec.n
    gens = []
    if spec.e > 1:
        gens.append(_diagonal(field, n, root_of_unity(field, spec.e)))
    basis = [field.elem([0] * i + [1]) for i in range(spec.r)]
    gens += [MatrixFq.elementary(field, n, k, n - 1, gamma)
             for k in range(spec.ell) for gamma in basis]
    return gens


def enumerate_elements(gens, cap=ENUM_CAP):
    """Closure of the generators under multiplication, breadth-first."""
    if not gens:
        raise ValueError("enumeration needs at least one generator for the field")
    identity = MatrixFq.identity(gens[0].field, gens[0].rows)
    seen = {identity}
    order = [identity]
    frontier = [identity]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                h = m * g
                if h not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"group closure exceeded {cap} elements")
                    seen.add(h)
                    order.append(h)
                    new.append(h)
        frontier = new
    return order


def group_elements(spec, cap=ENUM_CAP):
    """All elements of the spec's group; the count must match the order formula."""
    gens = build_group(spec)
    if not gens:
        return [MatrixFq.identity(spec.field, spec.n)]
    elements = enumerate_elements(gens, cap)
    assert len(elements) == spec.group_order, (
        f"closure found {len(elements)} elements, formula gives {spec.group_order}"
    )
    return elements


def act(g, f):
    """Action on polynomials: f -> f o g^{-1}, a left action on functions."""
    from .poly import substitute_linear  # building a group needs no polynomials

    return substitute_linear(f, g.inverse())


def root_vector(g):
    """The unique alpha with g(v) = v + x_n(v) alpha; None for the identity.

    Requires g to fix the hyperplane ker(x_n) pointwise.  g is a transvection
    exactly when alpha is a nonzero vector of the hyperplane.
    """
    n, field = g.rows, g.field
    for i in range(n):
        for j in range(n - 1):
            d = g.entry(i, j) - (field.one() if i == j else field.zero())
            if d:
                raise ValueError("element does not fix the hyperplane pointwise")
    alpha = tuple(g.entry(i, n - 1) - (field.one() if i == n - 1 else field.zero())
                  for i in range(n))
    if not any(alpha):
        return None
    return alpha


def transvection_rootspace_dim(elements):
    """F_p-dimension of the span of transvection roots inside the hyperplane."""
    roots = [root_vector(g) for g in elements]
    # a semisimple element's root leaves the hyperplane
    rows = [[c for coord in alpha for c in coord.coeffs]
            for alpha in roots if alpha is not None and not alpha[-1]]
    if not rows:
        return 0
    return rank_codes(rows, make_field(elements[0].field.p))


def full_gl_generators(field, n):
    """Generators of all of GL_n(F_q); used only by tiny brute-force checks."""
    gens = [MatrixFq.elementary(field, n, i, j, 1)
            for i in range(n) for j in range(n) if i != j]
    if field.order > 2:
        gens.append(_diagonal(field, n, root_of_unity(field, field.order - 1)))
    return gens
