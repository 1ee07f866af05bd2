"""Group construction, enumeration, and reflection classification.

Oracles: the order formula e*q^ell against breadth-first closure, the
product formula for |GL_n(F_q)|, and hand-pinned generator matrices for the
five-element-field archetype and the GF(4) and GF(9) stabilizers.
"""

import itertools
import pickle
import random

import pytest

from frobpow.ff import CapExceeded, MatrixFq, make_field, nullspace
from frobpow.group import (
    GroupSpec,
    act,
    build_group,
    enumerate_elements,
    full_gl_generators,
    group_elements,
    root_vector,
    transvection_rootspace_dim,
)
from frobpow.poly import PolyRing

F2, F3, F5 = make_field(2), make_field(3), make_field(5)

ARCHETYPE = GroupSpec(p=5, n=3, ell=2, e=4)


def _mat_ints(g):
    return [[int(str(c)) for c in g.row(i)] for i in range(g.rows)]


# -- spec validation --------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(p=6, n=2, ell=0, e=1)
    with pytest.raises(ValueError, match="at least 2"):
        GroupSpec(p=5, n=1, ell=0, e=1)
    with pytest.raises(ValueError, match=r"\[0, n - 1\]"):
        GroupSpec(p=5, n=2, ell=2, e=1)
    with pytest.raises(ValueError, match="divide q - 1 = 4"):
        GroupSpec(p=5, n=2, ell=1, e=3)
    assert GroupSpec(p=5, n=3) == GroupSpec(p=5, n=3, ell=2, e=4)  # the largest family
    with pytest.raises(ValueError, match="prime field"):
        GroupSpec(p=2, r=2, n=2, ell=1, e=1)
    with pytest.raises(ValueError, match="forces ell"):
        GroupSpec(p=5, n=3, ell=1, full_stabilizer=True)
    with pytest.raises(ValueError, match="forces e"):
        GroupSpec(p=5, n=3, e=2, full_stabilizer=True)
    assert GroupSpec(p=2, r=2, n=2, ell=0, e=3).group_order == 3
    spec = GroupSpec(p=2, r=2, n=2, full_stabilizer=True)
    assert (spec.ell, spec.e, spec.group_order) == (1, 3, 12)


def test_spec_json_roundtrip():
    # sweep jobs carry specs to their workers by pickle, and print them by to_json
    assert ARCHETYPE.to_json() == {
        "p": 5, "r": 1, "n": 3, "ell": 2, "e": 4, "full_stabilizer": False}
    for spec in (ARCHETYPE, GroupSpec(p=2, r=2, n=2, full_stabilizer=True)):
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and copy.to_json() == spec.to_json()


# -- generators -------------------------------------------------------------

def test_archetype_generators_pinned():
    gens = build_group(ARCHETYPE)
    assert [_mat_ints(g) for g in gens] == [
        [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
    ]


def test_generator_counts():
    assert len(build_group(GroupSpec(p=5, n=3, ell=1, e=2))) == 2
    assert len(build_group(GroupSpec(p=5, n=3, ell=0, e=1))) == 0
    assert len(build_group(GroupSpec(p=2, n=3, ell=2, e=1))) == 2
    # full stabilizer over F_4: 2 transvections per scaled root plus a diagonal
    assert len(build_group(GroupSpec(p=2, r=2, n=2, full_stabilizer=True))) == 3


def _admitted_specs(p, r):
    """Every spec over GF(p^r) with n <= 4 that GroupSpec accepts."""
    q = p ** r
    for n, full in itertools.product((2, 3, 4), (False, True)):
        for ell, e in itertools.product(range(n), range(1, q)):
            try:
                yield GroupSpec(p=p, r=r, n=n, ell=ell, e=e, full_stabilizer=full)
            except ValueError:
                pass


FIELDS_TO_64 = [(p, r) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                                  47, 53, 59, 61)
                for r in range(1, 7) if p ** r <= 64]


@pytest.mark.parametrize("p,r", FIELDS_TO_64, ids=[f"q{p ** r}" for p, r in FIELDS_TO_64])
def test_every_admitted_spec_counts_its_generators(p, r):
    # a diagonal when e > 1, then r scaled roots for each of the ell coordinates
    q = p ** r
    specs = list(_admitted_specs(p, r))
    assert sum(s.full_stabilizer for s in specs) == 3
    for spec in specs:
        assert len(build_group(spec)) == (spec.e > 1) + spec.ell * r
        assert spec.group_order == spec.e * q ** spec.ell
        if q <= 16 and spec.group_order <= 256:
            assert len(group_elements(spec)) == spec.group_order
        if spec.full_stabilizer:
            assert (spec.ell, spec.e) == (spec.n - 1, q - 1)
        elif r > 1:
            assert spec.ell == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_prime_field_stabilizer_is_the_largest_family(p, n):
    full = build_group(GroupSpec(p=p, n=n, full_stabilizer=True))
    assert full == build_group(GroupSpec(p=p, n=n, ell=n - 1, e=p - 1))


@pytest.mark.parametrize("p,r,want", [
    # GF(4) = F_2[a]/(a^2 + a + 1): diag(1, a), then roots 1 and a
    (2, 2, [[[(1, 0), (0, 0)], [(0, 0), (0, 1)]],
            [[(1, 0), (1, 0)], [(0, 0), (1, 0)]],
            [[(1, 0), (0, 1)], [(0, 0), (1, 0)]]]),
    # GF(9) = F_3[a]/(a^2 + 1): diag(1, 1 + a) of order 8, then roots 1 and a
    (3, 2, [[[(1, 0), (0, 0)], [(0, 0), (1, 1)]],
            [[(1, 0), (1, 0)], [(0, 0), (1, 0)]],
            [[(1, 0), (0, 1)], [(0, 0), (1, 0)]]]),
])
def test_extension_stabilizer_generators_pinned(p, r, want):
    gens = build_group(GroupSpec(p=p, r=r, n=2, full_stabilizer=True))
    assert [[[g.entry(i, j).coeffs for j in range(2)] for i in range(2)]
            for g in gens] == want


def test_trivial_group():
    spec = GroupSpec(p=5, n=3, ell=0, e=1)
    els = group_elements(spec)
    assert len(els) == 1
    assert els[0] == MatrixFq.identity(F5, 3)


# -- enumeration ------------------------------------------------------------

def test_enumeration_counts():
    assert len(group_elements(ARCHETYPE)) == 100  # e * p^ell = 4 * 25
    assert len(group_elements(GroupSpec(p=2, n=2, full_stabilizer=True))) == 2
    assert len(group_elements(GroupSpec(p=2, r=2, n=2, full_stabilizer=True))) == 12
    assert len(group_elements(GroupSpec(p=3, n=3, full_stabilizer=True))) == 18
    assert len(group_elements(GroupSpec(p=3, n=2, ell=1, e=2))) == 6


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_elements(build_group(ARCHETYPE), cap=10)
    with pytest.raises(ValueError):
        enumerate_elements([])


def test_closure_reproduces_from_shuffled_generators():
    els = group_elements(ARCHETYPE)
    gens = build_group(ARCHETYPE)
    rng = random.Random(5)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    again = enumerate_elements(shuffled)
    assert set(again) == set(els)


# -- element properties -----------------------------------------------------

SAMPLE_SPECS = [
    ARCHETYPE,
    GroupSpec(p=2, n=2, ell=1, e=1),
    GroupSpec(p=3, n=2, ell=1, e=2),
    GroupSpec(p=3, n=3, ell=2, e=1),
    GroupSpec(p=2, r=2, n=2, full_stabilizer=True),
    GroupSpec(p=3, n=2, full_stabilizer=True),
]


@pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=str)
def test_elements_fix_hyperplane_and_reflect(spec):
    els = group_elements(spec)
    field, n = spec.field, spec.n
    identity = MatrixFq.identity(field, n)
    for g in els:
        assert g.det()
        for j in range(n - 1):
            basis_vec = tuple(field.elem(1 if i == j else 0) for i in range(n))
            assert g.apply(basis_vec) == basis_vec
        if g != identity:
            diff_rows = [[g.entry(i, j) - identity.entry(i, j) for j in range(n)]
                         for i in range(n)]
            fixed = nullspace(MatrixFq.from_rows(field, diff_rows))
            assert len(fixed) == n - 1  # a reflection: fixed space is the hyperplane


@pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=str)
def test_determinant_character(spec):
    els = group_elements(spec)
    dets = {spec.field.encode(g.det()) for g in els}
    assert len(dets) == spec.e  # the determinant image is cyclic of order e
    kernel = [g for g in els if g.det() == spec.field.one()]
    assert len(kernel) * spec.e == len(els)
    for g in els:
        alpha = root_vector(g)
        if alpha is not None and not alpha[-1]:  # a transvection
            assert g.det() == spec.field.one()


# -- root vectors -----------------------------------------------------------

def test_root_vector_archetype():
    gens = build_group(ARCHETYPE)
    diag, t1, t2 = gens
    alpha = root_vector(t1)
    assert [int(str(c)) for c in alpha] == [1, 0, 0]  # the first basis vector
    alpha_2 = root_vector(t2)
    assert alpha_2 is not None and not alpha_2[-1]  # t2 is a transvection too
    alpha_n = root_vector(diag)
    assert alpha_n[-1]  # semisimple root leaves the hyperplane: not a transvection
    assert root_vector(MatrixFq.identity(F5, 3)) is None


def test_root_vector_rejects_non_stabilizer():
    g = MatrixFq.from_rows(F5, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="hyperplane"):
        root_vector(g)


def test_root_vector_reconstructs_action():
    for spec in SAMPLE_SPECS:
        field, n = spec.field, spec.n
        for g in group_elements(spec):
            alpha = root_vector(g)
            if alpha is None:
                continue
            for code in range(field.order ** n if field.order ** n <= 64 else 64):
                v = []
                rest = code
                for _ in range(n):
                    rest, c = divmod(rest, field.order)
                    v.append(field.decode(c))
                v = tuple(v)
                expect = tuple(vi + v[n - 1] * ai for vi, ai in zip(v, alpha))
                assert g.apply(v) == expect


def test_rootspace_dimensions():
    assert transvection_rootspace_dim(group_elements(ARCHETYPE)) == 2
    assert transvection_rootspace_dim(group_elements(GroupSpec(p=5, n=3, ell=0, e=1))) == 0
    assert transvection_rootspace_dim(group_elements(GroupSpec(p=5, n=3, ell=1, e=4))) == 1
    # GL_2(F_4)_H: the root line is one-dimensional over F_4, two over F_2
    els = group_elements(GroupSpec(p=2, r=2, n=2, full_stabilizer=True))
    assert transvection_rootspace_dim(els) == 2
    assert transvection_rootspace_dim([]) == 0


# -- action and full GL -----------------------------------------------------

def test_act_fixes_archetype_invariants():
    ring = PolyRing(F5, 3)
    x1, x2, x3 = (ring.variable(i) for i in range(3))
    basics = [x1 ** 5 - x1 * x3 ** 4, x2 ** 5 - x2 * x3 ** 4, x3 ** 4]
    for g in group_elements(ARCHETYPE):
        for f in basics:
            assert act(g, f) == f


def _gl_order(q, n):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


@pytest.mark.parametrize("p,r,n", [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_full_gl_generators(p, r, n):
    field = make_field(p, r)
    gens = full_gl_generators(field, n)
    if not gens:
        assert (field.order, n) == (2, 1)
        return
    els = enumerate_elements(gens)
    assert len(els) == _gl_order(field.order, n)
