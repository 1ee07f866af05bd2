"""Orbit counting on points of (F_{q^m})^n by direct enumeration.

The group acts coordinate-wise on the points of V' = (F_{q^m})^n once its
matrix entries are embedded into the extension field.  We enumerate all
q^{mn} points, label each with the least point of its orbit by min-label
propagation along the generator moves, and read off the orbit count and
the orbit-size histogram.  For the groups built from a GroupSpec the count
has a closed form,

    q^{m(n-1)} + q^{m(n-1)} (q^m - 1) / |G|,

because points on the extended hyperplane are fixed and every other point
has trivial stabilizer.  The enumeration re-derives both facts and the
report records whether they hold.

Points are indexed densely: a coordinate is the integer code of a field
element and a point is the mixed-radix word of its coordinate codes, so
generator images are computed with ff.code_arithmetic on whole arrays and
the labels are plain integer arrays.  Labels converge by the min-label
hooking and pointer jumping of Shiloach and Vishkin, "An O(log n) parallel
connectivity algorithm", J. Algorithms 1982.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .ff import DEFAULT_POINT_CAP, check_budget, check_power_cap, code_arithmetic, embed, \
    make_field
from .group import build_group


@dataclasses.dataclass(frozen=True)
class OrbitReport:
    """Outcome of one orbit enumeration.

    histogram maps are stored as a sorted tuple of (size, multiplicity)
    pairs; formula_value and match stay None when no closed form applies
    (user-supplied generator sets).
    """

    spec: object
    m: int
    total_points: int
    orbit_count: int
    histogram: tuple
    formula_value: int | None
    match: bool | None

    def __post_init__(self):
        assert sum(s * c for s, c in self.histogram) == self.total_points, (
            "histogram fails to account for every point"
        )
        assert sum(c for _, c in self.histogram) == self.orbit_count, (
            "histogram fails to account for every orbit"
        )

    def to_json(self):
        return {
            "spec": None if self.spec is None else self.spec.to_json(),
            "m": self.m,
            "total_points": self.total_points,
            "orbit_count": self.orbit_count,
            "histogram": [[s, c] for s, c in self.histogram],
            "formula_value": self.formula_value,
            "match": self.match,
        }


def closed_form_orbit_count(spec, m):
    """q^{m(n-1)} + q^{m(n-1)}(q^m - 1)/|G| for any spec-built group."""
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    qm = spec.q**m
    fixed = qm ** (spec.n - 1)
    moving, rem = divmod(fixed * (qm - 1), spec.group_order)
    assert rem == 0, "group order fails to divide the off-hyperplane point count"
    return fixed + moving


def _generator_images(mat, big, coords):
    """Index array of g applied to every point, from coordinate code arrays.

    Coordinate i of g x is the sum over j of g_ij x_j, in the code arithmetic
    of the big field; the index is then assembled by Horner's rule.
    """
    codes = code_arithmetic(big)
    images = np.zeros_like(coords[0])
    for i in reversed(range(mat.rows)):
        acc = None
        for j in range(mat.cols):
            entry = big.encode(embed(mat.field, big, mat.entry(i, j)))
            if entry:
                term = codes.mul(entry, coords[j])
                acc = term if acc is None else codes.add(acc, term)
        images *= big.order
        if acc is not None:
            images += acc
    return images


def _enumerate_orbits(mats, big, n, total):
    """Orbit-size histogram of the group generated by mats on all total points.

    Every point is labelled by the least point of its orbit: each round a
    label becomes the least among itself and the labels of the point's
    images, the least label also moves back along every generator edge, and
    every label takes the label of its label (pointer jumping).  The per-point
    arrays, the index, n coordinates, an image per generator, the labels and
    a round's temporaries, are charged before the first one exists.
    """
    check_budget(total * 8 * (n + len(mats) + 5), f"enumerating the orbits of {total} points")
    label = np.arange(total, dtype=np.int64)
    coords = [label // big.order ** j % big.order for j in range(n)]
    images = [_generator_images(mat, big, coords) for mat in mats]
    del coords
    while True:
        new = label.copy()
        for image in images:
            np.minimum(new, label[image], out=new)
            np.minimum.at(new, image, label)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    sizes = np.bincount(label)
    sizes, counts = np.unique(sizes[sizes > 0], return_counts=True)
    return tuple(zip(sizes.tolist(), counts.tolist()))


def _points(p, r, n, m, max_points):
    """(q^{mn}, F_{q^m}) for q = p^r: the point count of (F_{q^m})^n, within the
    cap, and its field, which is built only once the cap has passed."""
    if m < 1:
        raise ValueError("Frobenius exponent m must be at least 1")
    check_power_cap(p, r * m * n, max_points, "orbit enumeration", "points")
    return p ** (r * m * n), make_field(p, r * m)


def count_orbits_enum(spec, m, max_points=DEFAULT_POINT_CAP):
    """Enumerate the orbits of the spec group on (F_{q^m})^n.

    match holds when the orbit count equals the closed form and the
    histogram has the known orbit structure: the q^{m(n-1)} points of the
    extended hyperplane are singletons and every other orbit has the full
    group order as its size, so a trivial group moves nothing and every
    size divides the order.
    """
    total, big = _points(spec.p, spec.r, spec.n, m, max_points)
    histogram = _enumerate_orbits(build_group(spec), big, spec.n, total)
    fixed = spec.q ** (m * (spec.n - 1))
    order = spec.group_order
    shape = {1: fixed}
    shape[order] = shape.get(order, 0) + (total - fixed) // order
    count = sum(c for _, c in histogram)
    formula = closed_form_orbit_count(spec, m)
    return OrbitReport(
        spec=spec,
        m=m,
        total_points=total,
        orbit_count=count,
        histogram=histogram,
        formula_value=formula,
        match=count == formula and histogram == tuple(sorted(shape.items())),
    )


def count_orbits_custom(gens, m, max_points=DEFAULT_POINT_CAP):
    """Enumerate orbits for an arbitrary generator list, asserting nothing.

    Exploratory variant: gens are matrices over a common base field,
    acting on (F_{q^m})^n.  The report carries no formula value and no
    match flag; callers compare against fixed-space dimensions themselves.
    """
    if not gens:
        raise ValueError("need at least one generator matrix")
    base = gens[0].field
    n = gens[0].rows
    for mat in gens:
        if mat.field != base or mat.rows != n or mat.cols != n:
            raise ValueError("generators must be square matrices over one field")
    total, big = _points(base.p, base.r, n, m, max_points)
    histogram = _enumerate_orbits(gens, big, n, total)
    return OrbitReport(
        spec=None,
        m=m,
        total_points=total,
        orbit_count=sum(c for _, c in histogram),
        histogram=histogram,
        formula_value=None,
        match=None,
    )
