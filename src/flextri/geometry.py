"""Exact coordinate constructions, projections and metric computations.

A placement is a plain dict {vertex label: Point}: ``check_placement``
validates one against a list of labels, and ``face_shapes`` gives the shape
of each face of a complex placed on it.

The constructions give QuadExt coordinates, so every derived quantity
(squared lengths, plane evaluations, projection images) stays inside one
quadratic field context and is compared exactly.  ``integer_frame`` is the
one way from the field to the pair predicate: it writes a point set of one
context whose axes each carry one basis element of the field as int
coordinate tuples under a positive scale per axis, and refuses any other
point set.  ``plane_axes`` and ``face_is_degenerate`` take coordinate
tuples, so they serve field points and the int frame alike.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations

from .numeric import (
    CTX_SQRT2_SQRT3,
    CTX_SQRT5,
    QQ,
    ContextMismatchError,
    FieldContext,
    QuadExt,
    _reduced,
    _Value,
    solve_linear,
)


class ParameterError(ValueError):
    """A construction parameter is missing or out of its valid range."""


class Point(_Value, frozen=True):
    __slots__ = ("coords",)

    def __init__(self, coords: tuple[QuadExt, ...]):
        _set_coords(self, coords)  # built on hot paths: one descriptor call

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def ctx(self) -> FieldContext:
        return self.coords[0].ctx

    def __sub__(self, other: "Point") -> "Point":
        return Point(tuple(map(operator.sub, self.coords, other.coords)))

    def __add__(self, other: "Point") -> "Point":
        return Point(tuple(map(operator.add, self.coords, other.coords)))

    def scale(self, r) -> "Point":
        return Point(tuple(a * r for a in self.coords))

    def dot(self, other: "Point") -> QuadExt:
        acc = self.coords[0] * other.coords[0]
        for a, b in zip(self.coords[1:], other.coords[1:]):
            acc = acc + a * b
        return acc

    def norm_sq(self) -> QuadExt:
        return self.dot(self)

    def cross(self, other: "Point") -> "Point":
        (a1, a2, a3), (b1, b2, b3) = self.coords, other.coords
        return Point((a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1))

    def is_zero(self) -> bool:
        return not any(self.coords)


_set_coords = Point.coords.__set__


def make_point(ctx: FieldContext, *entries) -> Point:
    coords = tuple(
        e if isinstance(e, QuadExt) else QuadExt(e, ctx=ctx) for e in entries
    )
    return Point(coords)


def dist_sq(p: Point, q: Point) -> QuadExt:
    return (p - q).norm_sq()


class RealizationParams(_Value, frozen=True):
    __slots__ = ("k",)

    def __init__(self, k: Fraction):
        self._set_slots(k)


def check_placement(labels, placement: dict) -> None:
    """Raise ValueError unless every label has a point and no two share one."""
    missing = [v for v in labels if v not in placement]
    if missing:
        raise ValueError(f"placement missing vertices {missing}")
    pts = [placement[v] for v in labels]
    if len(set(pts)) != len(pts):
        raise ValueError("placement maps distinct labels to equal points")


def _sub(p: tuple, q: tuple) -> tuple:
    return tuple(map(operator.sub, p, q))


def plane_axes(u: tuple, w: tuple) -> tuple[int, int] | None:
    """The coordinate pair (i, j) on which span(u, w) projects one-to-one,
    for coordinate tuples u and w: the last pair in lexicographic order
    whose 2x2 minor is nonzero, or None iff u and w are linearly dependent.
    In R^3 that is (1, 2), then (0, 2), then (0, 1): the axis dropped is the
    first nonzero component of u x w."""
    n = len(u)
    for i in range(n - 2, -1, -1):
        for j in range(n - 1, i, -1):
            if u[i] * w[j] - u[j] * w[i]:
                return i, j
    return None


def face_is_degenerate(a: tuple, b: tuple, c: tuple) -> bool:
    """True iff the three coordinate tuples are affinely dependent."""
    return plane_axes(_sub(b, a), _sub(c, a)) is None


def integer_frame(placement: dict):
    """The placement as int points under one positive scale per axis.

    The coordinates must be QuadExt values of one context, and those on
    axis i rational multiples of one basis element of the field (1, sqrt d1,
    sqrt d2 or sqrt(d1 d2)).  The placement is then the image of an int
    placement under the diagonal map x_i -> s_i x_i with s_i > 0: s_i is
    that basis element times g/L, where L is the lcm of the axis's
    denominators and g the gcd of the numerators over L.  Raises
    ContextMismatchError when the coordinates come from more than one
    context, and ValueError naming the axis when an axis mixes basis
    elements.  The coordinates are read as their int numerators and
    denominator: a value with one nonzero numerator is in lowest terms.
    Returns ({label: tuple of ints}, (s_0, ..., s_{n-1})).
    """
    labels = list(placement)
    ctx = next((p.ctx for p in placement.values()), None)
    columns, scales = [], []
    for i, axis in enumerate(zip(*(placement[v].coords for v in labels))):
        for x in axis:
            if x.ctx is not ctx and x.ctx != ctx:
                raise ContextMismatchError(f"cannot combine contexts {ctx} and {x.ctx}")
        *numerators, dens = zip(*(x._n for x in axis))
        slots = [j for j, nums in enumerate(numerators) if any(nums)]
        if len(slots) > 1:
            raise ValueError(f"axis {i} mixes basis elements of {ctx}: no int frame")
        slot = slots[0] if slots else 0
        den = math.lcm(*dens)
        nums = [x * (den // d) for x, d in zip(numerators[slot], dens)]
        g = math.gcd(*nums) or 1
        columns.append([x // g for x in nums])
        unit = [0, 0, 0, 0, den]
        unit[slot] = g
        scales.append(_reduced(ctx, *unit))
    return dict(zip(labels, zip(*columns))), tuple(scales)


def isometry_group(labels, placement: dict, scales) -> list[dict]:
    """Every permutation g of ``labels`` that keeps the exact squared
    distance of every pair of placed points: |p_g(u) - p_g(v)|^2 =
    |p_u - p_v|^2.  Point sets with equal pairwise distances are congruent,
    so each g is the restriction of an isometry of the ambient space and
    keeps every incidence of the placed faces.

    ``placement`` and ``scales`` are an ``integer_frame``: the squared
    distance of two int points is sum_i s_i^2 (x_i - y_i)^2, with the
    rational s_i^2 made int weights over their common denominator.  The
    distance matrix is built once; labels are then assigned images in
    order by backtracking, each to an unused label whose distances to the
    images assigned so far match.  Returns {label: image} dicts, ordered by
    the positions in ``labels`` of the images of labels[0], labels[1], ...
    compared lexicographically; so the identity comes first.
    """
    labels = list(labels)
    pts = [placement[v] for v in labels]
    # s_i is a rational times one basis element, so s_i^2 is rational
    sq = [(s * s).a for s in scales]
    den = math.lcm(*(q.denominator for q in sq))
    weights = [q.numerator * (den // q.denominator) for q in sq]

    def dist(p, q):
        return sum(w * (x - y) ** 2 for w, x, y in zip(weights, p, q))

    n = len(labels)
    d = [[None] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = dist(pts[i], pts[j])
    group, image, free = [], [], [True] * n

    def extend(k):
        if k == n:
            group.append({u: labels[c] for u, c in zip(labels, image)})
            return
        want = list(zip(image, d[k]))  # (image of labels[j], d[k][j]) for j < k
        for c in range(n):
            if free[c]:
                for m, r in want:
                    if d[c][m] != r:
                        break
                else:
                    free[c] = False
                    image.append(c)
                    extend(k + 1)
                    image.pop()
                    free[c] = True

    extend(0)
    return group


# -- named constructions ---------------------------------------------------

def construction_coords(name: str, params: RealizationParams | None = None) -> dict:
    """Exact labeled point sets for the named constructions.

    suspension (needs k > 2) and schlegel16cell (needs k > 3) take the
    homothety parameter k; the other constructions are parameter-free.
    """
    if name == "suspension":
        k = _require_k(name, params, lower=Fraction(2))
        ctx = CTX_SQRT2_SQRT3
        s2 = QuadExt(0, 1, ctx=ctx)   # sqrt 2
        s6 = QuadExt(0, 0, 0, 1, ctx=ctx)  # sqrt 6
        s8 = 2 * s2
        return {
            "A": make_point(ctx, 0, 0, s8),
            "B": make_point(ctx, -s8 / k, 0, 0),
            "C": make_point(ctx, s2 / k, s6 / k, 0),
            "D": make_point(ctx, s2 / k, -s6 / k, 0),
            "E": make_point(ctx, 0, 0, -s8),
            "F": make_point(ctx, s8, 0, 0),
            "G": make_point(ctx, -s2, -s6, 0),
            "H": make_point(ctx, -s2, s6, 0),
        }
    if name == "schlegel16cell":
        k = _require_k(name, params, lower=Fraction(3))
        return sixteen_cell_diagram(k)
    if name == "rp2_simplex":
        ctx = CTX_SQRT5
        up = QuadExt(0, Fraction(4, 5), ctx=ctx)    # 4/sqrt5
        dn = QuadExt(0, Fraction(-1, 5), ctx=ctx)   # -1/sqrt5
        return {
            "A": make_point(ctx, 0, 0, 0, up),
            "B": make_point(ctx, 1, 1, 1, dn),
            "C": make_point(ctx, 1, -1, -1, dn),
            "D": make_point(ctx, -1, 1, -1, dn),
            "E": make_point(ctx, -1, -1, 1, dn),
            "O": make_point(ctx, 0, 0, 0, 0),
        }
    if name == "moebius":
        ctx = CTX_SQRT5
        return {
            "A": make_point(ctx, 0, 0, 0),
            "B": make_point(ctx, 1, 1, 1),
            "C": make_point(ctx, 1, -1, -1),
            "D": make_point(ctx, -1, 1, -1),
            "E": make_point(ctx, -1, -1, 1),
        }
    if name == "std_hyperoctahedron":
        return _unit_cross_polytope(4, "ABCD", "EFGH")
    if name == "std_octahedron":
        return _unit_cross_polytope(3, "BCD", "FGH")
    raise ParameterError(f"unknown construction {name!r}")


def sixteen_cell_diagram(k: Fraction) -> dict:
    """Outer tetrahedron ABCD with its inner homothetic image EFGH scaled by
    -1/k about the origin; valid for any k > 0 (inner tetra lies inside the
    outer one only for k > 3, which construction_coords enforces)."""
    if k <= 0:
        raise ParameterError(f"homothety parameter must be positive, got {k}")
    ctx = CTX_SQRT2_SQRT3
    s2 = QuadExt(0, 1, ctx=ctx)
    s6 = QuadExt(0, 0, 0, 1, ctx=ctx)
    s8 = 2 * s2
    return {
        "A": make_point(ctx, 0, 0, 3),
        "B": make_point(ctx, s8, 0, -1),
        "C": make_point(ctx, -s2, s6, -1),
        "D": make_point(ctx, -s2, -s6, -1),
        "E": make_point(ctx, 0, 0, Fraction(-3, 1) / k),
        "F": make_point(ctx, -s8 / k, 0, Fraction(1) / k),
        "G": make_point(ctx, s2 / k, -s6 / k, Fraction(1) / k),
        "H": make_point(ctx, s2 / k, s6 / k, Fraction(1) / k),
    }


def _unit_cross_polytope(dim: int, plus_labels: str, minus_labels: str) -> dict:
    out = {}
    for i, label in enumerate(plus_labels):
        out[label] = make_point(QQ, *(1 if j == i else 0 for j in range(dim)))
    for i, label in enumerate(minus_labels):
        out[label] = make_point(QQ, *(-1 if j == i else 0 for j in range(dim)))
    return out


def _require_k(name: str, params: RealizationParams | None, lower: Fraction) -> Fraction:
    if params is None:
        raise ParameterError(f"{name} requires parameter k > {lower}")
    k = Fraction(params.k)
    if k <= lower:
        raise ParameterError(f"{name} requires k > {lower}, got k = {k}")
    return k


DEFAULT_PARAMS = {
    "suspension": RealizationParams(Fraction(14, 5)),
    "schlegel16cell": RealizationParams(Fraction(4)),
}


# -- projections -----------------------------------------------------------

def centroid(points) -> Point:
    pts = list(points)
    acc = pts[0]
    for p in pts[1:]:
        acc = acc + p
    return acc.scale(Fraction(1, len(pts)))


def default_viewpoint(points: dict, facet, offset: Fraction = Fraction(1, 10)) -> Point:
    """Facet centroid pushed outward (away from the body centroid)."""
    fc = centroid(points[v] for v in facet)
    bc = centroid(points.values())
    return fc + (fc - bc).scale(offset)


def schlegel_project(points: dict, facet, viewpoint: Point | None = None) -> dict:
    """Central projection onto the hyperplane of a facet, from a viewpoint
    just outside it; images are affine coordinates in the facet frame
    (origin = first facet vertex, axes = other facet vertices minus it)."""
    facet = list(facet)
    if viewpoint is None:
        viewpoint = default_viewpoint(points, facet)
    base = points[facet[0]]
    axes = [points[v] - base for v in facet[1:]]
    m = len(axes)
    n = base.dim

    # facet must affinely span its hyperplane
    probe = solve_linear(
        [[axes[j].coords[i] for j in range(m)] for i in range(n)],
        [QuadExt(0, ctx=base.ctx)] * n,
    )
    if probe.kind != "unique":
        raise ParameterError("degenerate facet: vertices are affinely dependent")
    if _in_facet_hull_span(viewpoint, base, axes):
        raise ParameterError("viewpoint lies on the facet hyperplane")

    out = {}
    for label, p in points.items():
        direction = p - viewpoint
        # solve  sum_j s_j * axes_j - t * direction = viewpoint - base
        matrix = [
            [axes[j].coords[i] for j in range(m)] + [-direction.coords[i]]
            for i in range(n)
        ]
        rhs = [(viewpoint - base).coords[i] for i in range(n)]
        sol = solve_linear(matrix, rhs)
        if sol.kind != "unique":
            raise ParameterError(
                f"projection line through {label} does not meet the facet "
                f"hyperplane in a single point"
            )
        out[label] = Point(tuple(sol.particular[:m]))
    return out


def _in_facet_hull_span(viewpoint: Point, base: Point, axes) -> bool:
    m = len(axes)
    n = base.dim
    matrix = [[axes[j].coords[i] for j in range(m)] for i in range(n)]
    rhs = [(viewpoint - base).coords[i] for i in range(n)]
    return solve_linear(matrix, rhs).kind != "inconsistent"


def orthogonal_project(points: dict, drop_axis: int) -> dict:
    """Delete one coordinate from every point; exact."""
    return {
        label: Point(tuple(c for i, c in enumerate(p.coords) if i != drop_axis))
        for label, p in points.items()
    }


# -- metrics ---------------------------------------------------------------

SHAPES = ("equilateral", "isosceles", "scalene")


def face_shapes(faces, placement: dict) -> dict:
    """Each face's shape by its number of distinct exact squared side lengths:
    {face: "equilateral" | "isosceles" | "scalene"}."""
    shapes = {}
    for f in faces:
        sq = [dist_sq(placement[u], placement[v]) for u, v in combinations(f, 2)]
        distinct = 1 + (sq[0] != sq[1]) + (sq[2] != sq[0] and sq[2] != sq[1])
        shapes[f] = SHAPES[distinct - 1]
    return shapes


def circumcenter(points) -> Point:
    """Center equidistant from all given points (must exist and be unique
    inside their affine hull)."""
    pts = list(points)
    base = pts[0]
    ctx = base.ctx
    n = base.dim
    # |x|^2 - 2 x.p_i = |x|^2 - 2 x.p_0 + (|p_0|^2 - |p_i|^2) ... linearized
    matrix, rhs = [], []
    for p in pts[1:]:
        d = p - base
        matrix.append([2 * d.coords[i] for i in range(n)])
        rhs.append(p.norm_sq() - base.norm_sq())
    sol = solve_linear(matrix, rhs)
    if sol.kind == "inconsistent":
        raise ValueError("points admit no equidistant center")
    if sol.kind == "parametric":
        # center not pinned by these points alone; pick the min-norm-free
        # representative only if the nullspace is trivial in practice
        raise ValueError("circumcenter under-determined for these points")
    return Point(tuple(sol.particular))


def circumradius_sq(points) -> QuadExt:
    pts = list(points)
    return dist_sq(circumcenter(pts), pts[0])


def plane_distance_sq(p: Point, a: Point, b: Point, c: Point) -> QuadExt:
    """Squared distance from p to the plane through a, b, c (R^3 only)."""
    n = (b - a).cross(c - a)
    h = n.dot(p - a)
    return h * h / n.norm_sq()


def tetra_inradius_sq(tetra) -> QuadExt:
    """Squared inradius of a tetrahedron whose incenter coincides with its
    circumcenter (the regular-up-to-scaling cases used here); asserts the
    four face-plane distances agree."""
    a, b, c, d = tetra
    center = circumcenter(tetra)
    dists = [
        plane_distance_sq(center, *face)
        for face in ((b, c, d), (a, c, d), (a, b, d), (a, b, c))
    ]
    if any(x != dists[0] for x in dists[1:]):
        raise ValueError("incenter does not coincide with circumcenter")
    return dists[0]


def tetra_containment(outer, inner) -> str:
    """Position of the inner point set relative to the closed outer
    tetrahedron: strict_interior, touching, or outside."""
    a, b, c, d = outer
    faces = ((b, c, d, a), (a, c, d, b), (a, b, d, c), (a, b, c, d))
    any_on = False
    for p in inner:
        for (x, y, z, opp) in faces:
            n = (y - x).cross(z - x)
            ref = n.dot(opp - x).sign()
            if ref == 0:
                raise ValueError("degenerate outer tetrahedron")
            s = n.dot(p - x).sign()
            if s == 0:
                any_on = True
            elif s != ref:
                return "outside"
    return "touching" if any_on else "strict_interior"
