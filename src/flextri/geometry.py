"""Exact coordinate constructions, an orthogonal projection, the int frame
and metric computations.

A placement is a plain dict {vertex label: Point}: ``check_placement``
validates one against a list of labels.  ``construction_coords`` gives the
named placements in QuadExt coordinates, and ``orthogonal_project`` drops
one axis.  ``integer_frame`` is the one way from the field to exact int
arithmetic: it writes coordinate tuples of one context whose axes each
carry one basis element of the field as int tuples under a positive scale
per axis, each scale as (slot, g, d), and refuses any other point set.
``plane_axes``, ``face_is_degenerate`` and ``orientation_sign`` take
coordinate tuples, so they serve field points and the int frame alike.
The metrics and ``isometry_group`` run on the int frame too: each s_i^2 is
rational, so the squared distances are, and radii come from their
Cayley-Menger determinants, as rational QuadExt values of the placement's
context; ``tetra_containment`` takes orient3d signs, which the positive
diagonal scale keeps.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .numeric import (
    CTX_SQRT2_SQRT3,
    CTX_SQRT5,
    QQ,
    FieldContext,
    QuadExt,
    _mismatch,
    _reduced,
    _Value,
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


_set_coords = Point.coords.__set__


def make_point(ctx: FieldContext, *entries) -> Point:
    """A point of context ``ctx``: each entry is a QuadExt of that context
    or a rational value, which the QuadExt constructor takes; a QuadExt of
    another context raises ContextMismatchError."""
    coords = []
    for e in entries:
        if not isinstance(e, QuadExt):
            e = QuadExt(e, ctx=ctx)
        elif e.ctx is not ctx and e.ctx != ctx:
            raise _mismatch(ctx, e.ctx)
        coords.append(e)
    return Point(tuple(coords))


class RealizationParams(_Value, frozen=True):
    __slots__ = ("k",)

    def __init__(self, k: Fraction):
        self._set_slots(k)


def _placed(labels, placement: dict) -> list:
    """The labels' points, in order; ValueError names any label with none."""
    missing = [v for v in labels if v not in placement]
    if missing:
        raise ValueError(f"placement missing vertices {missing}")
    return [placement[v] for v in labels]


def check_placement(labels, placement: dict) -> None:
    """Raise ValueError unless every label has a point and no two share one."""
    pts = _placed(labels, placement)
    if len(set(pts)) != len(pts):
        raise ValueError("placement maps distinct labels to equal points")


def _sub(p: tuple, q: tuple) -> tuple:
    return tuple(map(operator.sub, p, q))


def orientation_sign(points) -> int:
    """orient3d: the sign of the determinant of the difference vectors of
    four coordinate tuples in R^3."""
    a, b, c, d = points
    if len(a) != 3:
        raise ValueError(f"orient3d takes points of R^3, got R^{len(a)}")
    return _orient3d(a, b, c, d)


def _orient3d(a, b, c, d) -> int:
    """``orientation_sign`` on four int points of R^3, unchecked, on scalars."""
    x, y, z = a
    ux, uy, uz = b[0] - x, b[1] - y, b[2] - z
    wx, wy, wz = c[0] - x, c[1] - y, c[2] - z
    vx, vy, vz = d[0] - x, d[1] - y, d[2] - z
    det = ux * (wy * vz - wz * vy) + uy * (wz * vx - wx * vz) + uz * (wx * vy - wy * vx)
    return (det > 0) - (det < 0)


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


def _one_dimension(coords) -> None:
    """Raise ``integer_frame``'s ValueError unless the coordinate tuples
    all have one length."""
    dims = {len(x) for x in coords}
    if len(dims) > 1:
        raise ValueError(f"points of dimensions {sorted(dims)}: no int frame")


def integer_frame(coords):
    """QuadExt coordinate tuples as int tuples under one positive scale per axis.

    The coordinates must be QuadExt values of one context, and those on
    axis i rational multiples of one basis element of the field (1, sqrt d1,
    sqrt d2 or sqrt(d1 d2)).  The points are then the image of int points
    under the diagonal map x_i -> s_i x_i with s_i > 0: s_i is that basis
    element times g/L, where L is the lcm of the axis's denominators and g
    the gcd of the numerators over L.  Raises ContextMismatchError when the
    coordinates come from more than one context, ValueError naming the
    dimensions found when the points differ in dimension, and ValueError
    naming the axis when an axis mixes basis elements.  The coordinates are
    read as their int numerators and denominator: a value with one nonzero
    numerator is in lowest terms.  Returns the context, one int tuple per
    input, and each s_i as (slot, g, d): g / d > 0 times the basis element
    of its slot (0 to 3: 1, sqrt d1, sqrt d2, sqrt(d1 d2)), the form that
    ``numeric._on_axes`` and ``_sq_distances`` read.
    """
    _one_dimension(coords)
    ctx = coords[0][0].ctx if coords else None
    columns, scales = [], []
    for i, axis in enumerate(zip(*coords)):
        ns = []
        for x in axis:
            if x.ctx is not ctx and x.ctx != ctx:
                raise _mismatch(ctx, x.ctx)
            ns.append(x._n)
        *numerators, dens = zip(*ns)
        slot = 0
        for j in 1, 2, 3:
            if any(numerators[j]):
                if slot or any(numerators[0]):
                    raise ValueError(f"axis {i} mixes basis elements of {ctx}: no int frame")
                slot = j
        nums = numerators[slot]
        den = math.lcm(*dens)
        if den != 1:
            nums = [x * (den // d) for x, d in zip(nums, dens)]
        g = math.gcd(*nums) or 1
        columns.append(nums if g == 1 else [x // g for x in nums])
        scales.append((slot, g, den))
    return ctx, list(zip(*columns)), scales


def _sq_distances(pts, ctx, scales) -> tuple[list[list[int]], int]:
    """The squared distances of int frame points ``pts`` under the frame's
    context and ``scales`` (slot, g, d): (d, den), an int matrix and an int
    den > 0 with |p_i - p_j|^2 = d[i][j] / den.  The squared distance of
    two int points is sum_i s_i^2 (x_i - y_i)^2, and s_i^2 = g^2 (1, d1,
    d2, d1 d2)[slot] / d^2 is rational; the weights are the s_i^2 over
    their least common denominator: over the lcm of the d^2, then reduced
    by one gcd."""
    squares = 1, ctx.d1, ctx.d2, ctx.d1 * ctx.d2
    sq = [(g * g * squares[slot], d * d) for slot, g, d in scales]
    den = math.lcm(*[m for _, m in sq])
    weights = [n * (den // m) for n, m in sq]
    g = math.gcd(den, *weights)
    weights, den, n = [w // g for w in weights], den // g, len(pts)
    d = [[0] * n for _ in range(n)]
    for i, p in enumerate(pts):
        for j in range(i + 1, n):
            s = 0
            for w, x, y in zip(weights, p, pts[j]):
                s += w * (x - y) * (x - y)
            d[i][j] = d[j][i] = s
    return d, den


def _collinear(d, i, j, k) -> bool:
    """Points i, j and k of a squared-distance matrix ``d`` are collinear
    (two equal included): 4 d_ij d_ik = (d_ij + d_ik - d_jk)^2, the Gram
    test |u|^2 |w|^2 = (u . w)^2, exact in any dimension."""
    a, b = d[i][j], d[i][k]
    c = a + b - d[j][k]
    return 4 * a * b == c * c


def _distance_pattern(d) -> tuple:
    """The equality pattern of a squared-distance matrix ``d``
    (``_sq_distances``): read row by row, each distinct value numbered by
    its first occurrence, so 0 on the diagonal."""
    first = {}
    return tuple(first.setdefault(x, len(first)) for row in d for x in row)


@lru_cache(maxsize=256)
def _isometries(pattern: tuple) -> tuple:
    """The permutations of 0..n-1 that keep a ``_distance_pattern``, each
    as the tuple of images: indices are assigned images in order by
    backtracking, each to an unused index whose pattern entries against
    the images assigned so far match.  In lexicographic order, so the
    identity comes first."""
    n = math.isqrt(len(pattern))
    d = [pattern[i * n:(i + 1) * n] for i in range(n)]
    perms, image, free = [], [], [True] * n

    def extend(k):
        if k == n:
            perms.append(tuple(image))
            return
        want = list(zip(image, d[k]))  # (image of j, d[k][j]) for j < k
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
    return tuple(perms)


def isometry_group(labels, placement: dict) -> list[dict]:
    """Every permutation g of ``labels`` that keeps the exact squared
    distance of every pair of placed points: |p_g(u) - p_g(v)|^2 =
    |p_u - p_v|^2.  Point sets with equal pairwise distances are congruent,
    so each g is the restriction of an isometry of the ambient space and
    keeps every incidence of the placed faces.

    ``placement`` maps each label to its Point, and the distances are read
    on the ``integer_frame`` of the labels' points.  g keeps the distances
    exactly when it keeps which of them are equal, so the group is the
    automorphism group of the complete graph on the labels with each edge
    coloured by its squared distance: it depends only on their equality
    pattern (``_distance_pattern``), and the permutation search runs once
    per pattern (``_isometries``, a bounded cache).  Returns {label: image}
    dicts, ordered by the positions in ``labels`` of the images of
    labels[0], labels[1], ... compared lexicographically; so the identity
    comes first.
    """
    labels = list(labels)
    ctx, ints, scales = integer_frame([p.coords for p in _placed(labels, placement)])
    perms = _isometries(_distance_pattern(_sq_distances(ints, ctx, scales)[0]))
    return [dict(zip(labels, map(labels.__getitem__, p))) for p in perms]


# -- named constructions ---------------------------------------------------

def construction_coords(name: str, params: RealizationParams | None = None) -> dict:
    """Exact labeled point sets for the named constructions.

    suspension (needs k > 2) and schlegel16cell (needs k > 3) take the
    homothety parameter k; the other constructions are parameter-free.
    """
    if name == "suspension":
        t = 1 / _require_k(name, params, lower=Fraction(2))
        ctx, r = CTX_SQRT2_SQRT3, _surd
        return {
            "A": make_point(ctx, 0, 0, r(2)),
            "B": make_point(ctx, r(-2 * t), 0, 0),
            "C": make_point(ctx, r(t), r(0, t), 0),
            "D": make_point(ctx, r(t), r(0, -t), 0),
            "E": make_point(ctx, 0, 0, r(-2)),
            "F": make_point(ctx, r(2), 0, 0),
            "G": make_point(ctx, r(-1), r(0, -1), 0),
            "H": make_point(ctx, r(-1), r(0, 1), 0),
        }
    if name == "schlegel16cell":
        k = _require_k(name, params, lower=Fraction(3))
        return sixteen_cell_diagram(k)
    if name == "rp2-simplex":
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
        # the 16-cell: A..D are the unit vectors, E..H their antipodes
        units = [[int(j == i) for j in range(4)] for i in range(4)]
        return {
            **{v: make_point(QQ, *u) for v, u in zip("ABCD", units)},
            **{v: make_point(QQ, *(-x for x in u)) for v, u in zip("EFGH", units)},
        }
    raise ParameterError(f"unknown construction {name!r}")


def sixteen_cell_diagram(k: Fraction) -> dict:
    """Outer tetrahedron ABCD with its inner homothetic image EFGH scaled by
    -1/k about the origin; valid for any k > 0 (inner tetra lies inside the
    outer one only for k > 3, which construction_coords enforces)."""
    if k <= 0:
        raise ParameterError(f"homothety parameter must be positive, got {k}")
    t = 1 / Fraction(k)
    ctx, r = CTX_SQRT2_SQRT3, _surd
    return {
        "A": make_point(ctx, 0, 0, 3),
        "B": make_point(ctx, r(2), 0, -1),
        "C": make_point(ctx, r(-1), r(0, 1), -1),
        "D": make_point(ctx, r(-1), r(0, -1), -1),
        "E": make_point(ctx, 0, 0, -3 * t),
        "F": make_point(ctx, r(-2 * t), 0, t),
        "G": make_point(ctx, r(t), r(0, -t), t),
        "H": make_point(ctx, r(t), r(0, t), t),
    }


def _surd(b, e=0) -> QuadExt:
    """b sqrt2 + e sqrt6 in Q(sqrt2, sqrt3), for rationals b and e; the
    constructions write each coordinate as one of the two."""
    return QuadExt(0, b, 0, e, ctx=CTX_SQRT2_SQRT3)


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


# -- orthogonal projection -------------------------------------------------

def orthogonal_project(points: dict, drop_axis: int) -> dict:
    """Delete one coordinate from every point; exact."""
    return {
        label: Point(tuple(c for i, c in enumerate(p.coords) if i != drop_axis))
        for label, p in points.items()
    }


# -- metrics ---------------------------------------------------------------

SHAPES = ("equilateral", "isosceles", "scalene")


def _distance_matrix(points) -> tuple:
    """(ctx, d, den): the context of a list of Points and their squared
    distances on its int frame, |p_i - p_j|^2 = d[i][j] / den."""
    ctx, ints, scales = integer_frame([p.coords for p in points])
    return ctx, *_sq_distances(ints, ctx, scales)


def _det(m) -> int:
    """The determinant of a square int matrix, by Bareiss's fraction-free
    elimination: every division is exact."""
    m = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for row in m[k + 1:]:
            for j in range(k + 1, len(m)):
                row[j] = (row[j] * m[k][k] - row[k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _cayley_menger_r2(d, den) -> Fraction:
    """The squared circumradius of the simplex with squared distances
    d / den: -det(D) / (2 det(CM)), with CM the matrix D bordered by a row
    and a column of ones and a 0 corner.  det(CM) is zero iff the points are
    affinely dependent, and that raises ValueError."""
    cm = _det([[0] + [1] * len(d)] + [[1] + row for row in d])
    if not cm:
        raise ValueError("affinely dependent points have no unique circumsphere")
    return Fraction(-_det(d), 2 * den * cm)


def squared_distances(placement: dict) -> dict:
    """{(u, v): |p_u - p_v|^2} for every ordered pair of distinct labels of
    the placement."""
    ctx, d, den = _distance_matrix(placement.values())
    labels = list(placement)
    return {(u, v): _reduced(ctx, d[i][j], 0, 0, 0, den)
            for i, u in enumerate(labels) for j, v in enumerate(labels) if i != j}


def face_shapes(faces, placement: dict) -> dict:
    """Each face's shape by its number of distinct exact squared side lengths:
    {face: "equilateral" | "isosceles" | "scalene"}, read from one distance
    matrix of the placement."""
    _, d, _ = _distance_matrix(placement.values())
    at = {v: i for i, v in enumerate(placement)}
    return {f: SHAPES[len({d[at[u]][at[v]] for u, v in combinations(f, 2)}) - 1] for f in faces}


def circumradius_sq(points) -> QuadExt:
    """The squared radius of the sphere through affinely independent points
    centered in their affine hull, such as a triangle's circle in R^3 or a
    4-simplex's sphere; affinely dependent points raise ValueError."""
    ctx, d, den = _distance_matrix(points)
    return QuadExt(_cayley_menger_r2(d, den), ctx=ctx)


def tetra_inradius_sq(tetra) -> QuadExt:
    """Squared inradius of a tetrahedron whose incenter coincides with its
    circumcenter (the regular-up-to-scaling cases used here).  The
    circumcenter projects onto each face plane at the face's circumcenter,
    so its squared distance to that plane is R^2 - R_f^2; the four must
    agree, or ValueError."""
    ctx, d, den = _distance_matrix(tetra)
    r2 = _cayley_menger_r2(d, den)
    heights = {
        r2 - _cayley_menger_r2([[d[i][j] for j in f] for i in f], den)
        for f in combinations(range(4), 3)
    }
    if len(heights) > 1:
        raise ValueError("incenter does not coincide with circumcenter")
    return QuadExt(heights.pop(), ctx=ctx)


def tetra_containment(outer, inner) -> str:
    """Position of the inner point set relative to the closed outer
    tetrahedron in R^3: strict_interior, touching, or outside; decided by
    orient3d on the int frame of all the points."""
    _, ints, _ = integer_frame([p.coords for p in (*outer, *inner)])
    a, b, c, d = ints[:4]
    faces = ((b, c, d, a), (a, c, d, b), (a, b, d, c), (a, b, c, d))
    refs = [orientation_sign(f) for f in faces]
    if 0 in refs:
        raise ValueError("degenerate outer tetrahedron")
    # each inner point's side of each face, relative to the opposite vertex
    sides = [orientation_sign((*f[:3], p)) * r for p in ints[4:] for f, r in zip(faces, refs)]
    if min(sides, default=1) < 0:
        return "outside"
    return "touching" if 0 in sides else "strict_interior"
