"""Seeded input generators for the benchmark workloads.

Standard library only: the harness, the worker and the tests all import this
module, and the worker must not pay for flextri while it builds inputs.  The
same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("report", "sweep", "degenerate")

# Clique pairs whose verdict one operation delivers, counted from the inputs:
# one report certifies 496 + 496 torus pairs, 180 RP^2 pairs and 45 Moebius
# pairs; one torus placement has 496 unique clique pairs; one degenerate case
# is decided three times (R^3, its R^4 lift and an affine image).
PAIRS_PER_OP = {"report": 1217, "sweep": 496, "degenerate": 3}

# -- sweep ------------------------------------------------------------------

# (construction, k) placements of the torus catalog.  16-cell diagrams on
# both sides of the k = 3 threshold and exactly at it, suspensions (k > 2),
# and k with large denominators.  make_references.py records the exact
# certificate of every entry.
SWEEP_GRID = (
    ("sixteen_cell", Fraction(2)),
    ("sixteen_cell", Fraction(5, 2)),
    ("sixteen_cell", Fraction(29, 10)),
    ("sixteen_cell", Fraction(3)),
    ("sixteen_cell", Fraction(31, 10)),
    ("sixteen_cell", Fraction(7, 2)),
    ("sixteen_cell", Fraction(4)),
    ("sixteen_cell", Fraction(6)),
    ("sixteen_cell", Fraction(30001, 10007)),
    ("sixteen_cell", Fraction(12345, 3001)),
    ("suspension", Fraction(5, 2)),
    ("suspension", Fraction(14, 5)),
    ("suspension", Fraction(4)),
    ("suspension", Fraction(7)),
    ("suspension", Fraction(9999, 4001)),
)


def placement_key(construction: str, k: Fraction) -> str:
    return f"{construction}:{k}"


def sweep_order(seed: int) -> list[tuple[str, Fraction]]:
    """The whole grid in a seeded order; the loop cycles through it, so every
    run sees nearly the same mix and only the order depends on the seed."""
    order = list(SWEEP_GRID)
    random.Random(seed).shuffle(order)
    return order


# -- degenerate ---------------------------------------------------------------

DEGENERATE_CATEGORIES = (
    "coplanar",
    "collinear_contact",
    "touching_vertex",
    "touching_edge",
    "shared_vertex",
    "shared_edge_coplanar",
    "shared_edge",
)

# Vertices the two triangles of a category share by design; a draw that
# shares others by chance is drawn again.
_SHARED = {"shared_vertex": 1, "shared_edge_coplanar": 2, "shared_edge": 2}

# The pool is fixed, so make_references.py can record every case's results;
# a seed only orders it, and the loop cycles through it.
DEGENERATE_POOL_SEED = 0
DEGENERATE_POOL_PER_CATEGORY = 40


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def _mul(s, p):
    return tuple(s * a for a in p)


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def normal(tri):
    a, b, c = tri
    return cross(_sub(b, a), _sub(c, a))


def is_proper(tri) -> bool:
    """Three affinely independent points."""
    return normal(tri) != (0, 0, 0)


def _vec(rng, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(3))


def _nonzero_vec(rng, lo=-3, hi=3):
    while True:
        v = _vec(rng, lo, hi)
        if v != (0, 0, 0):
            return v


def _frame(rng):
    """An origin and two independent integer directions spanning a plane."""
    while True:
        o, u, v = _vec(rng), _nonzero_vec(rng, -2, 2), _nonzero_vec(rng, -2, 2)
        if cross(u, v) != (0, 0, 0):
            return o, u, v


def _in_plane(o, u, v, a, b):
    return _add(o, _add(_mul(a, u), _mul(b, v)))


def _off_plane(rng, point, n):
    """point plus a small integer offset with a nonzero normal component."""
    while True:
        w = _nonzero_vec(rng)
        if dot(w, n) != 0:
            return _add(point, w)


def _plane_tri(rng, o, u, v):
    while True:
        tri = tuple(
            _in_plane(o, u, v, rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(3)
        )
        if is_proper(tri):
            return tri


def _make_case(rng, category):
    if category == "coplanar":
        o, u, v = _frame(rng)
        while True:
            t1, t2 = _plane_tri(rng, o, u, v), _plane_tri(rng, o, u, v)
            if not set(t1) & set(t2):
                return t1, t2
    if category == "collinear_contact":
        # an edge of t2 on the line of an edge of t1, the segments overlapping
        # in [p + u, p + 2u]; the triangles are not coplanar
        p, u = _vec(rng), _nonzero_vec(rng, -2, 2)
        while True:
            q = _add(p, _nonzero_vec(rng))
            if cross(_sub(q, p), u) != (0, 0, 0):
                break
        t1 = (p, _add(p, _mul(2, u)), q)
        while True:
            r = _add(p, _nonzero_vec(rng))
            t2 = (_add(p, u), _add(p, _mul(3, u)), r)
            if is_proper(t2) and cross(normal(t1), normal(t2)) != (0, 0, 0):
                return t1, t2
    if category == "touching_vertex":
        # a vertex of t2 is a point of t1 (its centroid or an edge midpoint,
        # kept integral by scaling t1); t2 leaves t1's plane on one side
        base = _plane_tri(rng, *_frame(rng))
        a, b, c = (_mul(6, x) for x in base)
        t1 = (a, b, c)
        x = rng.choice(
            (_mul(2, _add(base[0], _add(base[1], base[2]))), _mul(3, _add(base[0], base[1])))
        )
        n = normal(t1)
        while True:
            w1, w2 = _nonzero_vec(rng), _nonzero_vec(rng)
            t2 = (x, _add(x, w1), _add(x, w2))
            if dot(w1, n) * dot(w2, n) > 0 and is_proper(t2):
                return t1, t2
    if category == "touching_edge":
        # an edge of t2 lies in t1's plane, through the centroid of t1; the
        # third vertex of t2 is off the plane
        o, u, v = _frame(rng)
        base = _plane_tri(rng, o, u, v)
        t1 = tuple(_mul(6, x) for x in base)
        g = _mul(2, _add(base[0], _add(base[1], base[2])))
        d = _add(_mul(rng.randint(-2, 2) or 1, u), _mul(rng.randint(-2, 2), v))
        e1, e2 = _add(g, _mul(rng.randint(1, 12), d)), _add(g, _mul(-rng.randint(0, 12), d))
        t2 = (e1, e2, _off_plane(rng, g, normal(t1)))
        return t1, t2
    if category == "shared_vertex":
        while True:
            s = _vec(rng)
            t1 = (s, _add(s, _nonzero_vec(rng)), _add(s, _nonzero_vec(rng)))
            t2 = (s, _add(s, _nonzero_vec(rng)), _add(s, _nonzero_vec(rng)))
            if is_proper(t1) and is_proper(t2) and len(set(t1) | set(t2)) == 5:
                return t1, t2
    if category == "shared_edge_coplanar":
        o, u, v = _frame(rng)
        while True:
            t1 = _plane_tri(rng, o, u, v)
            r = _in_plane(o, u, v, rng.randint(-3, 3), rng.randint(-3, 3))
            t2 = (t1[0], t1[1], r)
            if is_proper(t2) and r != t1[2]:
                return t1, t2
    if category == "shared_edge":
        while True:
            t1 = _plane_tri(rng, *_frame(rng))
            r = _off_plane(rng, t1[rng.randint(0, 2)], normal(t1))
            t2 = (t1[0], t1[1], r)
            if is_proper(t2):
                return t1, t2
    raise ValueError(f"unknown category {category!r}")


def _affine_map(rng):
    """An exact invertible rational affine map of R^3, as (matrix, shift)."""
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        det = dot(m[0], cross(m[1], m[2]))
        if det != 0:
            shift = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            return m, shift


def apply_affine(m, shift, p):
    return tuple(dot(row, p) + s for row, s in zip(m, shift))


def degenerate_pool() -> list[dict]:
    """The pool of degenerate face pairs, categories interleaved.

    Each case holds its index in the pool (``id``) and three inputs for the
    checker, as pairs of coordinate triples: the R^3 pair with small integer
    coordinates, its R^4 lift (a zero coordinate appended) and its image
    under an exact rational affine map of R^3.
    """
    rng = random.Random(DEGENERATE_POOL_SEED)
    cases = []
    for _ in range(DEGENERATE_POOL_PER_CATEGORY):
        for category in DEGENERATE_CATEGORIES:
            while True:
                t1, t2 = _make_case(rng, category)
                if len(set(t1) & set(t2)) == _SHARED.get(category, 0):
                    break
            m, shift = _affine_map(rng)
            cases.append({
                "id": len(cases),
                "category": category,
                "r3": (t1, t2),
                "r4": tuple(tuple(p + (0,) for p in t) for t in (t1, t2)),
                "affine": tuple(tuple(apply_affine(m, shift, p) for p in t) for t in (t1, t2)),
            })
    return cases


def degenerate_cases(seed: int) -> list[dict]:
    """The whole pool in a seeded order."""
    order = degenerate_pool()
    random.Random(seed).shuffle(order)
    return order
