"""Exact self-intersection certification for geometric simplicial complexes.

Admissibility of a face pair means: the intersection of the two closed
triangles equals the convex hull of their shared vertices (empty set, the
shared vertex, or the shared edge).  Every decision reduces to exact signs
of int and Fraction expressions; degenerate configurations (coplanarity,
collinear contact) are decided by case analysis, never perturbed.

The predicate body, ``_pair_check``, sees only ints and Fractions.  Field
points reach it through ``geometry.integer_frame``, which writes a point
set whose coordinate axes are each a rational multiple of one basis element
of the field as int points times one positive scale per axis, and refuses
any other point set.  That diagonal map keeps every sign the predicate
tests, so verdicts and kinds are decided on the int points, and Fractions
appear only where a trace or witness point is built.  Each witness is
mapped back through the scales, coordinate by coordinate; a 2-D coplanar
witness, which lies in the ``plane_axes`` projection of the pair's first
face, through the scales of those two axes.  So witnesses are exact points
of the field.  ``verify_catalog`` frames its placement once, and
``pair_intersection_check`` frames the six points of a QuadExt pair.
``verify_catalog`` runs the predicate on one clique pair per orbit of the
placement's isometry group and copies each admissible verdict to the rest
of the orbit; violating pairs are all decided on their own points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .geometry import (
    Point,
    check_placement,
    face_is_degenerate,
    integer_frame,
    isometry_group,
    plane_axes,
)
from .numeric import QuadExt, solve_linear


def _sign(x) -> int:
    """Exact sign of an int or a Fraction."""
    return (x > 0) - (x < 0)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    sign = 1
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * _det(minor)
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
        sign = -sign
    return acc


def orientation_sign(points) -> int:
    """Sign of the determinant of difference vectors of d+1 points in R^d."""
    pts = list(points)
    d = pts[0].dim
    if len(pts) != d + 1:
        raise ValueError(f"need {d + 1} points in R^{d}, got {len(pts)}")
    rows = [(p - pts[0]).coords for p in pts[1:]]
    return _sign(_det(rows))


def _orient2d(a: Point, b: Point, c: Point):
    (ax, ay), (bx, by), (cx, cy) = a.coords, b.coords, c.coords
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


@dataclass
class PairVerdict:
    faces: tuple
    shared: int
    verdict: str                  # "admissible" | "violation"
    kind: str | None = None       # violation kind
    witness: tuple = ()           # offending exact points, when available

    @property
    def admissible(self) -> bool:
        return self.verdict == "admissible"


@dataclass
class EmbeddingReport:
    identity: str
    verdict: str                  # "embedded" | "not_embedded"
    violations: list = field(default_factory=list)
    pairs_checked: int = 0

    @property
    def embedded(self) -> bool:
        return self.verdict == "embedded"


# -- 2D machinery ----------------------------------------------------------

def _positively_oriented(tri):
    a, b, c = tri
    s = _sign(_orient2d(a, b, c))
    if s == 0:
        raise ValueError("degenerate clip triangle")
    return (a, b, c) if s > 0 else (a, c, b)


def _clip_polygon(poly, a: Point, b: Point):
    """Sutherland-Hodgman step: keep the closed half-plane left of (a, b)."""
    if not poly:
        return []
    out = []
    hs = [_orient2d(a, b, p) for p in poly]
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        hi, hj = hs[i], hs[j]
        si, sj = _sign(hi), _sign(hj)
        if si >= 0:
            out.append(poly[i])
        if si * sj < 0:
            t = Fraction(hi, hi - hj)
            out.append(poly[i] + (poly[j] - poly[i]).scale(t))
    return out


def _dedupe(points):
    seen = []
    for p in points:
        if all(p.coords != q.coords for q in seen):
            seen.append(p)
    return seen


def _point_in_tri_2d(p: Point, tri) -> bool:
    a, b, c = _positively_oriented(tri)
    return (
        _sign(_orient2d(a, b, p)) >= 0
        and _sign(_orient2d(b, c, p)) >= 0
        and _sign(_orient2d(c, a, p)) >= 0
    )


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """p on the closed segment [a, b] (any dimension), exactly."""
    u = b - a
    w = p - a
    if plane_axes(u, w) is not None:
        return False
    t_num = w.dot(u)
    t_den = u.norm_sq()
    return _sign(t_num) >= 0 and _sign(t_den - t_num) >= 0


def _in_shared_hull(p: Point, shared_pts) -> bool:
    if len(shared_pts) == 0:
        return False
    if len(shared_pts) == 1:
        return p.coords == shared_pts[0].coords
    return _on_segment(p, shared_pts[0], shared_pts[1])


# -- line clipping and the kind rule --------------------------------------

def _interval(constraints, lo=None, hi=None):
    """The closed interval of lam with coef * lam + const >= 0 for every
    (coef, const) in ``constraints``, within [lo, hi] (None: unbounded);
    returns (lo, hi), or None when it is empty."""
    for coef, const in constraints:
        s = _sign(coef)
        if s == 0:
            if _sign(const) < 0:
                return None
            continue
        bound = Fraction(-const, coef)
        if s > 0:
            if lo is None or _sign(bound - lo) > 0:
                lo = bound
        elif hi is None or _sign(bound - hi) < 0:
            hi = bound
    if lo is None or hi is None:
        raise ValueError("unbounded parameter interval from degenerate input")
    if _sign(hi - lo) < 0:
        return None
    return lo, hi


def _line_hit(start: Point, direction: Point, span):
    """The points start + lam * direction at the ends of ``span``, low end
    first; one point when the span is a single value, none when empty."""
    if span is None:
        return []
    lo, hi = span
    pts = [start + direction.scale(lo)]
    if _sign(hi - lo) > 0:
        pts.append(start + direction.scale(hi))
    return pts


def _line_verdict(hit, t1, t2, shared_pts, along_t2_edge: bool):
    """Verdict for the points where T2 meets T1 along one line: the trace of
    T2 on T1's plane (R^3) or the line where the two planes meet (R^4).
    Returns (admissible, witness, kind)."""
    offenders = [p for p in hit if not _in_shared_hull(p, shared_pts)]
    if not offenders:
        return True, (), None
    if len(hit) >= 2:
        kind = "edge_through_face" if along_t2_edge else "interior_crossing"
    else:
        on_vertex = any(offenders[0].coords == q.coords for q in t1 + t2)
        kind = "vertex_in_face" if on_vertex else "edge_through_face"
    return False, tuple(offenders), kind


# -- coplanar overlap ------------------------------------------------------

def _project(p: Point, axes) -> Point:
    i, j = axes
    return Point((p.coords[i], p.coords[j]))


def _coplanar_check(t1, t2, shared_pts, axes):
    """Both triangles in one 2-flat, which projects one-to-one onto the
    coordinate pair ``axes``; decided, and witnessed, in that projection.
    Returns (admissible, witness, kind)."""
    t1, t2 = (tuple(_project(p, axes) for p in t) for t in (t1, t2))
    shared_pts = [_project(p, axes) for p in shared_pts]
    clip = _positively_oriented(t1)
    poly = list(t2)
    for i in range(3):
        poly = _clip_polygon(poly, clip[i], clip[(i + 1) % 3])
    poly = _dedupe(poly)
    offenders = [p for p in poly if not _in_shared_hull(p, shared_pts)]
    if not offenders:
        return True, (), None
    t1_in_t2 = all(_point_in_tri_2d(p, t2) for p in t1)
    t2_in_t1 = all(_point_in_tri_2d(p, t1) for p in t2)
    kind = "containment" if (t1_in_t2 or t2_in_t1) else "coplanar_overlap"
    return False, tuple(offenders), kind


# -- dimension 3 -----------------------------------------------------------

def _edge_constraints(tri, x: Point, y: Point):
    """For each edge (p, q) of a positively oriented 2-D triangle, the
    (coef, const) of orient2d(p, q, x + lam (y - x)) >= 0, lazily."""
    a, b, c = tri
    for p, q in ((a, b), (b, c), (c, a)):
        hx = _orient2d(p, q, x)
        yield _orient2d(p, q, y) - hx, hx


def _strictly_one_side(t1, t2) -> bool:
    """True iff every vertex of t1 lies strictly on one side of t2's plane."""
    q0, q1, q2 = t2
    normal = (q1 - q0).cross(q2 - q0)
    s1 = [_sign(normal.dot(p - q0)) for p in t1]
    return all(s > 0 for s in s1) or all(s < 0 for s in s1)


def _check_dim3(t1, t2, shared_pts):
    a, b, c = t1
    u, w = b - a, c - a
    normal = u.cross(w)
    d2 = [normal.dot(q - a) for q in t2]
    s2 = [_sign(v) for v in d2]
    if all(s > 0 for s in s2) or all(s < 0 for s in s2):
        return True, (), None
    axes = plane_axes(u, w)
    if all(s == 0 for s in s2):
        return _coplanar_check(t1, t2, shared_pts, axes)
    if len(shared_pts) == 1:
        # T2 meets T1's plane in the shared vertex v and in the point x where
        # the line through its other vertices q, r meets that plane, if x is
        # on the segment qr: T2 meets T1 only in v when q and r lie strictly
        # on one side, or when x lies strictly outside one of T1's edge
        # lines through v; for the edge (p, p') in T1's orientation that is
        # sign(d_q - d_r) * orient3d(p, p', q, r) > 0
        if abs(sum(s2)) == 2:
            return True, (), None
        v = shared_pts[0].coords
        i, j = [n for n, q in enumerate(t2) if q.coords != v]
        k = next(n for n, p in enumerate(t1) if p.coords == v)
        for p, p_next in ((t1[k - 1], t1[k]), (t1[k], t1[(k + 1) % 3])):
            if (s2[i] - s2[j]) * orientation_sign((p, p_next, t2[i], t2[j])) > 0:
                return True, (), None
    if not shared_pts and _strictly_one_side(t1, t2):
        return True, (), None
    # T2 crosses the plane of T1: its trace there is a point or segment
    trace = [q for q, s in zip(t2, s2) if s == 0]
    for i, j in combinations(range(3), 2):
        if s2[i] * s2[j] < 0:
            t = Fraction(d2[i], d2[i] - d2[j])
            trace.append(t2[i] + (t2[j] - t2[i]).scale(t))
    trace = _dedupe(trace)
    tri = tuple(_project(p, axes) for p in t1)
    if len(trace) == 1:
        hit = trace if _point_in_tri_2d(_project(trace[0], axes), tri) else []
    else:
        x, y = trace
        edges = _edge_constraints(
            _positively_oriented(tri), _project(x, axes), _project(y, axes)
        )
        span = _interval(edges, 0, 1)
        hit = _line_hit(x, y - x, span)
    return _line_verdict(hit, t1, t2, shared_pts, s2.count(0) == 2)


# -- dimension 4 (and general flats) ---------------------------------------

def _barycentric_ok(s, t) -> bool:
    return _sign(s) >= 0 and _sign(t) >= 0 and _sign(1 - s - t) >= 0


def _barycentric_constraints(part, null, i):
    """(coef, const) of s >= 0, t >= 0 and 1 - s - t >= 0 on the line
    (s, t) = part[i:i+2] + lam * null[i:i+2]."""
    return [
        (null[i], part[i]),
        (null[i + 1], part[i + 1]),
        (-null[i] - null[i + 1], 1 - part[i] - part[i + 1]),
    ]


def _check_dim4(t1, t2, shared_pts):
    p0, p1, p2 = t1
    q0, q1, q2 = t2
    u1, u2 = p1 - p0, p2 - p0
    w1, w2 = q1 - q0, q2 - q0
    n = p0.dim
    matrix = [
        [u1.coords[i], u2.coords[i], -w1.coords[i], -w2.coords[i]]
        for i in range(n)
    ]
    rhs = [(q0 - p0).coords[i] for i in range(n)]
    sol = solve_linear(matrix, rhs)

    if sol.kind == "inconsistent":
        return True, (), None

    if sol.kind == "unique":
        s, t, a, b = sol.particular
        if _barycentric_ok(s, t) and _barycentric_ok(a, b):
            x = p0 + u1.scale(s) + u2.scale(t)
            if _in_shared_hull(x, shared_pts):
                return True, (), None
            on_vertex = any(x.coords == q.coords for q in t1 + t2)
            kind = "vertex_in_face" if on_vertex else "interior_crossing"
            return False, (x,), kind
        return True, (), None

    if len(sol.nullspace) == 2:
        # rank n-2: both triangles lie in one 2-flat
        return _coplanar_check(t1, t2, shared_pts, plane_axes(u1, u2))

    # the two 2-flats meet in the line (s, t, a, b) = part + lam * null,
    # clipped by both triangles' barycentric constraints
    part, (null,) = sol.particular, sol.nullspace
    t2_constraints = _barycentric_constraints(part, null, 2)
    span = _interval(_barycentric_constraints(part, null, 0) + t2_constraints)
    hit = _line_hit(
        p0 + u1.scale(part[0]) + u2.scale(part[1]),
        u1.scale(null[0]) + u2.scale(null[1]),
        span,
    )
    # the line runs along an edge of T2 iff one of T2's barycentric
    # coordinates vanishes on the whole line
    along_t2_edge = any(not c and not k for c, k in t2_constraints)
    return _line_verdict(hit, t1, t2, shared_pts, along_t2_edge)


# -- public predicates -----------------------------------------------------

def _pair_check(t1, t2, shared=None) -> PairVerdict:
    """The pair predicate on int or Fraction coordinates."""
    if face_is_degenerate(*t1) or face_is_degenerate(*t2):
        return PairVerdict((t1, t2), 0, "violation", "degenerate_face")
    if shared is None:
        shared = [
            (i, j)
            for i in range(3)
            for j in range(3)
            if t1[i].coords == t2[j].coords
        ]
    shared_pts = [t1[i] for i, _ in shared]
    n_shared = len(shared_pts)

    if n_shared == 3:
        return PairVerdict((t1, t2), 3, "violation", "coplanar_overlap", t1)

    if n_shared == 2:
        # non-coplanar triangles on a common edge meet exactly in that edge;
        # the four points are coplanar iff every 3x3 minor of their three
        # difference vectors vanishes (one minor in R^3, four in R^4)
        (i0, j0), (i1, j1) = shared
        base = t1[i0]
        vecs = [t1[i1] - base, t1[3 - i0 - i1] - base, t2[3 - j0 - j1] - base]
        for cols in combinations(range(base.dim), 3):
            if _det([[v.coords[c] for c in cols] for v in vecs]):
                return PairVerdict((t1, t2), 2, "admissible")

    dim = t1[0].dim
    if dim == 3:
        ok, witness, kind = _check_dim3(t1, t2, shared_pts)
    elif dim == 4:
        ok, witness, kind = _check_dim4(t1, t2, shared_pts)
    else:
        raise ValueError(f"unsupported dimension {dim}")
    if ok:
        return PairVerdict((t1, t2), n_shared, "admissible")
    return PairVerdict((t1, t2), n_shared, "violation", kind, witness)


def pair_intersection_check(t1, t2, shared=None) -> PairVerdict:
    """Exact verdict for one pair of triangles (tuples of Points in R^3/R^4).

    ``shared`` is a list of index pairs (i, j) with t1[i] == t2[j]; when
    omitted it is recovered from coordinate equality.  Int or Fraction
    points are decided as given.  QuadExt points are decided on the
    ``integer_frame`` of the six points, and the witness mapped back; a pair
    with no frame raises ValueError, and a pair of two contexts
    ContextMismatchError.
    """
    t1, t2 = tuple(t1), tuple(t2)
    if type(t1[0].coords[0]) is not QuadExt:
        return _pair_check(t1, t2, shared)
    ints, scales = integer_frame(dict(enumerate(t1 + t2)))
    q = tuple(ints.values())
    v = _map_back(_pair_check(q[:3], q[3:], shared), scales)
    return PairVerdict((t1, t2), v.shared, v.verdict, v.kind, v.witness)


def _map_back(verdict: PairVerdict, scales) -> PairVerdict:
    """A verdict on the int frame with its witness mapped back through the
    per-axis ``scales``: a 2-D coplanar witness lies in the ``plane_axes``
    projection of the first face, so it takes the scales of those two axes."""
    if not verdict.witness:
        return verdict
    t1 = verdict.faces[0]
    axes = range(len(scales))
    if verdict.witness[0].dim != len(scales):
        axes = plane_axes(t1[1] - t1[0], t1[2] - t1[0])
    witness = tuple(
        Point(tuple(scales[i] * c for i, c in zip(axes, p.coords)))
        for p in verdict.witness
    )
    return PairVerdict(verdict.faces, verdict.shared, verdict.verdict, verdict.kind, witness)


def verify_catalog(placement: dict, catalog, ids=None) -> list[EmbeddingReport]:
    """Certify the triangulations ``ids`` of a catalog (default: all) on one
    placement, one report per id in the order given.

    All triangulations draw their faces from the catalog's 3-cliques, so the
    verdicts come from one table for the placement, keyed by clique pairs in
    canonical order (faces are sorted, so the smaller face comes first).  A
    label permutation that keeps the placement's exact squared distances
    (``geometry.isometry_group``) is a congruence, so it maps an admissible
    pair to an admissible pair: the predicate runs on one pair of each
    orbit of the group, and an admissible verdict is written to every image
    pair.  Violations are never copied; every violating pair is checked on
    its own points, so its kind and witness are its own.  Each face is
    tested for degeneracy once for the report's degenerate-face violations,
    and again by ``pair_intersection_check`` on every pair it checks.  The
    group and the table are decided on the placement's
    ``geometry.integer_frame``, and each witness is mapped back to the
    placement's field; a placement with no frame raises ValueError, and one
    of two contexts ContextMismatchError.
    """
    labels = catalog.task.graph.vertices
    check_placement(labels, placement)
    n = len(catalog.triangulations)
    ids = list(catalog.ids if ids is None else ids)
    for i in ids:
        if not 0 <= i < n:
            raise ValueError(f"triangulation id {i} out of range 0..{n - 1}")
    placement, scales = integer_frame(placement)
    group = isometry_group(labels, placement, scales)
    tris = [catalog.triangulations[i] for i in ids]
    points = {f: tuple(placement[v] for v in f) for t in tris for f in t.faces}
    degenerate = {f: face_is_degenerate(*pts) for f, pts in points.items()}
    images = {f: [tuple(sorted(g[v] for v in f)) for g in group] for f in points}
    table: dict = {}
    reports = []
    for i, tri in zip(ids, tris):
        violations = [
            PairVerdict((f, f), 3, "violation", "degenerate_face")
            for f in tri.faces
            if degenerate[f]
        ]
        pairs = list(combinations(tri.faces, 2))
        for a, b in pairs:
            if (a, b) not in table:
                shared = [
                    (j, k) for j, u in enumerate(a) for k, w in enumerate(b) if u == w
                ]
                v = pair_intersection_check(points[a], points[b], shared)
                if v.admissible:
                    for ga, gb in zip(images[a], images[b]):
                        table.setdefault((ga, gb) if ga < gb else (gb, ga), v)
                else:
                    table[a, b] = _map_back(v, scales)
            v = table[a, b]
            if not v.admissible:
                violations.append(
                    PairVerdict((a, b), v.shared, v.verdict, v.kind, v.witness)
                )
        verdict = "embedded" if not violations else "not_embedded"
        reports.append(EmbeddingReport(str(i), verdict, violations, len(pairs)))
    return reports
