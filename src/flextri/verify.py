"""Exact self-intersection certification for geometric simplicial complexes.

Admissibility of a face pair means: the intersection of the two closed
triangles equals the convex hull of their shared vertices (empty set, the
shared vertex, or the shared edge).  Every decision reduces to exact signs
of int expressions; degenerate configurations (coplanarity, collinear
contact) are decided by case analysis, never perturbed.

The predicate body, ``_pair_check``, takes two faces of int coordinate
tuples.  Field points reach it through ``geometry.integer_frame``, which
writes a point set whose axes are each a rational multiple of one basis
element of the field as int points times one positive scale per axis, and
refuses any other point set.  That diagonal map keeps every sign the
predicate tests.  One body, ``_check_dim3``, decides the pairs of R^3 and
the pairs of R^4 inside one 3-flat; ``_check_dim4`` decides only the R^4
pairs that span R^4, whose planes meet in at most one point.  A point the
body derives (a trace end, a clipped polygon vertex, the point where two
planes meet) is homogeneous, an int numerator tuple over a positive int
denominator, and points are compared by cross-multiplication.  One
Sutherland-Hodgman clip, ``_clip``, finds what lies inside the first face:
of the second face when the two are coplanar, of the second face's trace
on the first face's plane otherwise.  Witnesses become Fractions only for
a violation, and are built straight into the field through the scales (a
2-D coplanar witness through those of the first face's ``plane_axes``).
``verify_catalog`` frames its placement, refuses two labels on one frame
point, makes one int Point per label, numbers the distinct faces, tests
each for degeneracy once, and runs ``pair_intersection_check`` on one
nondegenerate pair per orbit of the isometry group, copying admissible
verdicts along face-index pairs.  A direct call on QuadExt points frames
the six points of its pair and tests both faces.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations

from .geometry import (
    Point,
    _sub,
    check_placement,
    face_is_degenerate,
    integer_frame,
    isometry_group,
    plane_axes,
)
from .numeric import _reduced, _Value


def _sign(x) -> int:
    """Exact sign of an int or a Fraction."""
    return (x > 0) - (x < 0)


def _dot(u, w):
    return sum(map(operator.mul, u, w))


def _cross(u, w):
    return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])


def orientation_sign(points) -> int:
    """orient3d: the sign of the determinant of the difference vectors of
    four coordinate tuples in R^3."""
    a, b, c, d = points
    if len(a) != 3:
        raise ValueError(f"orient3d takes points of R^3, got R^{len(a)}")
    return _sign(_dot(_cross(_sub(b, a), _sub(c, a)), _sub(d, a)))


def _orient2d(a, b, p):
    """orient2d of three int 2-D points: twice the signed area of abp."""
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


class PairVerdict(_Value, frozen=False):
    __slots__ = ("faces", "shared", "verdict", "kind", "witness")

    def __init__(self, faces: tuple, shared: int, verdict: str, kind: str | None = None,
                 witness: tuple = ()):
        # verdict is "admissible" | "violation"; witness: offending exact points
        self.faces, self.shared, self.verdict = faces, shared, verdict
        self.kind, self.witness = kind, witness

    @property
    def admissible(self) -> bool:
        return self.verdict == "admissible"


class EmbeddingReport(_Value, frozen=False):
    __slots__ = ("identity", "verdict", "violations", "pairs_checked")

    def __init__(self, identity: str, verdict: str, violations: list | None = None,
                 pairs_checked: int = 0):
        # verdict is "embedded" | "not_embedded"
        self.identity, self.verdict, self.pairs_checked = identity, verdict, pairs_checked
        self.violations = [] if violations is None else violations

    @property
    def embedded(self) -> bool:
        return self.verdict == "embedded"


# -- homogeneous points ----------------------------------------------------

def _crossing(p, h, q, k):
    """The homogeneous point where the segment between the homogeneous
    points p and q crosses the zero set of an affine function; h and k, of
    opposite signs, are its values at p and q times their denominators."""
    (x, w), (y, v) = p, q
    den = h * v - k * w
    if den < 0:
        h, k, den = -h, -k, -den
    return tuple([h * b - k * a for a, b in zip(x, y)]), den


def _dedupe(points):
    seen = []
    for x, w in points:
        if all(any(a * v != b * w for a, b in zip(x, y)) for y, v in seen):
            seen.append((x, w))
    return seen


def _equals(p, q) -> bool:
    """The homogeneous point p equals the point q."""
    x, w = p
    return all(a == b * w for a, b in zip(x, q))


def _witness(points) -> tuple:
    """Homogeneous points as tuples of Fractions, for a violation only."""
    return tuple(tuple(Fraction(a, w) for a in x) for x, w in points)


def _in_shared_hull(p, shared_pts) -> bool:
    """The homogeneous point p lies in the hull of the shared vertices."""
    if len(shared_pts) < 2:
        return bool(shared_pts) and _equals(p, shared_pts[0])
    # on the closed segment [a, b]: w (p - a) is a multiple t of u = b - a
    # with 0 <= t <= w |u|^2
    x, w = p
    a, b = shared_pts
    u = _sub(b, a)
    d = tuple(c - e * w for c, e in zip(x, a))
    if plane_axes(u, d) is not None:
        return False
    t = _dot(d, u)
    return t >= 0 and w * _dot(u, u) - t >= 0


# -- clipping --------------------------------------------------------------

def _positively_oriented(tri):
    a, b, c = tri
    s = _orient2d(a, b, c)
    if s == 0:
        raise ValueError("degenerate clip triangle")
    return (a, b, c) if s > 0 else (a, c, b)


def _clip(poly, tri, axes):
    """Sutherland-Hodgman on homogeneous points: the part of the hull of
    ``poly`` inside the closed triangle ``tri`` of int points, every point
    read on the coordinate pair ``axes``, in walking order.  Three points
    are a closed polygon, whose walk can repeat a point; one or two, a
    trace, are walked along their one edge only, so a segment keeps its
    first end first, and its points stay distinct: a crossing lies strictly
    between two points."""
    i, j = axes
    closed = len(poly) > 2
    a, b, c = _positively_oriented([(p[i], p[j]) for p in tri])
    for p, q in ((a, b), (b, c), (c, a)):
        if not poly:
            break
        # w times orient2d(p, q, x / w), whose sign is that of orient2d
        dx, dy = q[0] - p[0], q[1] - p[1]
        c0 = dy * p[0] - dx * p[1]
        hs = [dx * x[j] - dy * x[i] + c0 * w for x, w in poly]
        if min(hs) >= 0:
            continue
        n = len(poly)
        out = []
        for k in range(n):
            if hs[k] >= 0:
                out.append(poly[k])
            m = (k + 1) % n
            if hs[k] * hs[m] < 0 and (closed or m):
                out.append(_crossing(poly[k], hs[k], poly[m], hs[m]))
        poly = out
    return poly


def _point_in_tri_2d(p, tri) -> bool:
    a, b, c = _positively_oriented(tri)
    return (
        _orient2d(a, b, p) >= 0
        and _orient2d(b, c, p) >= 0
        and _orient2d(c, a, p) >= 0
    )


# -- the kind rule ---------------------------------------------------------

def _line_verdict(hit, t1, t2, shared_pts, along_t2_edge: bool):
    """Verdict for the homogeneous points where T2 meets T1 along one line,
    the trace of T2 on T1's plane.  Returns (admissible, witness, kind)."""
    offenders = [p for p in hit if not _in_shared_hull(p, shared_pts)]
    if not offenders:
        return True, (), None
    if len(hit) >= 2:
        kind = "edge_through_face" if along_t2_edge else "interior_crossing"
    else:
        on_vertex = any(_equals(offenders[0], q) for q in t1 + t2)
        kind = "vertex_in_face" if on_vertex else "edge_through_face"
    return False, _witness(offenders), kind


# -- coplanar overlap ------------------------------------------------------

def _coplanar_check(t1, t2, shared_pts, axes):
    """Both triangles in one 2-flat, which projects one-to-one onto the
    coordinate pair ``axes``; decided, and witnessed, in that projection by
    clipping T2 to T1.  Returns (admissible, witness, kind)."""
    i, j = axes
    t1, t2, shared_pts = ([(p[i], p[j]) for p in t] for t in (t1, t2, shared_pts))
    poly = _dedupe(_clip([(q, 1) for q in t2], t1, (0, 1)))
    offenders = [p for p in poly if not _in_shared_hull(p, shared_pts)]
    if not offenders:
        return True, (), None
    t1_in_t2 = all(_point_in_tri_2d(p, t2) for p in t1)
    t2_in_t1 = all(_point_in_tri_2d(p, t1) for p in t2)
    kind = "containment" if (t1_in_t2 or t2_in_t1) else "coplanar_overlap"
    return False, _witness(offenders), kind


# -- dimension 3 -----------------------------------------------------------

def _strictly_one_side(t1, t2) -> bool:
    """True iff every vertex of t1 lies strictly on one side of t2's plane."""
    q0, q1, q2 = t2
    normal = _cross(_sub(q1, q0), _sub(q2, q0))
    s1 = [_sign(_dot(normal, _sub(p, q0))) for p in t1]
    return all(s > 0 for s in s1) or all(s < 0 for s in s1)


def _check_dim3(t1, t2, shared_pts, flat=None):
    """The pair predicate on two faces of R^3, or of R^4 inside one 3-flat;
    returns (admissible, witness, kind).  In R^4, ``flat`` is the two faces
    on three coordinates onto which that 3-flat projects one-to-one, an
    affine bijection that keeps every sign tested here up to one global
    sign: the signs are taken on ``flat``, while trace and clip points and
    ``plane_axes`` use the full coordinates, so witnesses are R^4 points.
    A pair that crosses T1's plane is decided by T2's trace there, one
    vertex of T2 or a segment, clipped to T1 on the ``plane_axes`` of T1."""
    f1, f2 = flat or (t1, t2)
    a, b, c = f1
    u, w = _sub(b, a), _sub(c, a)
    normal = _cross(u, w)
    d2 = [_dot(normal, _sub(q, a)) for q in f2]
    s2 = [_sign(v) for v in d2]
    if all(s > 0 for s in s2) or all(s < 0 for s in s2):
        return True, (), None
    if flat:
        u, w = _sub(t1[1], t1[0]), _sub(t1[2], t1[0])
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
        v = shared_pts[0]
        i, j = [n for n, q in enumerate(t2) if q != v]
        k = t1.index(v)
        for p, p_next in ((f1[k - 1], f1[k]), (f1[k], f1[(k + 1) % 3])):
            if (s2[i] - s2[j]) * orientation_sign((p, p_next, f2[i], f2[j])) > 0:
                return True, (), None
    if not shared_pts and _strictly_one_side(f1, f2):
        return True, (), None
    # T2 crosses the plane of T1: its trace there is one vertex of T2, or
    # the segment between two points each on a vertex or an open edge of
    # T2; T2 is not degenerate, so the two are distinct
    trace = [(q, 1) for q, s in zip(t2, s2) if s == 0]
    for i, j in combinations(range(3), 2):
        if s2[i] * s2[j] < 0:
            trace.append(_crossing((t2[i], 1), d2[i], (t2[j], 1), d2[j]))
    hit = _clip(trace, t1, axes)
    return _line_verdict(hit, t1, t2, shared_pts, s2.count(0) == 2)


# -- dimension 4 -----------------------------------------------------------

def _cross4(a, b, c):
    """The vector n with n . x = det(a, b, c, x) for every x of R^4: a
    normal of span(a, b, c), zero iff a, b and c are linearly dependent."""
    def minor(k):
        a3, b3, c3 = (v[:k] + v[k + 1:] for v in (a, b, c))
        return _dot(_cross(a3, b3), c3)
    return (-minor(0), minor(1), -minor(2), minor(3))


def _det4(a, b, c, d):
    return _dot(_cross4(a, b, c), d)


def _check_dim4(t1, t2, shared_pts):
    """The pair predicate on two faces of R^4.  Their planes meet where
    s u1 + t u2 - a w1 - b w2 = q0 - p0 (u1, u2 T1's edge vectors at p0,
    w1, w2 T2's at q0): in one point, found by Cramer's rule on ints, when
    det(u1, u2, w1, w2) != 0; never, when q0 - p0 leaves the span of the
    four.  Otherwise the six points lie in one 3-flat, which the R^3 body
    decides; axis 3 is dropped first, so the lift (x, y, z, 0) of an R^3
    pair keeps its verdict, kind and witness order."""
    p0, p1, p2 = t1
    q0, q1, q2 = t2
    u1, u2 = _sub(p1, p0), _sub(p2, p0)
    w1, w2, r = _sub(q1, q0), _sub(q2, q0), _sub(q0, p0)
    normal = _cross4(u1, u2, w1)
    det = _dot(normal, w2)
    if det:
        # Cramer's rule on the columns (u1, u2, -w1, -w2), whose determinant
        # is det, with the weights s, t, a, b as numerators over |det|
        cols = (u1, u2, tuple(-c for c in w1), tuple(-c for c in w2))
        sign = _sign(det)
        s, t, a, b = (sign * _det4(*cols[:i], r, *cols[i + 1:]) for i in range(4))
        det *= sign
        if min(s, t, a, b) < 0 or s + t > det or a + b > det:
            return True, (), None
        x = (tuple(det * c + s * e + t * f for c, e, f in zip(p0, u1, u2)), det)
        if _in_shared_hull(x, shared_pts):
            return True, (), None
        on_vertex = any(_equals(x, q) for q in t1 + t2)
        return False, _witness([x]), "vertex_in_face" if on_vertex else "interior_crossing"
    if not any(normal):  # w1 lies in span(u1, u2)
        normal = _cross4(u1, u2, w2)
    if any(normal):
        if _dot(normal, r):  # r leaves span(u1, u2, w1, w2) = normal^perp
            return True, (), None
    else:  # parallel planes: in the 3-flat p0 + span(u1, u2, r), or a 2-flat
        normal = _cross4(u1, u2, r)
    if any(normal):
        drop = next(k for k in (3, 2, 1, 0) if normal[k])
    else:
        drop = next(k for k in (3, 2, 1, 0) if k not in plane_axes(u1, u2))
    flat = tuple(tuple(p[:drop] + p[drop + 1:] for p in t) for t in (t1, t2))
    return _check_dim3(t1, t2, shared_pts, flat)


# -- public predicates -----------------------------------------------------

def _pair_check(t1, t2, shared) -> PairVerdict:
    """The pair predicate on two nondegenerate faces of int coordinate
    tuples."""
    if shared is None:
        shared = [(i, j) for i in range(3) for j in range(3) if t1[i] == t2[j]]
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
        vecs = [_sub(p, base) for p in (t1[i1], t1[3 - i0 - i1], t2[3 - j0 - j1])]
        for cols in combinations(range(len(base)), 3):
            u, v, w = ([x[c] for c in cols] for x in vecs)
            if _dot(_cross(u, v), w):
                return PairVerdict((t1, t2), 2, "admissible")

    dim = len(t1[0])
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
    omitted it is recovered from coordinate equality.  QuadExt points are
    decided on the ``integer_frame`` of the six points, after both faces
    are tested for degeneracy, and the witness mapped back; a pair with no
    frame raises ValueError, and a pair of two contexts
    ContextMismatchError.  Int points are a frame whose faces the caller
    has found nondegenerate, as ``verify_catalog`` passes them, and are
    decided as given.
    """
    t1, t2 = tuple(t1), tuple(t2)
    if type(t1[0].coords[0]) is int:
        return _pair_check(tuple(p.coords for p in t1), tuple(p.coords for p in t2), shared)
    ints, scales = integer_frame(dict(enumerate(t1 + t2)))
    q = tuple(ints.values())
    q1, q2 = q[:3], q[3:]
    if face_is_degenerate(*q1) or face_is_degenerate(*q2):
        return PairVerdict((t1, t2), 0, "violation", "degenerate_face")
    return _map_back(_pair_check(q1, q2, shared), scales, (t1, t2))


def _map_back(verdict: PairVerdict, scales, faces) -> PairVerdict:
    """A verdict on the int frame as a verdict on ``faces``, its witness
    mapped back through the per-axis ``scales``: a 2-D coplanar witness lies
    in the ``plane_axes`` projection of the first face, so it takes the
    scales of those two axes.  A coordinate n / m on an axis of scale
    (a, b, c, e) / d is built in the field as (a n, b n, c n, e n) / (d m)."""
    witness = verdict.witness
    if witness:
        t1 = verdict.faces[0]
        axes = range(len(scales))
        if len(witness[0]) != len(scales):
            axes = plane_axes(_sub(t1[1], t1[0]), _sub(t1[2], t1[0]))
        witness = tuple(
            Point(tuple(
                _reduced(s.ctx, *(x * q.numerator for x in s._n[:4]), s._n[4] * q.denominator)
                for s, q in zip(map(scales.__getitem__, axes), p)
            ))
            for p in witness
        )
    return PairVerdict(faces, verdict.shared, verdict.verdict, verdict.kind, witness)


def verify_catalog(placement: dict, catalog, ids=None) -> list[EmbeddingReport]:
    """Certify the triangulations ``ids`` of a catalog (default: all) on one
    placement, one report per id in the order given.

    All triangulations draw their faces from the catalog's 3-cliques, so the
    verdicts come from one table for the placement.  Its faces are numbered
    in sorted order, and it is keyed by index pairs (i, j) with i < j.  A
    label permutation that keeps the placement's exact squared distances
    (``geometry.isometry_group``) is a congruence, so it maps an admissible
    pair to an admissible pair: the predicate runs on one pair of each
    orbit of the group, and an admissible verdict is written to every image
    pair.  Violations are never copied; every violating pair is checked on
    its own points, so its kind and witness are its own.  Each face is
    tested for degeneracy once, and that test serves both the report's
    degenerate-face violations and every pair the face is in: a pair with
    a degenerate face is decided here, and every other pair is handed to
    ``pair_intersection_check`` as a triple of the one int Point per label.
    All of it is decided on the placement's ``geometry.integer_frame``,
    where labels on equal points are refused, so the predicate finds the
    shared vertices of a pair by coordinate equality, and each witness is
    built in the field; a placement with no frame raises ValueError, one of
    two contexts ContextMismatchError.
    """
    labels = catalog.task.graph.vertices
    placement, scales = integer_frame(placement)
    check_placement(labels, placement)
    n = len(catalog.triangulations)
    ids = list(catalog.ids if ids is None else ids)
    for i in ids:
        if not 0 <= i < n:
            raise ValueError(f"triangulation id {i} out of range 0..{n - 1}")
    group = isometry_group(labels, placement, scales)
    tris = [catalog.triangulations[i] for i in ids]
    # a face is keyed by its label set, one bit per label, and indexed in
    # sorted order; an image face outside the selection gets a fresh index
    bit = {v: 1 << k for k, v in enumerate(labels)}
    faces = sorted({f for t in tris for f in t.faces})
    index = {bit[u] | bit[v] | bit[w]: k for k, (u, v, w) in enumerate(faces)}
    moves = [{v: bit[w] for v, w in g.items()} for g in group]
    images = [
        [index.setdefault(m[u] | m[v] | m[w], len(index)) for m in moves] for u, v, w in faces
    ]
    points = {v: Point(placement[v]) for v in labels}
    corners = [tuple(map(points.__getitem__, f)) for f in faces]
    degenerate = [face_is_degenerate(*map(placement.__getitem__, f)) for f in faces]
    table: dict = {}  # (a, b) with a < b: the pair's violation, or None
    reports = []
    for i, tri in zip(ids, tris):
        face_ids = [index[bit[u] | bit[v] | bit[w]] for u, v, w in tri.faces]
        violations = [
            PairVerdict((faces[a], faces[a]), 3, "violation", "degenerate_face")
            for a in face_ids if degenerate[a]
        ]
        pairs = list(combinations(face_ids, 2))
        for a, b in pairs:
            if (a, b) not in table:
                fa, fb = faces[a], faces[b]
                if degenerate[a] or degenerate[b]:
                    v = PairVerdict((fa, fb), 0, "violation", "degenerate_face")
                else:
                    v = pair_intersection_check(corners[a], corners[b])
                if v.admissible:
                    for ga, gb in zip(images[a], images[b]):
                        table.setdefault((ga, gb) if ga < gb else (gb, ga), None)
                else:
                    table[a, b] = _map_back(v, scales, (fa, fb))
            if table[a, b]:
                violations.append(table[a, b])
        verdict = "embedded" if not violations else "not_embedded"
        reports.append(EmbeddingReport(str(i), verdict, violations, len(pairs)))
    return reports
