"""Exact self-intersection certification for geometric simplicial complexes.

Admissibility of a face pair means: the intersection of the two closed
triangles equals the convex hull of their shared vertices (empty set, the
shared vertex, or the shared edge).  Every decision reduces to exact signs
of int expressions; degenerate configurations (coplanarity, collinear
contact) are decided by case analysis, never perturbed.

The predicate body, ``_pair_check``, takes two faces of int coordinate
tuples.  Field points reach it through ``geometry.integer_frame``, which
writes a point set whose axes are each a rational multiple of one basis
element of the field as int points times one positive scale per axis, each
scale as its raw ints, and refuses any other point set.  That diagonal map
keeps every sign the predicate tests.  One body, ``_check_dim3``, decides
the pairs of R^3 and those of R^4 and up whose points span a flat of
dimension 3 at most, on three coordinates onto which it projects
one-to-one; ``_check_rank`` dispatches a pair of R^4 and up on that affine
rank.  The R^3 body takes its plane and orient3d signs on unpacked ints
(``_plane``, ``geometry._orient3d``); the tuple helpers serve ``_cramer``,
T1's edges on a flat and ``face_is_degenerate``.  A point the body derives
(a trace end, a clipped polygon vertex, the point where two planes meet)
is homogeneous, an int numerator tuple over a positive int denominator,
and points are compared by cross-multiplication.  What lies inside the
first face is found on its plane, and every test made there reads the
one form ``_edge_lines`` gives of a face's three edge lines on a
coordinate pair: a Sutherland-Hodgman clip, ``_clip``, cuts the second
face down to the first when the two are coplanar, and the same lines tell
containment from overlap; a pair on one vertex that crosses the first
face's plane meets the first face in a segment from that vertex, whose
far end one side test against the line of the opposite edge gives
(``_wedge_end``); and the trace of a pair with no shared vertex, one
point or a segment, is clipped by replacing an end at each edge line
(``_clip_segment``).  A violation's witness leaves the body as those
homogeneous points, and each coordinate is built straight into the field
in one step, through the raw scale of its axis (a 2-D coplanar witness
through those of the first face's ``plane_axes``).  ``verify_catalog``
frames its placement, refuses two labels on one frame point, makes one
int Point per label, tests each 3-clique of the catalog's graph for
degeneracy once, and decides every clique pair once for the placement: it
runs ``pair_intersection_check``, given the pair's shared vertices, on one
nondegenerate pair of each admissible orbit of the isometry group and on
every violating pair, and each triangulation's report, its list of
violations, keeps the violating pairs among its faces.  The cliques and
the orbit of each pair depend only on the graph and on which squared
distances are equal, and are computed once per (graph, pattern)
(``_table_plan``).  A direct call without the shared vertices tests both
faces for degeneracy; on QuadExt points it frames the six points of its
pair in one pass and maps a witness back through the raw scales of that
frame.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .geometry import (
    Point,
    _det,
    _distance_pattern,
    _isometries,
    _one_dimension,
    _orient3d,
    _sign,
    _sub,
    check_placement,
    face_is_degenerate,
    integer_frame,
    plane_axes,
)
from .numeric import _reduced, _Value
from .surfaces import enumerate_cliques3


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
    __slots__ = ("violations",)

    def __init__(self, violations: list):
        self.violations = violations

    @property
    def embedded(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "embedded" if self.embedded else "not_embedded"


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


def _in_shared_hull(p, shared_pts) -> bool:
    """The homogeneous 2-D point p, a point of T1, lies in the hull of the
    shared vertices: on the line through the shared edge [a, b], which
    meets T1 exactly in that edge."""
    if len(shared_pts) < 2:
        return bool(shared_pts) and _equals(p, shared_pts[0])
    (x, y), w = p
    (ax, ay), (bx, by) = shared_pts
    return (bx - ax) * (y - ay * w) == (by - ay) * (x - ax * w)


# -- clipping --------------------------------------------------------------

def _edge_lines(tri, axes):
    """The edge lines of the nondegenerate triangle ``tri`` of int points,
    read on the coordinate pair ``axes`` (i, j), on which its plane
    projects one-to-one: (a, b), (b, c), (c, a), its last two points
    swapped if it turns clockwise, each as (dx, dy, c0) with
    h(x, w) = dx x[j] - dy x[i] + c0 w, which is w times orient2d of the
    edge's two ends and x / w: so h >= 0 on the closed triangle."""
    i, j = axes
    a, b, c = tri
    ax, ay, bx, by, cx, cy = a[i], a[j], b[i], b[j], c[i], c[j]
    if (bx - ax) * (cy - ay) < (by - ay) * (cx - ax):
        bx, by, cx, cy = cx, cy, bx, by
    return ((bx - ax, by - ay, (by - ay) * ax - (bx - ax) * ay),
            (cx - bx, cy - by, (cy - by) * bx - (cx - bx) * by),
            (ax - cx, ay - cy, (ay - cy) * cx - (ax - cx) * cy))


def _clip(poly, tri, axes):
    """Sutherland-Hodgman on homogeneous points: the part of the convex
    polygon ``poly``, the second face of a coplanar pair, inside the closed
    triangle ``tri`` of int points, read on the coordinate pair ``axes``
    (``_edge_lines``), in walking order.  The walk is closed, so it can
    repeat a point."""
    i, j = axes
    for dx, dy, c0 in _edge_lines(tri, axes):
        if not poly:
            break
        hs = [dx * x[j] - dy * x[i] + c0 * w for x, w in poly]
        if min(hs) >= 0:
            continue
        n = len(poly)
        out = []
        for k in range(n):
            if hs[k] >= 0:
                out.append(poly[k])
            m = (k + 1) % n
            if hs[k] * hs[m] < 0:
                out.append(_crossing(poly[k], hs[k], poly[m], hs[m]))
        poly = out
    return poly


def _clip_segment(trace, tri, axes):
    """The part of the trace, one or two homogeneous points, inside the
    closed triangle ``tri`` of int points, read on the coordinate pair
    ``axes`` (``_edge_lines``): an empty list, one point, or two distinct
    points in the trace's order.  Each
    edge line with one end strictly outside replaces that end by the
    crossing, which lies strictly between the two ends, or by the other end
    itself when that one lies on the line; a one-point trace, or a segment
    cut down to one point, is one object at both ends."""
    i, j = axes
    p, q = trace[0], trace[-1]
    for dx, dy, c0 in _edge_lines(tri, axes):
        hp = dx * p[0][j] - dy * p[0][i] + c0 * p[1]
        hq = dx * q[0][j] - dy * q[0][i] + c0 * q[1]
        if hp < 0:
            if hq < 0:
                return []
            p = q if hq == 0 else _crossing(p, hp, q, hq)
        elif hq < 0:
            q = p if hp == 0 else _crossing(p, hp, q, hq)
    return [p] if p is q else [p, q]


def _wedge_end(t1, k, x, axes):
    """The far end y of T1's part of the segment [v, x], for v = t1[k] and
    the homogeneous point x != v in T1's closed wedge at v, read on the
    coordinate pair ``axes``: x itself on v's side of the opposite edge
    line or on it, else the point where [v, x] crosses that edge."""
    i, j = axes
    v = t1[k]
    # line 1 of (v, b, c) is the edge opposite v, positive at v
    dx, dy, c0 = _edge_lines((v, t1[k - 2], t1[k - 1]), axes)[1]
    h_x = dx * x[0][j] - dy * x[0][i] + c0 * x[1]
    if h_x >= 0:
        return x
    return _crossing((v, 1), dx * v[j] - dy * v[i] + c0, x, h_x)


# -- the kind rule ---------------------------------------------------------

def _line_verdict(hit, t1, t2, along_t2_edge: bool):
    """Verdict for the homogeneous points where two faces with no shared
    vertex meet along one line, the trace of T2 on T1's plane.  Returns
    (admissible, witness, kind)."""
    if not hit:
        return True, (), None
    if len(hit) == 2:
        kind = "edge_through_face" if along_t2_edge else "interior_crossing"
    else:
        on_vertex = any(_equals(hit[0], q) for q in t1 + t2)
        kind = "vertex_in_face" if on_vertex else "edge_through_face"
    return False, tuple(hit), kind


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
    contained = any(
        all(dx * y - dy * x + c0 >= 0 for dx, dy, c0 in _edge_lines(s, (0, 1)) for x, y in t)
        for s, t in ((t2, t1), (t1, t2))
    )
    kind = "containment" if contained else "coplanar_overlap"
    return False, tuple(offenders), kind


# -- dimension 3 -----------------------------------------------------------

def _plane(face, points):
    """The edge vectors u = b - a, w = c - a of the face (a, b, c) of R^3, and
    n . q - n . a at each of the three ``points`` q, for n = u x w."""
    (x, y, z), (bx, by, bz), (cx, cy, cz) = face
    u = ux, uy, uz = bx - x, by - y, bz - z
    w = wx, wy, wz = cx - x, cy - y, cz - z
    nx, ny, nz = uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx
    offset = nx * x + ny * y + nz * z
    return u, w, [nx * qx + ny * qy + nz * qz - offset for qx, qy, qz in points]


def _strictly_one_side(t1, t2) -> bool:
    """True iff every vertex of t1 lies strictly on one side of t2's plane."""
    d0, d1, d2 = _plane(t2, t1)[2]
    return d0 > 0 and d1 > 0 and d2 > 0 or d0 < 0 and d1 < 0 and d2 < 0


def _check_dim3(t1, t2, shared_pts, flat=None):
    """The pair predicate on two faces of R^3, or of R^4 and up inside one
    3-flat; returns (admissible, witness, kind).  There, ``flat`` is the two
    faces on three coordinates onto which that 3-flat projects one-to-one,
    an affine bijection that keeps every sign tested here up to one global
    sign: the signs are taken on ``flat``, while trace and clip points and
    ``plane_axes`` use the full coordinates, so witnesses keep them.
    Points in T1's plane are read on the ``plane_axes`` of T1.  A pair on
    one vertex that crosses T1's plane and passes the edge-line tests
    meets T1 in a segment from that vertex, whose far end one side test
    gives (``_wedge_end``); a pair with no shared vertex is decided by T2's
    trace on T1's plane, one vertex of T2 or a segment, clipped to T1."""
    f1, f2 = flat or (t1, t2)
    if len(shared_pts) == 2:
        # non-coplanar triangles on a common edge meet exactly in that edge
        q = next(q for q, p in zip(f2, t2) if p not in shared_pts)
        if _orient3d(*f1, q):
            return True, (), None
    u, w, d2 = _plane(f1, f2)
    s2 = [(d > 0) - (d < 0) for d in d2]
    side = s2[0] + s2[1] + s2[2]
    if side == 3 or side == -3:
        return True, (), None
    coplanar = not (s2[0] or s2[1] or s2[2])
    if not coplanar and len(shared_pts) == 1:
        # T2 meets T1's plane in the shared vertex v and in the point x where
        # the line through its other vertices q, r meets that plane, if x is
        # on the segment qr: T2 meets T1 only in v when q and r lie strictly
        # on one side, or when x lies strictly outside one of T1's edge
        # lines through v; for the edge (p, p') in T1's orientation that is
        # sign(d_q - d_r) * orient3d(p, p', q, r) > 0
        if side == 2 or side == -2:
            return True, (), None
        v = shared_pts[0]
        i, j = [n for n, q in enumerate(t2) if q != v]
        k = t1.index(v)
        for p, p_next in ((f1[k - 1], f1[k]), (f1[k], f1[(k + 1) % 3])):
            if (s2[i] - s2[j]) * _orient3d(p, p_next, f2[i], f2[j]) > 0:
                return True, (), None
    if not coplanar and not shared_pts and _strictly_one_side(f1, f2):
        return True, (), None
    if flat:
        u, w = _sub(t1[1], t1[0]), _sub(t1[2], t1[0])
    axes = plane_axes(u, w)
    if coplanar:
        return _coplanar_check(t1, t2, shared_pts, axes)
    if shared_pts:
        # T2 meets T1's plane in [v, x], x the vertex of T2 on that plane
        # or the point where qr crosses it, and [v, x] lies in T1's closed
        # wedge at v
        if s2[i] and s2[j]:
            x, kind = _crossing((t2[i], 1), d2[i], (t2[j], 1), d2[j]), "interior_crossing"
        else:
            x, kind = (t2[j] if s2[i] else t2[i], 1), "edge_through_face"
        return False, (_wedge_end(t1, k, x, axes),), kind
    # T2, on no vertex of T1, crosses the plane of T1: its trace there is
    # one vertex of T2, or the segment between two points each on a vertex
    # or an open edge of T2; T2 is not degenerate, so the two are distinct
    trace = [(q, 1) for q, s in zip(t2, s2) if s == 0]
    for i, j in combinations(range(3), 2):
        if s2[i] * s2[j] < 0:
            trace.append(_crossing((t2[i], 1), d2[i], (t2[j], 1), d2[j]))
    hit = _clip_segment(trace, t1, axes)
    return _line_verdict(hit, t1, t2, s2.count(0) == 2)


# -- dimension 4 and up ---------------------------------------------------

def _pivots(rows, axes):
    """The pivot coordinates, among ``axes``, of a fraction-free elimination
    of the int vectors ``rows``: as many as the rank of the rows, and their
    span projects one-to-one onto them."""
    pivots = []
    for k in axes:
        pivot = next((r for r in rows if r[k]), None)
        if pivot:
            pivots.append(k)
            c = pivot[k]
            rows = [[x * c - y * r[k] for x, y in zip(r, pivot)] for r in rows if r is not pivot]
    return pivots


def _cramer(t1, t2, axes):
    """Two faces with no shared vertex whose six points span a 4-flat that
    projects one-to-one onto the coordinates ``axes``.  Their planes meet
    where s u1 + t u2 - a w1 - b w2 = q0 - p0 (u1, u2 T1's edge vectors at
    p0, w1, w2 T2's at q0): in one point, found by Cramer's rule on
    ``axes``, when det(u1, u2, w1, w2) != 0 there; never otherwise, as
    q0 - p0 then leaves the span of the four.  The point keeps its full
    coordinates.  Rank 4 leaves no shared vertex to test the point
    against: the five points of a pair on one vertex are then affinely
    independent, and the four of a pair on an edge span 3 dimensions at
    most."""
    p0, p1, p2 = t1
    q0, q1, q2 = t2
    u1, u2 = _sub(p1, p0), _sub(p2, p0)
    # the columns (u1, u2, -w1, -w2) and q0 - p0, as rows of the transpose
    cols = [[v[k] for k in axes] for v in (u1, u2, _sub(q0, q1), _sub(q0, q2))]
    r = [q0[k] - p0[k] for k in axes]
    det = _det(cols)
    if not det:
        return True, (), None
    # the weights s, t, a, b as numerators over |det|
    sign = _sign(det)
    s, t, a, b = (sign * _det([*cols[:i], r, *cols[i + 1:]]) for i in range(4))
    det *= sign
    if min(s, t, a, b) < 0 or s + t > det or a + b > det:
        return True, (), None
    x = (tuple(det * c + s * e + t * f for c, e, f in zip(p0, u1, u2)), det)
    on_vertex = any(_equals(x, q) for q in t1 + t2)
    return False, (x,), "vertex_in_face" if on_vertex else "interior_crossing"


def _check_rank(t1, t2, shared_pts):
    """The pair predicate on two faces of R^4 and up, dispatched on the
    affine rank r of their 6 - len(shared_pts) distinct points: found by one
    elimination of their differences from t1[0], unless they vary on three
    coordinates at most.  Affinely independent points meet exactly in the
    shared face; for r = 4 ``_cramer`` decides; for r <= 3 the R^3 body, on
    three coordinates that contain the varying ones or the pivots."""
    points = t1 + t2
    axes = [k for k, column in enumerate(zip(*points)) if column.count(column[0]) < 6]
    if len(axes) > 3:
        axes = _pivots([_sub(q, points[0]) for q in points[1:]], axes)
        if len(axes) == 5 - len(shared_pts):
            return True, (), None
        if len(axes) == 4:
            return _cramer(t1, t2, axes)
    if len(axes) < 3:
        axes += [k for k in range(len(points[0])) if k not in axes][:3 - len(axes)]
    get = itemgetter(*axes)
    return _check_dim3(t1, t2, shared_pts, (tuple(map(get, t1)), tuple(map(get, t2))))


# -- public predicates -----------------------------------------------------

def _pair_check(t1, t2, shared, faces) -> PairVerdict:
    """The pair predicate on two nondegenerate faces of int coordinate
    tuples; the verdict names ``faces``."""
    if shared is None:
        shared = [(i, j) for i in range(3) for j in range(3) if t1[i] == t2[j]]
    shared_pts = [t1[i] for i, _ in shared]
    n_shared = len(shared_pts)

    if n_shared == 3:
        return PairVerdict(faces, 3, "violation", "coplanar_overlap", tuple((p, 1) for p in t1))

    dim = len(t1[0])
    if dim < 3:
        raise ValueError(f"unsupported dimension {dim}")
    ok, witness, kind = (_check_dim3 if dim == 3 else _check_rank)(t1, t2, shared_pts)
    if ok:
        return PairVerdict(faces, n_shared, "admissible")
    return PairVerdict(faces, n_shared, "violation", kind, witness)


def pair_intersection_check(t1, t2, shared=None) -> PairVerdict:
    """Exact verdict for one pair of triangles (tuples of Points of R^3 or
    higher).

    ``shared`` is a list of index pairs (i, j) with t1[i] == t2[j]; when
    omitted it is recovered from coordinate equality, and both faces are
    tested for degeneracy first: a face with collinear vertices makes the
    pair a ``degenerate_face`` violation.  Passing ``shared``, as
    ``verify_catalog`` does once it has tested every clique, turns that
    test off for int points.  Six points of more than one dimension, or of
    a dimension below 3, raise ValueError.  QuadExt points are always
    tested, then decided on the int frame of the six points
    (``geometry.integer_frame``, in one pass over their coordinates), and a
    witness is mapped back; a pair with no frame raises ValueError, and a
    pair of two contexts ContextMismatchError.  Int points are a frame,
    decided as given, and each witness point is homogeneous, (x, w), x an
    int tuple (of length 2 for a coplanar witness), w a positive int.  The
    verdict names the faces by the Points given, of either kind.
    """
    (a, b, c), (d, e, f) = t1, t2
    faces = (a, b, c), (d, e, f)
    t1, t2 = (a.coords, b.coords, c.coords), (d.coords, e.coords, f.coords)
    if type(t1[0][0]) is int:
        (a, b, c), (d, e, f) = t1, t2
        if not len(a) == len(b) == len(c) == len(d) == len(e) == len(f):
            _one_dimension(t1 + t2)
        if shared is None and (face_is_degenerate(*t1) or face_is_degenerate(*t2)):
            return PairVerdict(faces, 0, "violation", "degenerate_face")
        return _pair_check(t1, t2, shared, faces)
    ctx, q, units = integer_frame(t1 + t2)
    q1, q2 = tuple(q[:3]), tuple(q[3:])
    if face_is_degenerate(*q1) or face_is_degenerate(*q2):
        return PairVerdict(faces, 0, "violation", "degenerate_face")
    v = _pair_check(q1, q2, shared, faces)
    return _map_back(v, q1, ctx, units, faces) if v.witness else v


def _map_back(verdict: PairVerdict, t1, ctx, units, faces) -> PairVerdict:
    """A violation on the int frame, whose first face is ``t1``, as a
    violation on ``faces``, its witness mapped back into the context ``ctx``
    through the per-axis ``units``, each scale's raw numerators and
    denominator: a 2-D coplanar witness lies in the ``plane_axes``
    projection of ``t1``, so it takes the units of those two axes.  A
    homogeneous coordinate x / w on an axis of scale (a, b, c, e) / d is
    built as (a x, b x, c x, e x) / (d w)."""
    witness = verdict.witness
    if len(witness[0][0]) != len(units):
        units = [units[i] for i in plane_axes(_sub(t1[1], t1[0]), _sub(t1[2], t1[0]))]
    witness = tuple(
        Point(tuple(
            _reduced(ctx, a * n, b * n, c * n, e * n, d * w)
            for (a, b, c, e, d), n in zip(units, x)
        ))
        for x, w in witness
    )
    return PairVerdict(faces, verdict.shared, verdict.verdict, verdict.kind, witness)


@lru_cache(maxsize=256)
def _table_plan(graph, pattern: tuple):
    """The part of ``verify_catalog``'s table that depends only on the graph
    and the equality pattern of the squared distances, as tuples, which
    every caller shares: the sorted 3-cliques, each clique as label indices,
    and every clique pair a < b in order as (a, b, bits with a and b set,
    orbit id).  Two pairs share an orbit when an element of the isometry
    group (``geometry._isometries``) maps one to the other."""
    cliques = tuple(enumerate_cliques3(graph))
    index = {v: k for k, v in enumerate(graph.vertices)}
    faces = tuple(tuple(map(index.__getitem__, f)) for f in cliques)
    # a clique's image is looked up by its label set, one bit per label; an
    # image that is no clique goes to the sink index m
    m = len(cliques)
    key = {(1 << i) | (1 << j) | (1 << k): c for c, (i, j, k) in enumerate(faces)}
    moves = [tuple(1 << c for c in g) for g in _isometries(pattern)]
    images = [[key.get(h[i] | h[j] | h[k], m) for h in moves] for i, j, k in faces]
    # orbit ids on a flat (m + 1) x (m + 1) table, both orders of each pair
    row, n = m + 1, 0
    orbit = [None] * (row * row)
    pairs = []
    for a, b in combinations(range(m), 2):
        if orbit[a * row + b] is None:
            for ga, gb in zip(images[a], images[b]):
                orbit[ga * row + gb] = orbit[gb * row + ga] = n
            n += 1
        pairs.append((a, b, (1 << a) | (1 << b), orbit[a * row + b]))
    return cliques, faces, tuple(pairs)


def verify_catalog(placement: dict, catalog) -> list[EmbeddingReport]:
    """Certify every triangulation of a catalog on one placement: one report
    of its violations per triangulation, in catalog order.

    All triangulations draw their faces from the 3-cliques of the catalog's
    graph, so every clique pair is decided once, in sorted order, for the
    placement.  A label permutation that keeps the placement's exact squared
    distances (``geometry.isometry_group``) is a congruence, so it maps
    admissible pairs to admissible pairs and violating ones to violating
    ones: the predicate runs on one pair of each admissible orbit and on
    every violating pair, so each kind and witness is the pair's own.  A
    permutation keeps the distances exactly when it keeps which of them are
    equal, so the group and the orbits are computed once per (graph,
    equality pattern) (``_table_plan``).  Each clique is tested for
    degeneracy once, for the reports' degenerate-face violations and for
    every pair it is in: a pair with a degenerate face is decided here,
    every other one by ``pair_intersection_check`` on the one int Point per
    label, given the pair's shared vertices from the two cliques' labels.
    A report lists its degenerate faces, then its violating face pairs in
    the order of ``combinations(tri.faces, 2)``.  All of it runs on the
    placement's ``geometry.integer_frame``, where labels on equal points
    are refused, so equal labels are equal points, and each witness is
    built in the field; a placement with no frame raises ValueError, one
    of two contexts ContextMismatchError.
    """
    labels = catalog.task.graph.vertices
    ctx, ints, units = integer_frame([p.coords for p in placement.values()])
    placement = dict(zip(placement, ints))
    check_placement(labels, placement)
    ints = [placement[v] for v in labels]
    cliques, faces, pairs = _table_plan(catalog.task.graph, _distance_pattern(ints, ctx, units))
    points = [Point(p) for p in ints]
    corners = [(points[i], points[j], points[k]) for i, j, k in faces]
    degenerate = [face_is_degenerate(ints[i], ints[j], ints[k]) for i, j, k in faces]
    admissible = [False] * len(pairs)  # by orbit id; no more orbits than pairs
    decided = []  # (bits, violation) in pair order
    for a, b, bits, o in pairs:
        if admissible[o]:
            continue
        fa, fb = cliques[a], cliques[b]
        if degenerate[a] or degenerate[b]:
            v = PairVerdict((fa, fb), 0, "violation", "degenerate_face")
        else:
            ia, ib = faces[a], faces[b]
            shared = [(i, ib.index(x)) for i, x in enumerate(ia) if x in ib]
            v = pair_intersection_check(corners[a], corners[b], shared)
            if v.admissible:
                admissible[o] = True
                continue
            i, j, k = ia
            v = _map_back(v, (ints[i], ints[j], ints[k]), ctx, units, (fa, fb))
        decided.append((bits, v))
    at = {f: k for k, f in enumerate(cliques)}
    reports = []
    for tri in catalog.triangulations:
        face_ids = [at[f] for f in tri.faces]
        mask = sum(1 << a for a in face_ids)
        found = [v for bits, v in decided if mask & bits == bits]
        if face_ids != sorted(face_ids):
            # the order of combinations(tri.faces, 2): by the two faces' positions
            pos = {f: k for k, f in enumerate(tri.faces)}
            found.sort(key=lambda v: sorted(map(pos.__getitem__, v.faces)))
        violations = [
            PairVerdict((cliques[a], cliques[a]), 3, "violation", "degenerate_face")
            for a in face_ids if degenerate[a]
        ]
        reports.append(EmbeddingReport(violations + found))
    return reports
