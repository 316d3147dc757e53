"""Exact self-intersection certification for geometric simplicial complexes.

Admissibility of a face pair means: the intersection of the two closed
triangles equals the convex hull of their shared vertices (empty set, the
shared vertex, or the shared edge).  Every decision reduces to exact signs
of int expressions; degenerate configurations (coplanarity, collinear
contact) are decided by case analysis, never perturbed.

The one predicate, ``pair_intersection_check``, takes two faces of Points.
Field points it frames (``geometry.integer_frame``): int points times one
positive scale per axis, a rational multiple of one basis element of the
field, a diagonal map that keeps every sign the predicate tests.  It then
tests both faces for degeneracy, recovers the shared vertices as index
pairs (i, j), t1[i] == t2[j], when none are given, and dispatches on
dimension.  ``_check_dim3`` decides the pairs of R^3, and those of R^4 and
up whose points span a flat of dimension 3 at most, on three coordinates
onto which it projects one-to-one; ``_check_rank`` dispatches a pair of
R^4 and up on that affine rank.  The plane values alone decide a pair
whose vertices off the shared ones lie strictly on one side of the first
face's plane.  A point the predicate derives is homogeneous, an int
numerator tuple over a positive int denominator, compared by
cross-multiplication.  What lies inside the first face is found on its
plane, on the one form ``_edge_lines`` gives of its edge lines on a
coordinate pair: the polygon clip ``_clip`` of a coplanar pair and the
segment clip ``_clip_segment`` of a trace, or of [v, x] for a pair on one
vertex v.  A witness leaves the int frame as homogeneous points; each value
is built in the field once per call, on its axes alone: g x / (d w) for an
axis scale (slot, g, d), g / d times one basis element (``_map_back``; a
2-D coplanar witness on the first face's ``plane_axes``).
``verify_catalog`` decides each clique pair of a catalog once per
placement, one isometry orbit at a time, on int Points with the shared
vertices given, and files each violation into the reports that hold both
faces, on plans cached per graph (``_graph_plan``), per graph and distance
pattern (``_table_plan``) and per catalog (``_catalog_plan``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import itemgetter

from .geometry import (
    Point,
    _collinear,
    _det,
    _distance_pattern,
    _isometries,
    _one_dimension,
    _orient3d,
    _placed,
    _sq_distances,
    _sub,
    check_placement,
    face_is_degenerate,
    integer_frame,
    plane_axes,
)
from .numeric import _on_axes, _Value
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
    for (x, y), w in points:
        for (a, b), v in seen:
            if x * v == a * w and y * v == b * w:
                break
        else:
            seen.append(((x, y), w))
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
    (``_edge_lines``), in walking order, or ``poly`` itself when no edge
    line cuts it.  The walk is closed, so it can repeat a point."""
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
    """The part of the trace, one or two homogeneous points on the plane of
    the closed triangle ``tri`` of int points, inside ``tri``, read on the
    coordinate pair ``axes`` (``_edge_lines``): an empty list, one point,
    or two distinct points in the trace's order.  The trace is T2's on
    T1's plane, or the segment [v, x] from T1's vertex v, whose last point
    is then the far end of T1's part of it.  Each edge line with one end
    strictly outside replaces that end by the crossing, which lies strictly
    between the two ends, or by the other end itself when that one lies on
    the line; a one-point trace, or a segment cut down to one point, is one
    object at both ends."""
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

def _coplanar_check(t1, t2, shared, axes):
    """Both triangles in one 2-flat, which projects one-to-one onto the
    coordinate pair ``axes``; decided, and witnessed, in that projection by
    clipping T2 to T1.  ``shared`` holds the index pairs (i, j) with
    t1[i] == t2[j].  Returns (admissible, witness, kind)."""
    i, j = axes
    t1, t2 = ([(p[i], p[j]) for p in t] for t in (t1, t2))
    poly = [(q, 1) for q in t2]
    clipped = _clip(poly, t1, (0, 1))
    shared_pts = [t1[k] for k, _ in shared]
    offenders = [p for p in _dedupe(clipped) if not _in_shared_hull(p, shared_pts)]
    if not offenders:
        return True, (), None
    # T2 lies in T1 when no edge line of T1 cut it: the clip returned it
    contained = clipped is poly or all(
        dx * y - dy * x + c0 >= 0 for dx, dy, c0 in _edge_lines(t2, (0, 1)) for x, y in t1
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


def _check_dim3(t1, t2, shared, flat=None):
    """The pair predicate on two faces of R^3, or of R^4 and up inside one
    3-flat, that share the vertices t1[i] == t2[j] of the index pairs (i, j)
    in ``shared``; returns (admissible, witness, kind).  There, ``flat`` is
    the two faces on three coordinates onto which that 3-flat projects
    one-to-one, an affine bijection that keeps every sign tested here up to
    one global sign: the signs are taken on ``flat``, while trace and clip
    points and ``plane_axes`` use the full coordinates, so witnesses keep
    them.  A pair whose other vertices of T2 lie strictly on one side of
    T1's plane is admissible; so a shared edge is decided by the plane
    values alone.  Points in T1's plane are read on the ``plane_axes`` of
    T1.  A pair on one vertex v that crosses T1's plane and passes the
    edge-line tests meets T1 in a segment [v, y], the part of [v, x] inside
    T1 (``_clip_segment``); a pair with no shared vertex is decided by T2's
    trace on T1's plane, one vertex of T2 or a segment, clipped to T1."""
    f1, f2 = flat or (t1, t2)
    u, w, d2 = _plane(f1, f2)
    s2 = [(d > 0) - (d < 0) for d in d2]
    side = s2[0] + s2[1] + s2[2]
    # the shared vertices lie on T1's plane: the others all strictly on one
    # side leave only the shared face in common
    if side == 3 - len(shared) or side == len(shared) - 3:
        return True, (), None
    coplanar = not (s2[0] or s2[1] or s2[2])
    if not coplanar and shared:
        # one shared vertex v = t1[k] = t2[m]: T2 meets T1's plane in v and
        # in the point x where the line through its other vertices q, r
        # meets that plane, with x on the segment qr; T2 meets T1 only in v
        # when x lies strictly outside one of T1's edge lines through v; for
        # the edge (p, p') in T1's orientation that is
        # sign(d_q - d_r) * orient3d(p, p', q, r) > 0
        (k, m), = shared
        i, j = (m + 1) % 3, (m + 2) % 3
        for p, p_next in ((f1[k - 1], f1[k]), (f1[k], f1[(k + 1) % 3])):
            if (s2[i] - s2[j]) * _orient3d(p, p_next, f2[i], f2[j]) > 0:
                return True, (), None
    if not coplanar and not shared and _strictly_one_side(f1, f2):
        return True, (), None
    if flat:
        u, w = _sub(t1[1], t1[0]), _sub(t1[2], t1[0])
    axes = plane_axes(u, w)
    if coplanar:
        return _coplanar_check(t1, t2, shared, axes)
    if shared:
        # T2 meets T1's plane in [v, x], x the vertex of T2 on that plane
        # or the point where qr crosses it, and [v, x] lies in T1's closed
        # wedge at v
        if s2[i] and s2[j]:
            x, kind = _crossing((t2[i], 1), d2[i], (t2[j], 1), d2[j]), "interior_crossing"
        else:
            x, kind = (t2[j] if s2[i] else t2[i], 1), "edge_through_face"
        return False, (_clip_segment([(t1[k], 1), x], t1, axes)[-1],), kind
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
    sign = -1 if det < 0 else 1
    s, t, a, b = (sign * _det([*cols[:i], r, *cols[i + 1:]]) for i in range(4))
    det *= sign
    if min(s, t, a, b) < 0 or s + t > det or a + b > det:
        return True, (), None
    x = (tuple(det * c + s * e + t * f for c, e, f in zip(p0, u1, u2)), det)
    on_vertex = any(_equals(x, q) for q in t1 + t2)
    return False, (x,), "vertex_in_face" if on_vertex else "interior_crossing"


def _check_rank(t1, t2, shared):
    """The pair predicate on two faces of R^4 and up, dispatched on the
    affine rank r of their 6 - len(shared) distinct points: found by one
    elimination of their differences from t1[0], unless they vary on three
    coordinates at most.  Affinely independent points meet exactly in the
    shared face; for r = 4 ``_cramer`` decides; for r <= 3 the R^3 body, on
    three coordinates that contain the varying ones or the pivots."""
    points = t1 + t2
    axes = [k for k, column in enumerate(zip(*points)) if column.count(column[0]) < 6]
    if len(axes) > 3:
        axes = _pivots([_sub(q, points[0]) for q in points[1:]], axes)
        if len(axes) == 5 - len(shared):
            return True, (), None
        if len(axes) == 4:
            return _cramer(t1, t2, axes)
    if len(axes) < 3:
        axes += [k for k in range(len(points[0])) if k not in axes][:3 - len(axes)]
    get = itemgetter(*axes)
    return _check_dim3(t1, t2, shared, (tuple(map(get, t1)), tuple(map(get, t2))))


# -- the public predicate --------------------------------------------------

def pair_intersection_check(t1, t2, shared=None) -> PairVerdict:
    """Exact verdict for one pair of triangles (tuples of Points of R^3 or
    higher).

    ``shared`` is a sequence of index pairs (i, j) with t1[i] == t2[j].
    QuadExt points are decided on the int frame of their six points
    (``geometry.integer_frame``, in one pass over their coordinates), and a
    witness is mapped back (``_map_back``); a pair with no frame raises
    ValueError, and a pair of two contexts ContextMismatchError.  Int points
    are a frame, decided as given, and each witness point is homogeneous,
    (x, w), x an int tuple (of length 2 for a coplanar witness), w a
    positive int.  Both faces are tested for degeneracy on the frame, on
    int points only when ``shared`` is omitted (``verify_catalog`` passes
    it, having tested every clique): a face with collinear vertices makes
    the pair a ``degenerate_face`` violation.  An omitted ``shared`` is
    recovered from coordinate equality.  Then ``_check_dim3`` decides a
    pair of R^3 and ``_check_rank`` one of R^4 and up.  Six points of more
    than one dimension raise ValueError, and so do two distinct faces of a
    dimension below 3.  The verdict names the faces by the Points given,
    of either kind.
    """
    (a, b, c), (d, e, f) = t1, t2
    faces = (a, b, c), (d, e, f)
    (a, b, c), (d, e, f) = t1, t2 = (a.coords, b.coords, c.coords), (d.coords, e.coords, f.coords)
    field = type(a[0]) is not int
    if field:
        ctx, pts, scales = integer_frame(t1 + t2)
        t1, t2 = tuple(pts[:3]), tuple(pts[3:])
    elif not len(a) == len(b) == len(c) == len(d) == len(e) == len(f):
        _one_dimension(t1 + t2)
    if (field or shared is None) and (face_is_degenerate(*t1) or face_is_degenerate(*t2)):
        return PairVerdict(faces, 0, "violation", "degenerate_face")
    if shared is None:
        shared = [(i, j) for i in range(3) for j in range(3) if t1[i] == t2[j]]
    n_shared = len(shared)
    if n_shared == 3:
        witness, kind = tuple((p, 1) for p in t1), "coplanar_overlap"
    else:
        dim = len(t1[0])
        if dim < 3:
            raise ValueError(f"unsupported dimension {dim}")
        ok, witness, kind = (_check_dim3 if dim == 3 else _check_rank)(t1, t2, shared)
        if ok:
            return PairVerdict(faces, n_shared, "admissible")
    v = PairVerdict(faces, n_shared, "violation", kind, witness)
    return _map_back(v, (0, 1, 2), pts, ctx, scales, faces, None) if field else v


def _map_back(verdict: PairVerdict, face, pts, ctx, scales, faces, built) -> PairVerdict:
    """The violation ``verdict`` on the int frame, named in place by
    ``faces``, each witness point built in the context ``ctx`` one axis at
    a time (``numeric._on_axes``) through the frame's per-axis ``scales``
    (slot, g, d), a 2-D coplanar one through those of the ``plane_axes``
    of the first face, ``pts`` at the indices ``face``.  ``built`` maps
    (axes, x, w), axes None if ambient, to the Point of x / w; a miss looks
    up (x / g, w / g), g = gcd(w, *x), too; None builds anew."""
    witness, axes = verdict.witness, None
    if len(witness[0][0]) != len(scales):
        p0, p1, p2 = [pts[i] for i in face]
        axes = plane_axes(_sub(p1, p0), _sub(p2, p0))
        scales = [scales[i] for i in axes]
    points = []
    for x, w in witness:
        p = Point(_on_axes(ctx, scales, x, w)) if built is None else built.get((axes, x, w))
        if p is None:
            g = gcd(w, *x)
            key = axes, tuple([a // g for a in x]), w // g
            p = built.get(key) or Point(_on_axes(ctx, scales, key[1], key[2]))
            built[key] = built[axes, x, w] = p
        points.append(p)
    verdict.faces, verdict.witness = faces, tuple(points)
    return verdict


@lru_cache(maxsize=16)
def _graph_plan(graph):
    """The graph's sorted 3-cliques, each as label indices too, every clique
    pair a < b in order as (a, b, shared), ``shared`` the index pairs (i, j),
    clique a's i-th label equal to clique b's j-th, and each clique's index."""
    cliques = tuple(enumerate_cliques3(graph))
    index = {v: k for k, v in enumerate(graph.vertices)}
    faces = tuple(tuple(map(index.__getitem__, f)) for f in cliques)
    pairs = tuple(
        (a, b, tuple((i, fb.index(x)) for i, x in enumerate(fa) if x in fb))
        for (a, fa), (b, fb) in combinations(enumerate(faces), 2)
    )
    return cliques, faces, pairs, {f: k for k, f in enumerate(cliques)}


@lru_cache(maxsize=16)
def _catalog_plan(graph, triangulations: tuple):
    """Per triangulation its clique ids, sorted as its faces are
    (``surfaces.Triangulation``); per clique the set of triangulations that
    hold it."""
    at = _graph_plan(graph)[3]
    ids = tuple(tuple(map(at.__getitem__, faces)) for faces in triangulations)
    return ids, tuple(frozenset(t for t, c in enumerate(ids) if a in c) for a in range(len(at)))


@lru_cache(maxsize=256)
def _table_plan(graph, pattern: tuple):
    """``_graph_plan``'s cliques and faces, and the orbits of its clique
    pairs under the isometry group of a distance ``pattern``
    (``geometry._isometries``), in the order of their first pairs, each as
    its member pairs, the graph plan's tuples, in pair order."""
    cliques, faces, pairs, _ = _graph_plan(graph)
    # a clique's image is looked up by its label set, one bit per label; an
    # image that is no clique goes to the sink index m
    m = len(cliques)
    key = {(1 << i) | (1 << j) | (1 << k): c for c, (i, j, k) in enumerate(faces)}
    moves = [tuple(1 << c for c in g) for g in _isometries(pattern)]
    images = [[key.get(h[i] | h[j] | h[k], m) for h in moves] for i, j, k in faces]
    # orbit ids on a flat (m + 1) x (m + 1) table, both orders of each pair
    row = m + 1
    orbit = [None] * (row * row)
    orbits = []
    for pair in pairs:
        a, b = pair[0], pair[1]
        if orbit[a * row + b] is None:
            for ga, gb in zip(images[a], images[b]):
                orbit[ga * row + gb] = orbit[gb * row + ga] = len(orbits)
            orbits.append([])
        orbits[orbit[a * row + b]].append(pair)
    return cliques, faces, tuple(map(tuple, orbits))


def verify_catalog(placement: dict, catalog) -> list[EmbeddingReport]:
    """Certify every triangulation of a catalog on one placement: one report
    of its violations per triangulation, in catalog order.

    All triangulations draw their faces from the 3-cliques of the catalog's
    graph, so every clique pair is decided once for the placement.  A label
    permutation that keeps the placement's exact squared distances
    (``geometry.isometry_group``) is a congruence: it keeps degenerate
    faces, admissible pairs and violating pairs.  So the walk takes the
    orbits of the clique pairs (``_table_plan``) in turn and decides the
    first pair of each: an admissible orbit's other pairs are skipped, a
    violating orbit's each get ``pair_intersection_check``, so each kind
    and witness is the pair's own, and an orbit with a degenerate face is
    all ``degenerate_face`` violations.  One matrix of squared distances
    gives the equality pattern the orbits depend on and tests each clique
    for degeneracy once (``geometry._collinear``).  Each witness value is
    built in the field once per call.  A report lists its degenerate faces,
    then its violating face pairs in the order of ``combinations(tri.faces,
    2)``, each filed through ``_catalog_plan``.  All of it runs on the
    ``geometry.integer_frame`` of the graph's labels, where labels on equal
    points are refused; a missing label or no frame raises ValueError, two
    contexts ContextMismatchError.
    """
    graph = catalog.task.graph
    ctx, ints, scales = integer_frame([p.coords for p in _placed(graph.vertices, placement)])
    check_placement(graph.vertices, dict(zip(graph.vertices, ints)))
    d = _sq_distances(ints, ctx, scales)[0]
    cliques, faces, orbits = _table_plan(graph, _distance_pattern(d))
    points = [Point(p) for p in ints]
    corners = [(points[i], points[j], points[k]) for i, j, k in faces]
    degenerate = {c for c, (i, j, k) in enumerate(faces) if _collinear(d, i, j, k)}
    built, decided = {}, []  # decided: (a, b, violation), sorted into pair order below
    for members in orbits:
        a, b = members[0][:2]
        if a in degenerate or b in degenerate:
            decided += [(a, b, PairVerdict((cliques[a], cliques[b]), 0, "violation",
                                           "degenerate_face")) for a, b, _ in members]
            continue
        for a, b, shared in members:
            v = pair_intersection_check(corners[a], corners[b], shared)
            if v.admissible:
                break  # the first pair: the whole orbit is admissible
            v = _map_back(v, faces[a], ints, ctx, scales, (cliques[a], cliques[b]), built)
            decided.append((a, b, v))
    decided.sort()
    plan, held = _catalog_plan(graph, tuple(t.faces for t in catalog.triangulations))
    founds = [[] for _ in plan]
    for a, b, v in decided:  # in pair order, to each triangulation of both faces
        for t in held[a] & held[b]:
            founds[t].append(v)
    reports = []
    for face_ids, found in zip(plan, founds):
        lone = [PairVerdict((cliques[a], cliques[a]), 3, "violation", "degenerate_face")
                for a in face_ids if a in degenerate] if degenerate else []
        reports.append(EmbeddingReport(lone + found))
    return reports
