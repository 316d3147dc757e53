import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from flextri import verify
from flextri.geometry import (
    Point,
    construction_coords,
    face_is_degenerate,
    isometry_group,
    make_point,
    orientation_sign,
    orthogonal_project,
    plane_axes,
    sixteen_cell_diagram,
)
from flextri.numeric import (
    CTX_SQRT2_SQRT3,
    CTX_SQRT5,
    QQ,
    ContextMismatchError,
    QuadExt,
    solve_linear,
)
from flextri.enumeration import Catalog
from flextri.surfaces import Triangulation, enumerate_cliques3
from flextri.verify import (
    EmbeddingReport,
    PairVerdict,
    _pair_check,
    pair_intersection_check,
    verify_catalog,
)

from conftest import (
    add,
    field_frame,
    field_isometry_group,
    scale,
    scale_placement,
)

CTX = CTX_SQRT2_SQRT3


def pt(*coords, ctx=QQ):
    return make_point(ctx, *[Fraction(c) for c in coords])


# an int torus placement near the suspension, found by a local search: its
# isometry group is trivial, and it embeds torus 0 alone
ASYMMETRIC_TORUS = {
    v: pt(*c) for v, c in zip("ABCDEFGH", (
        (22, -9, 103), (-46, 12, 0), (27, 44, -19), (14, -49, 24),
        (12, 25, -130), (104, 27, -8), (-38, -84, 17), (-56, 78, 2),
    ))
}
# a second one, found by the same search from random int points in
# [-8, 8]^3: its group is trivial too, and torus 0 alone embeds
RANDOM_START_TORUS = {
    v: pt(*c) for v, c in zip("ABCDEFGH", (
        (-4, 24, -6), (34, -74, 33), (52, -40, 10), (-8, -19, 50),
        (30, -8, 28), (35, 8, 12), (6, 6, 58), (17, 59, 41),
    ))
}


# -- orientation -----------------------------------------------------------

def test_orientation_unit_simplex():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert orientation_sign(pts) == 1


def test_orientation_swap_flips_sign():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    swapped = [pts[0], pts[2], pts[1], pts[3]]
    assert orientation_sign(swapped) == -1


def test_orientation_coplanar_is_zero():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert orientation_sign(pts) == 0


def test_orientation_wrong_count():
    with pytest.raises(ValueError):
        orientation_sign([(0, 0, 0), (1, 0, 0)])


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_orientation_equals_the_tuple_reference():
    # the scalar orient3d against the sign of (b - a) x (c - a) . (d - a) on
    # seeded int points up to 2^80, exactly coplanar quadruples and repeated
    # points; points of R^4 are refused
    rng = random.Random(2024)
    signs = set()
    for bound in (3, 2**20, 2**80):
        for _ in range(400):
            a, b, c, d = (tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(4))
            s, t = rng.randint(-5, 5), rng.randint(-5, 5)
            coplanar = tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c))
            for quad in ((a, b, c, d), (a, b, c, coplanar), (a, a, c, d), (a, b, c, b)):
                det = _dot(_cross(_sub(quad[1], quad[0]), _sub(quad[2], quad[0])),
                           _sub(quad[3], quad[0]))
                assert orientation_sign(quad) == (det > 0) - (det < 0)
                signs.add(orientation_sign(quad))
    assert signs == {-1, 0, 1}
    with pytest.raises(ValueError):
        orientation_sign([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])


# -- single-pair verdicts --------------------------------------------------

def test_shared_edge_noncoplanar_is_admissible():
    t1 = (pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0))
    t2 = (pt(0, 0, 0), pt(1, 0, 0), pt(0, 0, 1))
    v = pair_intersection_check(t1, t2)
    assert v.admissible
    assert v.shared == 2


def test_separated_triangles_admissible():
    t1 = (pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0))
    t2 = (pt(0, 0, 5), pt(1, 0, 5), pt(0, 1, 5))
    assert pair_intersection_check(t1, t2).admissible


def test_edge_through_interior_is_violation():
    t1 = (pt(0, 0, 0), pt(4, 0, 0), pt(0, 4, 0))
    t2 = (pt(1, 1, -1), pt(1, 1, 1), pt(3, 3, 1))
    v = pair_intersection_check(t1, t2)
    assert not v.admissible
    assert v.kind in {"interior_crossing", "edge_through_face"}
    # every witness point lies on the plane z = 0 of the first triangle
    for w in v.witness:
        assert w.coords[2].is_zero()


def test_identical_triangles_flagged():
    t = (pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0))
    v = pair_intersection_check(t, t)
    assert not v.admissible
    assert v.kind == "coplanar_overlap"


def test_degenerate_face_flagged():
    t1 = (pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0))
    t2 = (pt(0, 0, 5), pt(1, 0, 5), pt(0, 1, 5))
    assert pair_intersection_check(t1, t2).kind == "degenerate_face"


@pytest.mark.parametrize("t1, t2", [
    # a degenerate first face once raised TypeError (no plane_axes) ...
    (((0, 0, 0), (1, 1, 1), (2, 2, 2)), ((0, 0, 5), (1, 0, 5), (0, 1, 5))),
    # ... and a degenerate second face once gave interior_crossing
    (((-1, 1, 0), (3, 1, 0), (1, 1, 9)), ((0, 0, 0), (2, 2, 0), (4, 4, 0))),
])
def test_int_points_without_shared_are_tested_for_degeneracy(t1, t2):
    # on int Points as on QuadExt points, unless the caller passes the
    # shared vertices, which says it has tested both faces itself
    ints = tuple(tuple(map(Point, t)) for t in (t1, t2))
    assert pair_intersection_check(*ints) == PairVerdict(ints, 0, "violation", "degenerate_face")
    field = tuple(tuple(pt(*p) for p in t) for t in (t1, t2))
    assert pair_intersection_check(*field) == PairVerdict(field, 0, "violation", "degenerate_face")


def test_vertex_touch_without_sharing_label_is_violation():
    # t2 has a vertex in the strict interior of t1
    t1 = (pt(0, 0, 0), pt(4, 0, 0), pt(0, 4, 0))
    t2 = (pt(1, 1, 0), pt(1, 1, 4), pt(2, 1, 4))
    v = pair_intersection_check(t1, t2)
    assert not v.admissible
    assert v.kind == "vertex_in_face"


def test_shared_vertex_only_contact_is_admissible():
    t1 = (pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0))
    t2 = (pt(0, 0, 0), pt(-1, 0, 1), pt(0, -1, 1))
    v = pair_intersection_check(t1, t2)
    assert v.admissible
    assert v.shared == 1


# One R^3 pair per sign-test exit of the predicate, with T1 = (0,0,0),
# (4,0,0), (0,4,0): (name, T2, orient3d calls, results of the T1-side test).
EXIT_CASES = (
    ("shared-edge-not-coplanar", ((0, 0, 0), (4, 0, 0), (1, 1, 3)), 1, []),
    ("T2-strictly-on-one-side", ((1, 1, 1), (2, 1, 3), (1, 2, 5)), 0, []),
    ("shared-vertex-others-on-one-side", ((0, 0, 0), (5, 1, 2), (1, 5, 3)), 0, []),
    ("shared-vertex-outside-an-edge-line", ((0, 0, 0), (-1, -1, 2), (-2, -1, -3)), 1, []),
    ("T1-strictly-on-one-side", ((9, 9, -1), (9, 10, 2), (10, 9, 3)), 0, [True]),
)


@pytest.mark.parametrize(
    "t2, orient3d_calls, one_side", [c[1:] for c in EXIT_CASES], ids=[c[0] for c in EXIT_CASES]
)
def test_sign_test_exits_decide_without_a_trace(monkeypatch, t2, orient3d_calls, one_side):
    # each pair is admissible by its sign tests alone: no trace point is
    # built and nothing is clipped, in R^3 and lifted into coordinate
    # 3-flats of R^4, where the R^3 body takes the same signs on the three
    # coordinates that vary
    calls = {"trace": 0, "orient3d": 0}
    sides = []

    def spy(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    def one_side_spy(*args):
        sides.append(strictly_one_side(*args))
        return sides[-1]

    strictly_one_side = verify._strictly_one_side
    monkeypatch.setattr(verify, "_crossing", spy("trace", verify._crossing))
    monkeypatch.setattr(verify, "_clip", spy("trace", verify._clip))
    monkeypatch.setattr(verify, "_clip_segment", spy("trace", verify._clip_segment))
    monkeypatch.setattr(verify, "_orient3d", spy("orient3d", verify._orient3d))
    monkeypatch.setattr(verify, "_strictly_one_side", one_side_spy)
    t1 = ((0, 0, 0), (4, 0, 0), (0, 4, 0))
    for lift in (lambda p: p, lambda p: (*p, 7), lambda p: (-2, *p)):
        calls.update(trace=0, orient3d=0)
        sides.clear()
        v = pair_intersection_check(*(tuple(pt(*lift(p)) for p in t) for t in (t1, t2)))
        assert v.admissible
        assert calls["trace"] == 0
        assert calls["orient3d"] == orient3d_calls
        assert sides == one_side


# Traces of T2 on the plane z = 0 of T1 = (0,0,0), (6,0,0), (0,6,0).  In
# every case T1 has vertices on both sides of T2's plane, so the trace is
# clipped to T1.  Each is (name, T2, kind or None when admissible, exact
# witness in order).
_H = Fraction(1, 2)
CLIP_CASES = (
    ("point-inside", ((1, 1, 0), (1, 1, 3), (2, 1, 3)), "vertex_in_face", ((1, 1, 0),)),
    ("point-on-an-edge", ((3, 0, 0), (3, -1, 3), (4, -1, 3)), "vertex_in_face", ((3, 0, 0),)),
    ("point-outside", ((5, 5, 0), (5, 5, 3), (6, 5, 3)), None, ()),
    ("segment-inside", ((1, 1, -1), (2, 1, 1), (1, 2, 1)), "interior_crossing",
     ((1 + _H, 1, 0), (1, 1 + _H, 0))),
    ("segment-clipped-at-one-end", ((1, 1, -1), (15, 1, 1), (1, 3, 1)), "interior_crossing",
     ((4 + _H, 1 + _H, 0), (1, 2, 0))),
    ("segment-clipped-at-both-ends", ((3, 1, -1), (-5, 1, 1), (11, 1, 1)), "interior_crossing",
     ((0, 1, 0), (5, 1, 0))),
    ("segment-along-an-edge-of-T2", ((-1, 1, 0), (7, 1, 0), (3, 1, 4)), "edge_through_face",
     ((0, 1, 0), (5, 1, 0))),
    ("segment-missing-T1", ((7, 1, -1), (5, 1, 1), (9, 1, 1)), None, ()),
    ("segment-through-a-vertex-of-T1", ((5, -1, 0), (7, 1, 0), (6, 0, 3)), "vertex_in_face",
     ((6, 0, 0),)),
    ("segment-ending-on-an-edge", ((3, 0, -1), (3, 0, 1), (3, -3, 0)), "edge_through_face",
     ((3, 0, 0),)),
)


@pytest.mark.parametrize(
    "t2, kind, witness", [c[1:] for c in CLIP_CASES], ids=[c[0] for c in CLIP_CASES]
)
def test_trace_clip_cases_have_exact_witnesses(t2, kind, witness):
    # verdict, kind and the witness points in order, in R^3 and lifted by
    # (x, y, z, 0) into R^4; a segment cut down to one point is one witness
    t1 = ((0, 0, 0), (6, 0, 0), (0, 6, 0))
    for lift in ((), (0,)):
        pair = tuple(tuple(pt(*p, *lift) for p in t) for t in (t1, t2))
        v = pair_intersection_check(*pair)
        assert (v.verdict, v.kind) == ("violation" if kind else "admissible", kind)
        assert [w.coords for w in v.witness] == [pt(*p, *lift).coords for p in witness]
        if kind:
            _assert_witnesses_violate(*pair, v)


# Pairs on the vertex v = (0,0,0) of T1 = (0,0,0), (6,0,0), (0,6,0) that pass
# both edge-line tests: T2 meets T1's plane z = 0 in [v, x], and T1 in
# [v, y], whose far end y is the witness.  Each is (name, T2, kind, y).
SHARED_VERTEX_CASES = (
    ("x-inside-T1", ((0, 0, 0), (1, 1, -1), (1, 3, 1)), "interior_crossing", (1, 2, 0)),
    ("x-on-the-opposite-edge", ((0, 0, 0), (3, 3, -1), (3, 3, 1)), "interior_crossing",
     (3, 3, 0)),
    ("x-beyond-the-opposite-edge", ((0, 0, 0), (4, 4, -1), (4, 4, 1)), "interior_crossing",
     (3, 3, 0)),
    ("q-on-the-plane-inside-T1", ((0, 0, 0), (2, 1, 0), (1, 1, 3)), "edge_through_face",
     (2, 1, 0)),
    ("q-on-the-plane-beyond-T1", ((0, 0, 0), (1, 1, 3), (8, 4, 0)), "edge_through_face",
     (4, 2, 0)),
    ("x-on-an-edge-line-through-v", ((0, 0, 0), (3, 0, -1), (3, 0, 1)), "interior_crossing",
     (3, 0, 0)),
    ("x-on-an-edge-line-beyond-T1", ((0, 0, 0), (9, 0, 1), (9, 0, -1)), "interior_crossing",
     (6, 0, 0)),
)


@pytest.mark.parametrize(
    "t2, kind, witness", [c[1:] for c in SHARED_VERTEX_CASES],
    ids=[c[0] for c in SHARED_VERTEX_CASES],
)
def test_shared_vertex_crossings_witness_the_far_end(monkeypatch, t2, kind, witness):
    # the one witness point y, with no trace and no clip, for every order
    # of T1's vertices (so v at each position, in both orientations), in
    # R^3 and lifted by (x, y, z, 0) into R^4
    monkeypatch.setattr(verify, "_clip", None)
    monkeypatch.setattr(verify, "_clip_segment", None)
    for t1 in permutations(((0, 0, 0), (6, 0, 0), (0, 6, 0))):
        for lift in ((), (0,)):
            pair = tuple(tuple(pt(*p, *lift) for p in t) for t in (t1, t2))
            v = pair_intersection_check(*pair)
            assert (v.verdict, v.kind, v.shared) == ("violation", kind, 1)
            assert [w.coords for w in v.witness] == [pt(*witness, *lift).coords]
            _assert_witnesses_violate(*pair, v)


def test_seeded_pairs_on_no_or_one_vertex_have_witnesses_in_both_faces():
    # small-int pairs of R^3 on no shared vertex or on one: every violation
    # that is not coplanar has one or two witness points, each in both
    # closed faces and off the shared vertex, by barycentric weights
    rng = random.Random(20261020)
    seen = set()
    for _ in range(8000):
        t1 = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        t2 = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        if rng.randint(0, 1):
            t2[rng.randint(0, 2)] = t1[0]
        shared = len(set(t1) & set(t2))
        if shared > 1 or face_is_degenerate(*t1) or face_is_degenerate(*t2):
            continue
        pair = tuple(tuple(pt(*p) for p in t) for t in (t1, t2))
        v = pair_intersection_check(*pair)
        assert v.shared == shared
        if v.kind in (None, "coplanar_overlap", "containment"):
            continue
        assert 1 <= len(v.witness) <= 2 - shared
        _assert_witnesses_violate(*pair, v)
        seen.add((shared, v.kind))
    assert seen == {
        (0, "interior_crossing"), (0, "edge_through_face"), (0, "vertex_in_face"),
        (1, "interior_crossing"), (1, "edge_through_face"),
    }


def test_verdict_symmetric_under_swap():
    rng = random.Random(424242)
    for _ in range(100):
        t1 = tuple(pt(*(rng.randint(-4, 4) for _ in range(3))) for _ in range(3))
        t2 = tuple(pt(*(rng.randint(-4, 4) for _ in range(3))) for _ in range(3))
        a = pair_intersection_check(t1, t2)
        b = pair_intersection_check(t2, t1)
        assert a.admissible == b.admissible


# -- documented violations on the suspension placement ---------------------

def test_suspension_equator_containments(suspension_points):
    fgh = tuple(suspension_points[v] for v in "FGH")
    for face in ("CDF", "BCD", "BGH"):
        v = pair_intersection_check(tuple(suspension_points[u] for u in face), fgh)
        assert not v.admissible
        assert v.kind == "containment"


def test_suspension_embeds_exactly_six(suspension_points, torus_catalog):
    reports = verify_catalog(suspension_points, torus_catalog)
    embedded = [i for i, r in enumerate(reports) if r.embedded]
    assert embedded == [0, 1, 2, 4, 6, 8]


def test_suspension_embedded_set_is_symmetry_orbit(
    suspension_points, torus_catalog
):
    # the placement is invariant under a 3-fold rotation, a reflection and
    # the apex swap; relabeling an embedded triangulation by any of these
    # must land back in the embedded set
    rot = str.maketrans("ABCDEFGH", "ACDBEGHF")
    mirror = str.maketrans("ABCDEFGH", "ABDCEFHG")
    flip = str.maketrans("ABCDEFGH", "EBCDAFGH")
    reports = verify_catalog(suspension_points, torus_catalog)
    embedded = {
        frozenset(torus_catalog.triangulations[i].faces)
        for i, r in enumerate(reports)
        if r.embedded
    }
    assert len(embedded) == 6
    for perm in (rot, mirror, flip):
        for faces in embedded:
            relabeled = frozenset(
                tuple(sorted(v.translate(perm) for v in f)) for f in faces
            )
            assert relabeled in embedded

    # the three relabelings are isometries of the placement, and under its
    # whole isometry group the 12 triangulations fall into two orbits: the
    # 6 embedded ones and the 6 others
    group = field_isometry_group(torus_catalog.task.graph.vertices, suspension_points)
    for perm in (rot, mirror, flip):
        assert {v: v.translate(perm) for v in "ABCDEFGH"} in group
    orbits = {
        frozenset(frozenset(_image(g, f) for f in tri.faces) for g in group)
        for tri in torus_catalog.triangulations
    }
    assert sorted(map(len, orbits)) == [6, 6]
    assert embedded in orbits


def test_full_catalogs_embed_on_reference_placements(
    schlegel16_points, rp2_points, moebius_points,
    torus_catalog, rp2_catalog, moebius_catalog,
):
    for points, catalog in (
        (schlegel16_points, torus_catalog),
        (rp2_points, rp2_catalog),
        (moebius_points, moebius_catalog),
    ):
        reports = verify_catalog(points, catalog)
        assert all(r.embedded for r in reports)


def test_verify_catalog_table_checks_and_selection(
    moebius_points, moebius_catalog, suspension_points, torus_catalog
):
    # E moved to 2B puts A, B, E on one line: face ABE is degenerate, and
    # every report containing it says so, first for the face itself and
    # then for each pair the face is in
    collinear = dict(moebius_points, E=scale(moebius_points["B"], 2))
    abe = ("A", "B", "E")
    reports = verify_catalog(collinear, moebius_catalog)
    with_abe = [
        (r, tri) for r, tri in zip(reports, moebius_catalog.triangulations)
        if abe in tri.faces
    ]
    assert with_abe
    for r, tri in with_abe:
        assert not r.embedded
        flagged = [v for v in r.violations if v.faces == (abe, abe)]
        assert [v.kind for v in flagged] == ["degenerate_face"]
        for f in tri.faces:
            if f != abe:
                pair = (abe, f) if abe < f else (f, abe)
                (v,) = [v for v in r.violations if v.faces == pair]
                assert v.kind == "degenerate_face"

    # the placement is checked once per call: a missing label, no point at
    # all, and two labels on one point, are refused
    missing = {v: p for v, p in moebius_points.items() if v != "C"}
    with pytest.raises(ValueError, match=r"missing vertices \['C'\]"):
        verify_catalog(missing, moebius_catalog)
    with pytest.raises(ValueError, match="missing vertices"):
        verify_catalog({}, moebius_catalog)
    doubled = dict(moebius_points, C=moebius_points["D"])
    with pytest.raises(ValueError, match="distinct labels to equal points"):
        verify_catalog(doubled, moebius_catalog)

    # one report per triangulation, also on a placement that embeds
    # nothing; a report's verdict is read off its violations
    nothing = verify_catalog(sixteen_cell_diagram(Fraction(2999, 1000)), torus_catalog)
    assert [r.verdict for r in nothing] == ["not_embedded"] * 12
    assert not any(r.embedded for r in nothing)
    assert all(r.violations for r in nothing)
    assert len(verify_catalog(suspension_points, torus_catalog)) == 12


def test_verify_catalog_tests_each_face_for_degeneracy_once(
    monkeypatch, suspension_points, torus_catalog
):
    # one test per 3-clique of the graph serves the reports' degenerate-face
    # violations and every pair the clique is in
    tested = []

    def spy(a, b, c):
        tested.append((a, b, c))
        return face_is_degenerate(a, b, c)

    monkeypatch.setattr(verify, "face_is_degenerate", spy)
    ints, _ = field_frame(suspension_points)
    cliques = [tuple(ints[v] for v in f) for f in enumerate_cliques3(torus_catalog.task.graph)]
    verify_catalog(suspension_points, torus_catalog)
    assert tested == cliques


def test_verify_catalog_predicate_calls(
    monkeypatch, suspension_points, schlegel16_points, rp2_points, moebius_points,
    torus_catalog, rp2_catalog, moebius_catalog, sweep_placements,
):
    # catalog pairs reach the module global pair_intersection_check as Point
    # triples with their shared index pairs, and on the report's and the
    # sweep's placements as often as
    # below: one call per orbit of admissible pairs and one per violating
    # pair.  A table that missed the copied verdicts would call it more
    # often and still give the same reports, so only the count shows it.
    calls = []

    def spy(t1, t2, shared=None):
        calls.append((t1, t2))
        assert shared == [(i, j) for i in range(3) for j in range(3) if t1[i] == t2[j]]
        return pair_intersection_check(t1, t2, shared)

    monkeypatch.setattr(verify, "pair_intersection_check", spy)
    counts = {}
    for name, points, catalog in (
        ("suspension", suspension_points, torus_catalog),
        ("schlegel16cell", schlegel16_points, torus_catalog),
        ("rp2-simplex", rp2_points, rp2_catalog),
        ("moebius", moebius_points, moebius_catalog),
        ("asymmetric", ASYMMETRIC_TORUS, torus_catalog),
        ("random-start", RANDOM_START_TORUS, torus_catalog),
        *((key, points, torus_catalog) for key, points in sweep_placements.items()),
    ):
        calls.clear()
        verify_catalog(points, catalog)
        for face in (t for pair in calls for t in pair):
            assert type(face) is tuple and len(face) == 3
            assert all(type(p) is Point for p in face)
        counts[name] = len(calls)
    # the sweep's 16-cell diagrams at k <= 3 and its suspensions embed no
    # torus, and each of their violating pairs is checked on its own
    sweep = {
        **{f"sixteen_cell:{k}": 67 for k in ("2", "5/2", "29/10", "30001/10007")},
        "sixteen_cell:3": 78,
        **{f"sixteen_cell:{k}": 33 for k in ("31/10", "7/2", "4", "6", "12345/3001")},
        **{f"suspension:{k}": 80 for k in ("5/2", "14/5", "4", "7", "9999/4001")},
    }
    assert sum(sweep.values()) == 911
    # on K_2,2,2,2 and K_5 every clique pair occurs in some triangulation;
    # on K_6 the 10 pairs of vertex-disjoint triangles occur in none, and on
    # rp2-simplex they are one admissible orbit: the seventh call.  With a
    # trivial group every one of the 496 pairs of K_2,2,2,2 is its own orbit
    assert counts == {
        "suspension": 80, "schlegel16cell": 33, "rp2-simplex": 7, "moebius": 5,
        "asymmetric": 496, "random-start": 496, **sweep,
    }


def test_verdicts_invariant_under_scaling(moebius_points, moebius_catalog):
    scaled = scale_placement(moebius_points, Fraction(7, 3))
    a = verify_catalog(moebius_points, moebius_catalog)
    b = verify_catalog(scaled, moebius_catalog)
    assert [r.verdict for r in a] == [r.verdict for r in b]


# -- the integer frame -----------------------------------------------------

def _violations(reports):
    return [(r.verdict, [(v.faces, v.kind) for v in r.violations]) for r in reports]


def _rotated_xy(points):
    """The placement turned exactly about the z-axis by the 3-4-5 rotation,
    which mixes the basis elements of the x and y axes."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    out = {}
    for label, p in points.items():
        x, y, z = p.coords
        out[label] = Point((c * x - s * y, s * x + c * y, z))
    return out


def test_mixed_axis_placement_is_refused(
    schlegel16_points, suspension_points, torus_catalog
):
    # the rotated 16-cell diagram and suspension mix sqrt2 and sqrt6 on the
    # x-axis, so they have no int frame: the catalog and a single pair of
    # them are refused, and the error names the axis
    for points in (schlegel16_points, suspension_points):
        rotated = _rotated_xy(points)
        with pytest.raises(ValueError, match="axis 0 mixes basis elements"):
            verify_catalog(rotated, torus_catalog)
        t1, t2 = (tuple(rotated[v] for v in face) for face in ("ABC", "EFG"))
        with pytest.raises(ValueError, match="axis 0 mixes basis elements"):
            pair_intersection_check(t1, t2)


def test_verify_catalog_refuses_a_placement_of_two_contexts(moebius_points, moebius_catalog):
    # every x-coordinate a multiple of sqrt5, and B's x-coordinate sqrt2 from
    # Q(sqrt2, sqrt3): sqrt2 and sqrt5 take the same numerator slot, so a
    # frame that read the numerators alone would take sqrt2 for sqrt5
    s5 = QuadExt(0, 1, ctx=CTX_SQRT5)
    points = {v: Point((p.coords[0] * s5, *p.coords[1:])) for v, p in moebius_points.items()}
    points["A"] = make_point(CTX_SQRT5, QuadExt(0, Fraction(1, 7), ctx=CTX_SQRT5), 0, 0)
    points["B"] = make_point(CTX, QuadExt(0, 1, ctx=CTX), 1, 1)
    with pytest.raises(ContextMismatchError):
        verify_catalog(points, moebius_catalog)
    with pytest.raises(ContextMismatchError):
        pair_intersection_check(*(tuple(points[v] for v in f) for f in ("ABC", "ADE")))


def test_per_axis_scaling_keeps_verdicts_and_kinds(
    suspension_points, moebius_points, torus_catalog, moebius_catalog
):
    factors = (Fraction(2, 7), Fraction(5, 3), Fraction(11, 4))
    for points, catalog in ((suspension_points, torus_catalog), (moebius_points, moebius_catalog)):
        scaled = {
            label: Point(tuple(c * f for c, f in zip(p.coords, factors)))
            for label, p in points.items()
        }
        assert _violations(verify_catalog(scaled, catalog)) == _violations(
            verify_catalog(points, catalog)
        )


def _affine_maps(seed, count):
    """``count`` exact rational affine maps x -> M x + b of R^3 with
    det M != 0, drawn from a seeded generator."""
    rng = random.Random(seed)
    maps = []
    while len(maps) < count:
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
        if _det3(m):
            maps.append((m, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]))
    return maps


def _apply(affine, p: Point) -> Point:
    m, b = affine
    return Point(tuple(sum(r * x for r, x in zip(row, p.coords)) + c for row, c in zip(m, b)))


def test_affine_maps_keep_a_whole_catalog(moebius_points, moebius_catalog):
    # E moved to (0, 1, 1) embeds none of the 12 Moebius triangulations;
    # an exact rational affine map with nonzero determinant keeps every
    # report's verdict, violating pairs and kinds, and maps every witness
    # that is a point of R^3 (not a coplanar pair's 2-D projection)
    points = dict(moebius_points, E=make_point(CTX_SQRT5, 0, 1, 1))
    base = verify_catalog(points, moebius_catalog)
    assert not any(r.embedded for r in base)
    kinds = {v.kind for r in base for v in r.violations}
    assert kinds == {"coplanar_overlap", "edge_through_face", "interior_crossing"}
    for affine in _affine_maps(20261018, 5):
        image = {v: _apply(affine, p) for v, p in points.items()}
        reports = verify_catalog(image, moebius_catalog)
        assert _violations(reports) == _violations(base)
        for r, r0 in zip(reports, base):
            for v, v0 in zip(r.violations, r0.violations):
                if v0.witness and v0.witness[0].dim == 3:
                    assert [w.coords for w in v.witness] == [
                        _apply(affine, w).coords for w in v0.witness
                    ], v.faces


def test_projective_maps_keep_every_verdict(torus_catalog):
    # a projective map x -> (A x + b) / (c . x + d) whose 4x4 matrix is
    # invertible and whose denominator c . x + d has one sign on the placed
    # points (the negated matrix gives the same map with positive ones) maps
    # each segment and face between them onto the segment or face between
    # the images, and keeps every coplanarity and incidence; so it keeps
    # every verdict, violating pair and kind, in order.  Witnesses move with
    # the map and are not compared.  Distinct small-int points of [-2, 2]^3
    # meet coplanar, collinear and touching pairs often.
    labels = torus_catalog.task.graph.vertices
    grid = list(product(range(-2, 3), repeat=3))
    rng = random.Random(20261029)
    kinds = set()
    for _ in range(80):
        raw = dict(zip(labels, rng.sample(grid, len(labels))))
        while True:
            m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            w = {v: sum(c * x for c, x in zip(m[3], (*p, 1))) for v, p in raw.items()}
            if _int_det(m) and (min(w.values()) > 0 or max(w.values()) < 0):
                break
        image = {
            v: pt(*(Fraction(sum(c * x for c, x in zip(row, (*p, 1))), w[v]) for row in m[:3]))
            for v, p in raw.items()
        }
        base = verify_catalog({v: pt(*p) for v, p in raw.items()}, torus_catalog)
        assert _violations(verify_catalog(image, torus_catalog)) == _violations(base), raw
        kinds |= {v.kind for r in base for v in r.violations}
    assert kinds == {"degenerate_face", "coplanar_overlap", "containment", "vertex_in_face",
                     "edge_through_face", "interior_crossing"}


def _in_hull(x: Point, pts) -> bool:
    """x in the closed convex hull of one to three affinely independent
    field points, decided by solve_linear and QuadExt.sign alone."""
    base, *rest = pts
    if not rest:
        return x.coords == base.coords
    matrix = [[(p - base).coords[i] for p in rest] for i in range(x.dim)]
    sol = solve_linear(matrix, list((x - base).coords))
    if sol.kind != "unique":
        return False
    weights = sol.particular
    return all(w.sign() >= 0 for w in weights) and (1 - sum(weights)).sign() >= 0


def _assert_witnesses_violate(t1, t2, v):
    """Every witness point of the violation ``v`` of the pair (t1, t2) lies
    in both closed faces and outside the hull of their shared vertices; a
    2-D coplanar witness in the plane_axes projection of t1."""
    shared = [p for p in t1 if any(p.coords == q.coords for q in t2)]
    assert v.witness
    for w in v.witness:
        faces = (t1, t2, shared)
        if w.dim != t1[0].dim:
            i, j = plane_axes((t1[1] - t1[0]).coords, (t1[2] - t1[0]).coords)
            faces = tuple([Point((p.coords[i], p.coords[j])) for p in f] for f in faces)
        a, b, hull = faces
        assert _in_hull(w, a) and _in_hull(w, b), (t1, t2, w)
        assert not hull or not _in_hull(w, hull), (t1, t2, w)


def test_violation_witnesses_lie_in_both_faces_outside_the_shared_hull(
    perfbench, suspension_points, torus_catalog
):
    # an independent check of every witness, decided in the field without
    # the predicate's code: the violations of the suspension placement,
    # mapped back from its int frame ...
    pairs = {}
    for r in verify_catalog(suspension_points, torus_catalog):
        for v in r.violations:
            pairs[v.faces] = v
    assert {v.kind for v in pairs.values()} >= {"containment", "interior_crossing"}
    for (a, b), v in pairs.items():
        t1, t2 = (tuple(suspension_points[x] for x in f) for f in (a, b))
        _assert_witnesses_violate(t1, t2, v)
        direct = pair_intersection_check(t1, t2)
        assert direct == PairVerdict((t1, t2), v.shared, v.verdict, v.kind, v.witness)

    # ... and the benchmark's degenerate pool: 280 cases, each in R^3,
    # lifted to R^4 and under an exact rational affine map, on QuadExt
    # coordinates of Q
    inputs = [
        pair for case in perfbench.workloads.degenerate_pool()
        for pair in perfbench.worker.case_points(case)
    ]
    assert len(inputs) == 840
    kinds = set()
    for t1, t2 in inputs:
        v = pair_intersection_check(t1, t2)
        assert v.faces == (t1, t2)
        if not v.admissible and v.kind != "degenerate_face":
            _assert_witnesses_violate(t1, t2, v)
            kinds.add(v.kind)
    assert kinds == {
        "coplanar_overlap", "containment", "interior_crossing", "edge_through_face", "vertex_in_face"
    }


def test_direct_calls_frame_only_pairs_of_one_context(monkeypatch, suspension_points):
    # points of two contexts are refused
    t1 = (pt(0, 0, 0), pt(4, 0, 0), pt(0, 4, 0))
    t2 = (pt(1, 1, -1, ctx=CTX), pt(1, 1, 1, ctx=CTX), pt(3, 3, 1, ctx=CTX))
    with pytest.raises(ContextMismatchError):
        pair_intersection_check(t1, t2)

    # a pair of one context is decided on its int frame; the same pair
    # turned so that its axes mix sqrt2 and sqrt6 has no frame and is refused
    seen = []

    def spy(t1, t2, *rest):
        seen.append({type(c) for p in t1 + t2 for c in p})
        return _pair_check(t1, t2, *rest)

    monkeypatch.setattr(verify, "_pair_check", spy)
    rotated = _rotated_xy(suspension_points)
    cases = [("CDF", "FGH"), ("BCD", "FGH"), ("ABC", "EFG"), ("ACD", "BGH")]
    verdicts = set()
    for a, b in cases:
        v = pair_intersection_check(*(tuple(suspension_points[x] for x in f) for f in (a, b)))
        assert seen.pop() == {int}
        verdicts.add(v.verdict)
        with pytest.raises(ValueError, match="mixes basis elements"):
            pair_intersection_check(*(tuple(rotated[x] for x in f) for f in (a, b)))
        assert not seen
    assert verdicts == {"admissible", "violation"}


def test_degenerate_pool_matches_the_benchmark_reference(perfbench):
    # the three (verdict, kind) results of every pool case, judged against
    # perfbench/references/degenerate.json as the degenerate workload does
    reference = perfbench.checks.load_degenerate_reference()
    pool = perfbench.workloads.degenerate_pool()
    assert len(pool) == len(reference) == 280
    for case in pool:
        results = [
            (v.verdict, v.kind)
            for v in (pair_intersection_check(t1, t2) for t1, t2 in perfbench.worker.case_points(case))
        ]
        assert perfbench.checks.degenerate_status(results, reference[case["id"]]) == "ok", case["id"]


def test_sweep_certificates_match_the_benchmark_reference(
    perfbench, sweep_placements, torus_catalog
):
    # every verdict, kind and exact witness of the 15 sweep placements, as
    # recorded in perfbench/references/sweep.json
    reference = perfbench.checks.load_sweep_reference()
    assert sorted(sweep_placements) == sorted(reference)
    for key, points in sweep_placements.items():
        reports = verify_catalog(points, torus_catalog)
        certificate = perfbench.worker.certificate(reports, torus_catalog)
        assert perfbench.checks.digest(certificate) == reference[key]["digest"], key


# -- the isometry group and the orbit table -------------------------------

def _image(g, face):
    """The face relabeled by the permutation ``g``, in canonical order."""
    return tuple(sorted(g[v] for v in face))


def _pair_orbits(group, catalog):
    """The orbits of the catalog's co-occurring clique pairs under ``group``."""
    pairs = {p for tri in catalog.triangulations for p in combinations(tri.faces, 2)}
    return {
        frozenset(tuple(sorted((_image(g, a), _image(g, b)))) for g in group)
        for a, b in pairs
    }


def test_isometry_group_orders_and_pair_orbits(
    suspension_points, schlegel16_points, rp2_points, moebius_points,
    torus_catalog, rp2_catalog, moebius_catalog,
):
    for points, catalog, order, n_orbits in (
        (suspension_points, torus_catalog, 12, 60),
        (schlegel16_points, torus_catalog, 24, 33),
        (rp2_points, rp2_catalog, 120, 6),
        (moebius_points, moebius_catalog, 24, 5),
    ):
        labels = catalog.task.graph.vertices
        group = field_isometry_group(labels, points)
        assert len(group) == order
        assert group[0] == {v: v for v in labels}
        # the int frame's weighted distances give the same group, in the
        # same order
        assert isometry_group(labels, points) == group
        assert len(_pair_orbits(group, catalog)) == n_orbits


def _field_witness(witness, t1, scales):
    """A homogeneous witness on the int frame, points (x, w) with int
    numerators x over w > 0, as points of the field, by QuadExt arithmetic:
    scales[i] * Fraction(x_i, w) on axis i, where a 2-D witness lies in the
    ``plane_axes`` projection of the int face ``t1``."""
    axes = range(len(scales))
    if witness and len(witness[0][0]) != len(scales):
        axes = plane_axes(*(tuple(x - y for x, y in zip(p, t1[0])) for p in t1[1:]))
    return tuple(
        Point(tuple(scales[i] * Fraction(c, w) for i, c in zip(axes, x))) for x, w in witness
    )


def test_suspension_witnesses_equal_the_field_oracle(suspension_points, torus_catalog):
    # the suspension at k = 14/5 frames on the irrational scales
    # (sqrt2 / 14, sqrt6 / 14, 2 sqrt2) of Q(sqrt2, sqrt3); its violations
    # include interior crossings and containments with 2-D witnesses, and
    # every witness verify_catalog builds is the predicate's homogeneous
    # witness read through QuadExt arithmetic
    points, scales = field_frame(suspension_points)
    assert all(s.ctx == CTX and not s.a for s in scales)
    found = set()
    for r in verify_catalog(suspension_points, torus_catalog):
        for v in r.violations:
            ta, tb = (tuple(points[x] for x in f) for f in v.faces)
            expected = _pair_check(ta, tb, None, (ta, tb))
            assert (v.shared, v.kind) == (expected.shared, expected.kind)
            assert v.witness == _field_witness(expected.witness, ta, scales)
            found.add((v.kind, v.witness[0].dim))
    assert {("interior_crossing", 3), ("containment", 2)} <= found
    # a face against itself shares all three vertices, and its witness maps
    # back to its own points
    t = tuple(suspension_points[x] for x in "CDF")
    v = pair_intersection_check(t, t)
    assert (v.shared, v.kind, v.witness) == (3, "coplanar_overlap", t)


def test_pairs_and_placements_of_mixed_dimension_are_refused(moebius_points, moebius_catalog):
    # a face of R^3 and one of R^4: framing only their first three axes
    # would put the vertex (1, 1, 0, 5) on the first face
    raw1, raw2 = ((0, 0, 0), (4, 0, 0), (0, 4, 0)), ((1, 1, 0, 5), (1, 1, 1, 1), (3, 3, 1, 0))
    # on QuadExt points and on int Points, the frame verify_catalog passes,
    # in both orders
    for place in (lambda p: pt(*p), Point):
        t1, t2 = (tuple(map(place, t)) for t in (raw1, raw2))
        for pair in ((t1, t2), (t2, t1)):
            with pytest.raises(ValueError, match=r"dimensions \[3, 4\]"):
                pair_intersection_check(*pair)
    # E at (0, 0, 0, 1) would frame as A = (0, 0, 0) and be refused as an
    # equal point
    placement = dict(moebius_points, E=make_point(CTX_SQRT5, 0, 0, 0, 1))
    with pytest.raises(ValueError, match=r"dimensions \[3, 4\]"):
        verify_catalog(placement, moebius_catalog)


def test_pairs_below_r3_are_refused_and_r5_shared_edges_are_decided():
    # a pair of R^2 is refused before the shared-edge test; two faces of R^5
    # on a common edge span a 3-flat, and meet only in that edge
    a, b, c, d = (0, 0), (4, 0), (0, 4), (1, -3)
    for t2 in ((a, b, d), (a, c, d)):
        with pytest.raises(ValueError, match="unsupported dimension 2"):
            pair_intersection_check(tuple(pt(*p) for p in (a, b, c)), tuple(pt(*p) for p in t2))
    a, b, c, d = (0, 0, 0, 0, 0), (4, 0, 0, 0, 0), (0, 4, 0, 0, 0), (1, 1, 3, 0, 0)
    for t2 in ((a, b, d), (a, c, d)):
        v = pair_intersection_check(tuple(pt(*p) for p in (a, b, c)), tuple(pt(*p) for p in t2))
        assert (v.verdict, v.shared) == ("admissible", 2)


def _full_table_reports(points, catalog):
    """verify_catalog's reports from the full table, by brute force: the
    predicate on every co-occurring clique pair, on the placement's int
    frame, with each witness mapped back."""
    points, scales = field_frame(points)
    table = {}
    for tri in catalog.triangulations:
        for a, b in combinations(tri.faces, 2):
            shared = [(j, k) for j, u in enumerate(a) for k, w in enumerate(b) if u == w]
            ta, tb = tuple(points[x] for x in a), tuple(points[x] for x in b)
            if face_is_degenerate(*ta) or face_is_degenerate(*tb):
                table[a, b] = PairVerdict((a, b), 0, "violation", "degenerate_face")
            else:
                v = _pair_check(ta, tb, shared, (ta, tb))
                witness = _field_witness(v.witness, ta, scales)
                table[a, b] = PairVerdict((a, b), v.shared, v.verdict, v.kind, witness)
    reports = []
    for tri in catalog.triangulations:
        violations = [
            PairVerdict((f, f), 3, "violation", "degenerate_face")
            for f in tri.faces
            if face_is_degenerate(*(points[x] for x in f))
        ]
        violations += [
            PairVerdict((a, b), v.shared, v.verdict, v.kind, v.witness)
            for a, b in combinations(tri.faces, 2)
            if not (v := table[a, b]).admissible
        ]
        reports.append(EmbeddingReport(violations))
    return reports


def test_orbit_table_equals_the_full_table(
    suspension_points, schlegel16_points, rp2_points, moebius_points,
    torus_catalog, rp2_catalog, moebius_catalog,
):
    # verdicts, kinds and exact witnesses of every report, on placements with
    # large, small and trivial isometry groups, with and without degenerate
    # faces

    # A moved by (sqrt2 / 9, sqrt6 / 13, 0) keeps the int frame and breaks
    # every symmetry
    nudge = make_point(
        CTX, QuadExt(0, Fraction(1, 9), ctx=CTX), QuadExt(0, 0, 0, Fraction(1, 13), ctx=CTX), 0
    )
    perturbed = dict(suspension_points, A=add(suspension_points["A"], nudge))
    # the unit cube with the missing matching on its vertical edges: 32 of
    # its 48 symmetries swap vertical and horizontal edges, so they are no
    # automorphisms of K_2,2,2,2 and map some cliques to non-cliques, which
    # the table sends to its sink index
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    cube = {
        v: pt(x, y, z) for z, vs in enumerate(("ABCD", "EFGH")) for v, (x, y) in zip(vs, square)
    }
    cases = (
        (suspension_points, torus_catalog, 12),
        (schlegel16_points, torus_catalog, 24),
        (rp2_points, rp2_catalog, 120),
        (moebius_points, moebius_catalog, 24),
        (construction_coords("std_hyperoctahedron"), torus_catalog, 384),
        (scale_placement(suspension_points, Fraction(7, 3)), torus_catalog, 12),
        (dict(moebius_points, E=scale(moebius_points["B"], 2)), moebius_catalog, 2),
        (perturbed, torus_catalog, 1),
        (cube, torus_catalog, 48),
        (ASYMMETRIC_TORUS, torus_catalog, 1),
        (RANDOM_START_TORUS, torus_catalog, 1),
        # the faces of each triangulation relabelled by an automorphism of
        # the graph, so no longer in sorted order: a report keeps the order
        # of its triangulation's face pairs
        (perturbed, _relabelled(torus_catalog, 31), 1),
        (moebius_points, _relabelled(moebius_catalog, 32), 24),
    )
    for points, catalog, order in cases:
        assert len(field_isometry_group(catalog.task.graph.vertices, points)) == order
    # verify_catalog keeps what depends only on the graph and the equality
    # pattern of the squared distances; the reversed pass reuses each
    # pattern's entry after those of the others
    for points, catalog, _ in cases + cases[::-1]:
        assert verify_catalog(points, catalog) == _full_table_reports(points, catalog)
    for points in (ASYMMETRIC_TORUS, RANDOM_START_TORUS):
        embedded = [i for i, r in enumerate(_full_table_reports(points, torus_catalog))
                    if r.embedded]
        assert embedded == [0]


def _relabelled(catalog, seed):
    """The catalog with each triangulation's faces relabelled, in their
    order, by one seeded automorphism of its graph."""
    (g,) = _automorphisms(catalog.task.graph, seed, 1)
    triangulations = [Triangulation(t.graph, tuple(_image(g, f) for f in t.faces))
                      for t in catalog.triangulations]
    assert any(list(t.faces) != sorted(t.faces) for t in triangulations)
    return Catalog(catalog.task, triangulations, catalog.rejected)


def _catalog_orbits(group, catalog):
    """The orbits of ``group`` on the catalog's triangulations, as sets of
    ids; an element that maps a triangulation to a face set outside the
    catalog is no automorphism of the graph, and is left out."""
    index = {frozenset(t.faces): i for i, t in enumerate(catalog.triangulations)}
    orbits = set()
    for tri in catalog.triangulations:
        images = (frozenset(_image(g, f) for f in tri.faces) for g in group)
        orbits.add(frozenset(index[x] for x in images if x in index))
    return orbits


def test_embedded_sets_are_unions_of_isometry_orbits(
    suspension_points, schlegel16_points, rp2_points, moebius_points,
    torus_catalog, rp2_catalog, moebius_catalog, sweep_placements,
):
    # an isometry of the placement maps an embedded triangulation to an
    # embedded one, so every embedded set, taken from the full table with
    # no group, is a union of orbits of isometry_group on the catalog.  On
    # the suspension the group has order 12 at every k of the sweep, and
    # its two orbits split the tori into the 6 that embed and the 6 that
    # do not: so no suspension embeds exactly one torus (test_04a).  The two
    # asymmetric placements have the trivial group, whose orbits are single
    # tori, and embed torus 0 alone
    suspension_orbits = {frozenset({0, 1, 2, 4, 6, 8}), frozenset({3, 5, 7, 9, 10, 11})}
    for name, points, catalog in (
        ("suspension", suspension_points, torus_catalog),
        ("schlegel16cell", schlegel16_points, torus_catalog),
        ("rp2-simplex", rp2_points, rp2_catalog),
        ("moebius", moebius_points, moebius_catalog),
        ("asymmetric", ASYMMETRIC_TORUS, torus_catalog),
        ("random-start", RANDOM_START_TORUS, torus_catalog),
        *((key, points, torus_catalog) for key, points in sweep_placements.items()),
    ):
        group = isometry_group(catalog.task.graph.vertices, points)
        orbits = _catalog_orbits(group, catalog)
        assert sorted(i for o in orbits for i in o) == list(range(12)), name
        reports = _full_table_reports(points, catalog)
        embedded = {i for i, r in enumerate(reports) if r.embedded}
        assert all(o <= embedded or not o & embedded for o in orbits), name
        if name.startswith("suspension"):
            assert len(group) == 12, name
            assert orbits == suspension_orbits, name
            assert embedded == {0, 1, 2, 4, 6, 8}, name
        if name in ("asymmetric", "random-start"):
            assert len(group) == 1, name
            assert embedded == {0}, name


def _automorphisms(graph, seed, count):
    """``count`` seeded label permutations that keep the graph's edge set,
    drawn uniformly by rejection."""
    rng = random.Random(seed)
    labels = list(graph.vertices)
    found = []
    while len(found) < count:
        g = dict(zip(labels, rng.sample(labels, len(labels))))
        if all(frozenset(g[v] for v in e) in graph.edges for e in graph.edges):
            found.append(g)
    return found


def test_relabelling_the_placement_and_the_catalog_keeps_every_verdict(
    suspension_points, schlegel16_points, rp2_points, moebius_points,
    torus_catalog, rp2_catalog, moebius_catalog,
):
    # a graph automorphism pi puts the point of v at pi(v); the triangulation
    # with faces pi(T) then has T's verdict and the images of T's violating
    # pairs, and a violating pair whose face order pi keeps has the same
    # kind, shared count and witness points (their order may follow the
    # vertex order); the automorphisms of K_2,2,2,2 keep its missing
    # matching, those of K_6 and K_5 are all permutations.  Besides the
    # default placements, the 16-cell diagram at k = 2999/1000 and the
    # Moebius placement with E at (0, 1, 1) embed no triangulation.
    cases = (
        (suspension_points, torus_catalog),
        (schlegel16_points, torus_catalog),
        (rp2_points, rp2_catalog),
        (moebius_points, moebius_catalog),
        (sixteen_cell_diagram(Fraction(2999, 1000)), torus_catalog),
        (dict(moebius_points, E=make_point(CTX_SQRT5, 0, 1, 1)), moebius_catalog),
    )
    for seed, (points, catalog) in enumerate(cases):
        labels = catalog.task.graph.vertices
        perms = _automorphisms(catalog.task.graph, seed, 3)
        assert any(g not in isometry_group(labels, points) for g in perms)
        index = {frozenset(t.faces): i for i, t in enumerate(catalog.triangulations)}
        base = verify_catalog(points, catalog)
        for g in perms:
            reports = verify_catalog({g[v]: p for v, p in points.items()}, catalog)
            for tri, r in zip(catalog.triangulations, base):
                image = reports[index[frozenset(_image(g, f) for f in tri.faces)]]
                assert image.verdict == r.verdict
                by_faces = {v.faces: v for v in image.violations}
                assert len(by_faces) == len(r.violations)
                for v in r.violations:
                    a, b = (_image(g, f) for f in v.faces)
                    w = by_faces[min(a, b), max(a, b)]
                    if a <= b:
                        assert (w.kind, w.shared) == (v.kind, v.shared), v.faces
                        assert {p.coords for p in w.witness} == {p.coords for p in v.witness}


# -- independent oracle: Cramer-rule segment/triangle tests ----------------

def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _seg_hits_tri(p, q, a, b, c):
    """Closed segment [p,q] vs closed triangle abc in R^3 over Fractions.
    Returns True/False, or None when the segment is parallel to the plane
    (the caller skips those configurations)."""
    e1 = tuple(b[i] - a[i] for i in range(3))
    e2 = tuple(c[i] - a[i] for i in range(3))
    d = tuple(p[i] - q[i] for i in range(3))
    rhs = tuple(p[i] - a[i] for i in range(3))
    m = [[e1[i], e2[i], d[i]] for i in range(3)]
    det = _det3(m)
    if det == 0:
        return None
    sols = []
    for col in range(3):
        mm = [row[:] for row in m]
        for i in range(3):
            mm[i][col] = rhs[i]
        sols.append(Fraction(_det3(mm), det))
    u, v, t = sols
    return 0 <= u and 0 <= v and u + v <= 1 and 0 <= t <= 1


def _oracle_triangles_intersect(t1, t2):
    """None when any edge is parallel to the other triangle's plane."""
    verdicts = []
    for (tri_a, tri_b) in ((t1, t2), (t2, t1)):
        a, b, c = tri_b
        for p, q in combinations(tri_a, 2):
            r = _seg_hits_tri(p, q, a, b, c)
            if r is None:
                return None
            verdicts.append(r)
    return any(verdicts)


def test_exact_checker_agrees_with_cramer_oracle():
    rng = random.Random(20240812)
    checked = 0
    trials = 0
    while checked < 1000 and trials < 4000:
        trials += 1
        raw1 = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3)]
        raw2 = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3)]
        if len({*raw1, *raw2}) < 6:
            continue
        t1 = tuple(pt(*r) for r in raw1)
        t2 = tuple(pt(*r) for r in raw2)
        if face_is_degenerate(*raw1) or face_is_degenerate(*raw2):
            continue
        oracle = _oracle_triangles_intersect(raw1, raw2)
        if oracle is None:
            continue
        exact = pair_intersection_check(t1, t2, shared=[])
        assert exact.admissible == (not oracle), (raw1, raw2)
        checked += 1
    assert checked == 1000


# -- dimension 4 cross-checks ----------------------------------------------

def test_r4_admissible_pairs_have_no_sampled_overlap(rp2_points, rp2_catalog):
    # every face pair of an RP^2 triangulation of K6 shares a vertex, so the
    # vertex-disjoint pairs come from the clique set: a 3-clique and its
    # complement, 10 pairs
    cliques = enumerate_cliques3(rp2_catalog.task.graph)
    pairs = [(f1, f2) for f1, f2 in combinations(cliques, 2) if not set(f1) & set(f2)]
    assert len(pairs) == 10
    grid = [
        (Fraction(i, 5), Fraction(j, 5))
        for i in range(1, 5)
        for j in range(1, 5 - i)
    ]
    for f1, f2 in pairs:
        t1 = tuple(rp2_points[v] for v in f1)
        t2 = tuple(rp2_points[v] for v in f2)
        verdict = pair_intersection_check(t1, t2)
        assert verdict.admissible, (f1, f2)
        a, b, c = t1
        for s, t in grid:
            x = add(a, add(scale(b - a, s), scale(c - a, t)))
            assert not _in_hull(x, t2), (f1, f2, s, t)


def test_r4_transverse_and_parallel_planes():
    # t1 spans the xy-plane around the origin; planes of R^4 in general
    # position meet in one point, parallel ones not at all
    t1 = (pt(-1, -1, 0, 0), pt(2, -1, 0, 0), pt(-1, 2, 0, 0))
    crossing = (pt(0, 0, -1, -1), pt(0, 0, 2, -1), pt(0, 0, -1, 2))
    v = pair_intersection_check(t1, crossing)
    assert (v.verdict, v.kind) == ("violation", "interior_crossing")
    assert [w.coords for w in v.witness] == [pt(0, 0, 0, 0).coords]
    touching = (pt(0, 0, 0, 0), pt(0, 0, 1, 0), pt(0, 0, 0, 1))
    v = pair_intersection_check(t1, touching)
    assert (v.verdict, v.kind) == ("violation", "vertex_in_face")
    parallel = tuple(add(p, pt(0, 0, 0, 1)) for p in t1)
    assert pair_intersection_check(t1, parallel).admissible
    # skew planes, together spanning R^4: the xy-plane and a plane along x
    # and z at w = 1 never meet
    skew = (pt(0, 0, 0, 1), pt(1, 0, 0, 1), pt(0, 0, 1, 1))
    assert pair_intersection_check(t1, skew).admissible
    # planes meeting in one point, the origin, outside T2
    outside = (pt(0, 0, 1, 1), pt(0, 0, 2, 1), pt(0, 0, 1, 2))
    assert pair_intersection_check(t1, outside).admissible
    # a shared vertex in general position: the planes meet only there
    sharing = (t1[0], pt(0, 0, 1, 0), pt(0, -2, 0, 1))
    v = pair_intersection_check(t1, sharing)
    assert (v.verdict, v.shared) == ("admissible", 1)


def _unique_meeting_reference(t1, t2):
    """(verdict, kind) of two faces of R^4 whose planes meet in one point,
    from the solution of s u1 + t u2 - a w1 - b w2 = q0 - p0 by solve_linear:
    a violation iff (s, t) and (a, b) are barycentric weights in the two
    faces and the point is no shared vertex; None when the planes do not
    meet in one point."""
    p0, p1, p2 = t1
    q0, q1, q2 = t2
    vecs = [(x - y).coords for x, y in ((p1, p0), (p2, p0), (q1, q0), (q2, q0))]
    matrix = [[a, b, -c, -d] for a, b, c, d in zip(*vecs)]
    sol = solve_linear(matrix, list((q0 - p0).coords))
    if sol.kind != "unique":
        return None
    s, t, a, b = sol.particular
    if min(w.sign() for w in (s, t, 1 - s - t, a, b, 1 - a - b)) < 0:
        return "admissible", None
    x = add(p0, add(scale(p1 - p0, s), scale(p2 - p0, t))).coords
    if any(x == p.coords == q.coords for p in t1 for q in t2):
        return "admissible", None
    if any(x == p.coords for p in t1 + t2):
        return "violation", "vertex_in_face"
    return "violation", "interior_crossing"


def test_r4_pairs_in_general_position_match_the_unique_solution_rule():
    # seeded small-int pairs of R^4, a third of them on a shared vertex,
    # whose planes meet in exactly one point
    rng = random.Random(20261019)
    kinds = []
    while len(kinds) < 600:
        raw = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(6)]
        if len(kinds) % 3 == 0:
            raw[3] = raw[rng.randrange(3)]
        if len(set(raw)) < 5 or face_is_degenerate(*raw[:3]) or face_is_degenerate(*raw[3:]):
            continue
        t1, t2 = tuple(pt(*p) for p in raw[:3]), tuple(pt(*p) for p in raw[3:])
        expected = _unique_meeting_reference(t1, t2)
        if expected is None:
            continue
        v = pair_intersection_check(t1, t2)
        assert (v.verdict, v.kind) == expected, raw
        if not v.admissible:
            _assert_witnesses_violate(t1, t2, v)
        kinds.append(v.kind)
    assert set(kinds) == {None, "interior_crossing", "vertex_in_face"}


# -- lifting R^3 to R^4 ----------------------------------------------------

# an exact injective rational linear map R^3 -> R^4 (rank 3)
_LIFT = (
    (1, 2, 0),
    (0, 1, -1),
    (Fraction(1, 2), 0, 3),
    (2, -1, Fraction(1, 3)),
)


def _touching_pairs(seed, count):
    """``count`` seeded pairs of nondegenerate small-int triangles of R^3 on
    at least four distinct points, most of them touching: a vertex of T2
    on T1's plane, an edge of T2 through a vertex or an edge midpoint of
    T1, a shared vertex or edge, or T2 in T1's plane; the rest at random."""
    rng = random.Random(seed)

    def point(r):
        return tuple(rng.randint(-r, r) for _ in range(3))

    def on_plane(t):
        s, u = rng.randint(-1, 2), rng.randint(-1, 2)
        return tuple(a + s * (b - a) + u * (c - a) for a, b, c in zip(*t))

    pairs = []
    while len(pairs) < count:
        # even coordinates put T1's edge midpoints on the int lattice
        t1 = tuple(tuple(2 * c for c in point(3)) for _ in range(3))
        case = rng.randrange(6)
        if case == 0:
            t2 = [on_plane(t1), point(6), point(6)]
        elif case == 1:
            p, q = rng.sample(t1, 2)
            m = rng.choice([p, tuple((a + b) // 2 for a, b in zip(p, q))])
            d = point(2)
            t2 = [tuple(a + b for a, b in zip(m, d)), tuple(a - b for a, b in zip(m, d)), point(6)]
        elif case == 2:
            t2 = [rng.choice(t1), point(6), on_plane(t1) if rng.random() < 0.5 else point(6)]
        elif case == 3:
            t2 = [*rng.sample(t1, 2), on_plane(t1) if rng.random() < 0.5 else point(6)]
        elif case == 4:
            t2 = [on_plane(t1) for _ in range(3)]
        else:
            t2 = [point(6) for _ in range(3)]
        rng.shuffle(t2)
        # two faces on one vertex set are no pair of a triangulation
        distinct = len({*t1, *t2}) > 3
        if distinct and not face_is_degenerate(*t1) and not face_is_degenerate(*t2):
            pairs.append((t1, tuple(t2)))
    return pairs


def _axis_lift(k, c):
    """The lift of R^3 into the coordinate 3-flat x_k = c of R^4."""
    def lift(p):
        return (*p[:k], c, *p[k:])
    return lift


# the lift (x, y, z, 0) and a constant at every other axis: each keeps a
# pair in a coordinate 3-flat, which the R^4 predicate hands to the R^3
# body with that axis dropped
_AXIS_LIFTS = (
    _axis_lift(3, 0), _axis_lift(0, 2), _axis_lift(1, -1), _axis_lift(2, 0), _axis_lift(3, 5),
)


# an injective int linear map R^3 -> R^5 (rank 3): the R^5 predicate finds
# each pair's rank by elimination and decides it on three pivot coordinates
_LIFT5 = (
    (1, 0, 2),
    (0, 1, -1),
    (2, -1, 0),
    (-1, 3, 1),
    (0, 2, 5),
)


def _matrix_lift(matrix):
    def lift(p):
        return tuple(sum(Fraction(m) * x for m, x in zip(row, p)) for row in matrix)
    return lift


_linear_lift = _matrix_lift(_LIFT)
_r5_lift = _matrix_lift(_LIFT5)
_LIFTS = (*_AXIS_LIFTS, _linear_lift, _r5_lift)


def test_r3_verdicts_and_witnesses_on_touching_pairs_agree_with_the_r4_lift():
    # the cases the Cramer oracle skips: each R^3 verdict, kind and shared
    # count equals that of the pair lifted to R^4 by every axis lift and by
    # _LIFT, and to R^5 by _LIFT5; each lift's witnesses are the lifted R^3
    # witnesses in the same order, and on the coplanar kinds, whose
    # witnesses are 2-D, each axis lift's witnesses are the R^3 witnesses;
    # and each violation's witnesses lie in both closed faces, outside the
    # shared hull
    kinds = set()
    for raw1, raw2 in _touching_pairs(20261018, 2000):
        t1, t2 = (tuple(pt(*p) for p in t) for t in (raw1, raw2))
        v = pair_intersection_check(t1, t2)
        kinds.add(v.kind)
        if not v.admissible:
            _assert_witnesses_violate(t1, t2, v)
        expected = (v.verdict, v.kind, v.shared)
        for lift in _LIFTS:
            lifted = pair_intersection_check(
                *(tuple(pt(*lift(p)) for p in t) for t in (raw1, raw2))
            )
            assert (lifted.verdict, lifted.kind, lifted.shared) == expected, (raw1, raw2)
            _assert_lifted_witnesses(v, lifted, lift, (raw1, raw2))
    assert kinds == {
        None, "coplanar_overlap", "containment", "interior_crossing",
        "edge_through_face", "vertex_in_face",
    }


def _assert_lifted_witnesses(r3, lifted, lift, case):
    if r3.kind not in ("coplanar_overlap", "containment"):
        assert [w.coords for w in lifted.witness] == [lift(w.coords) for w in r3.witness], case
    elif lift in _AXIS_LIFTS:
        assert lifted.witness == r3.witness, case


def test_r4_lift_agrees_with_r3_on_degenerate_pairs(perfbench):
    # every lift keeps every pair inside a 3-flat of R^4 or R^5, which the
    # predicate hands to the R^3 body: each lift must give the R^3 verdict,
    # kind and witnesses, as in the touching-pairs test above
    def check(tri_pair, lift):
        t1, t2 = (tuple(pt(*lift(p)) for p in t) for t in tri_pair)
        return pair_intersection_check(t1, t2)

    # the benchmark's fixed pool of degenerate R^3 face pairs (coplanar,
    # collinear, touching, shared vertex/edge)
    pool = perfbench.workloads.degenerate_pool()
    assert len(pool) == 280
    for case in pool:
        r3 = check(case["r3"], tuple)
        expected = (r3.verdict, r3.kind, r3.shared)
        for lift in _LIFTS:
            lifted = check(case["r3"], lift)
            assert (lifted.verdict, lifted.kind, lifted.shared) == expected, case["id"]
            _assert_lifted_witnesses(r3, lifted, lift, case["id"])


def test_pairs_in_a_coordinate_3_flat_take_no_r4_determinant(monkeypatch, perfbench):
    # a pair whose six points vary on three coordinates at most goes to the
    # R^3 body without an elimination; the linear lift keeps most pairs out
    # of coordinate 3-flats, and those take one
    calls = {"_pivots": 0, "_check_dim3": 0}

    def spy(name):
        f = getattr(verify, name)

        def counted(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(verify, name, counted)

    spy("_pivots")
    spy("_check_dim3")
    pool = perfbench.workloads.degenerate_pool()
    for lift in _AXIS_LIFTS:
        for case in pool:
            pair_intersection_check(*(tuple(pt(*lift(p)) for p in t) for t in case["r3"]))
    assert calls == {"_pivots": 0, "_check_dim3": len(_AXIS_LIFTS) * len(pool)}
    for case in pool:
        pair_intersection_check(*(tuple(pt(*_linear_lift(p)) for p in t) for t in case["r3"]))
    assert calls["_pivots"]


# -- theorem oracles: polytopes and van Kampen-Flores ----------------------

def _simplex5():
    """The standard 5-simplex: K6 at 0, e1, ..., e5 of R^5."""
    units = [tuple(int(i == k) for i in range(5)) for k in range(5)]
    return dict(zip(("A", "B", "C", "D", "E", "O"), (pt(0, 0, 0, 0, 0), *(pt(*u) for u in units))))


def test_every_clique_pair_is_admissible_on_the_papers_polytopes(torus_catalog, rp2_catalog):
    # the boundary complex of a polytope, and a Schlegel diagram of it, is a
    # polyhedral complex (Ziegler, Lectures on Polytopes, 5.2): two of its
    # triangles meet in a common face; every 3-clique of K2222 is a triangle
    # of the 16-cell, and every 3-clique of K6 one of the 5-simplex
    placements = [
        (construction_coords("std_hyperoctahedron"), torus_catalog, 496),
        (_simplex5(), rp2_catalog, 190),
        *((sixteen_cell_diagram(Fraction(k)), torus_catalog, 496) for k in ("31/10", "4", "5")),
    ]
    for points, catalog, count in placements:
        pairs = list(combinations(enumerate_cliques3(catalog.task.graph), 2))
        assert len(pairs) == count
        for f1, f2 in pairs:
            v = pair_intersection_check(*(tuple(map(points.__getitem__, f)) for f in (f1, f2)))
            assert v.admissible, (f1, f2, v.kind)
    # so the paper's 12 RP^2 all embed on the 5-simplex
    reports = verify_catalog(_simplex5(), rp2_catalog)
    assert len(reports) == 12
    assert all(r.embedded for r in reports)


def _int_det(m):
    """The determinant of a small square int matrix, by Laplace expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _int_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def test_van_kampen_flores_parity_on_generic_placements_of_seven_points():
    # the 2-skeleton of the 6-simplex does not embed in R^4 (van Kampen 1932,
    # Flores 1933): when every 5 of 7 points of R^4 are affinely independent,
    # two disjoint triangles on them meet in at most one point, interior to
    # both, and an odd number of the 70 disjoint pairs meet
    pairs = [
        (f1, f2) for f1, f2 in combinations(combinations(range(7), 3), 2) if not set(f1) & set(f2)
    ]
    assert len(pairs) == 70
    rng = random.Random(20261026)
    placed = 0
    while placed < 100:
        raw = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(7)]
        if not all(_int_det([[a - b for a, b in zip(q, five[0])] for q in five[1:]])
                   for five in combinations(raw, 5)):
            continue
        points = [Point(p) for p in raw]
        meeting = 0
        for f1, f2 in pairs:
            v = pair_intersection_check(*(tuple(points[i] for i in f) for f in (f1, f2)))
            if not v.admissible:
                assert v.kind == "interior_crossing", (raw, f1, f2)
                meeting += 1
        assert meeting % 2 == 1, raw
        placed += 1


# -- theorem oracles: K6 in R^3 --------------------------------------------

def _k6_placements_in_r3(labels, seed, count):
    """``count`` seeded int placements of K6's labels in [-4, 4]^3, no two
    labels on one point, as (int coordinates, QQ points)."""
    rng = random.Random(seed)
    while count:
        raw = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in labels]
        if len(set(raw)) < len(raw):
            continue
        count -= 1
        yield dict(zip(labels, raw)), {v: pt(*p) for v, p in zip(labels, raw)}


def _collinear(a, b, c) -> bool:
    """Whether three int points of R^3 are collinear: (b - a) x (c - a) = 0."""
    u, w = [q - p for p, q in zip(a, b)], [q - p for p, q in zip(a, c)]
    return u[1] * w[2] == u[2] * w[1] and u[2] * w[0] == u[0] * w[2] and u[0] * w[1] == u[1] * w[0]


def test_no_projective_plane_embeds_in_r3(rp2_catalog, rp2_points):
    # a closed non-orientable surface does not embed in R^3, so no RP^2 of
    # the k6 catalog embeds on any placement of K6 in R^3, degenerate or not
    for _, points in _k6_placements_in_r3(rp2_catalog.task.graph.vertices, 20261020, 200):
        reports = verify_catalog(points, rp2_catalog)
        assert len(reports) == 12
        assert not any(r.embedded for r in reports), points
    # nor on a projection of rp2-simplex to R^3 that keeps its labels apart
    for axis in range(3):
        reports = verify_catalog(orthogonal_project(rp2_points, axis), rp2_catalog)
        assert len(reports) == 12 and not any(r.embedded for r in reports), axis
    # dropping the last axis puts A on O
    with pytest.raises(ValueError, match="equal points"):
        verify_catalog(orthogonal_project(rp2_points, 3), rp2_catalog)


def _orient(a, b, c, d) -> int:
    """orient3d of four int points of R^3: the sign of det(b - a, c - a, d - a)."""
    (u1, u2, u3), (v1, v2, v3), (w1, w2, w3) = ([x - y for x, y in zip(p, a)] for p in (b, c, d))
    det = u1 * (v2 * w3 - v3 * w2) - u2 * (v1 * w3 - v3 * w1) + u3 * (v1 * w2 - v2 * w1)
    return (det > 0) - (det < 0)


def test_conway_gordon_sachs_parity_on_generic_k6_placements_in_r3():
    # on six points of R^3 with no four coplanar, an odd number of the 10
    # vertex-disjoint triangle pairs of K6 have odd linking number (Conway &
    # Gordon 1983, Sachs 1983).  A pair is linked mod 2 when an odd number of
    # one triangle's edges cross the other's open face: edge pq crosses face
    # abc iff p and q lie on opposite sides of its plane and pq turns the
    # same way around each of its edges, all by orient3d on ints.  A linked
    # pair meets, so the predicate finds a violation.
    pairs = [
        (f1, f2) for f1, f2 in combinations(combinations(range(6), 3), 2) if not set(f1) & set(f2)
    ]
    assert len(pairs) == 10
    rng = random.Random(20261030)
    placed = 0
    while placed < 200:
        raw = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(6)]
        if not all(_orient(*four) for four in combinations(raw, 4)):
            continue
        linked = 0
        for f1, f2 in pairs:
            a, b, c = (raw[i] for i in f2)
            crossings = sum(
                _orient(a, b, c, p) != _orient(a, b, c, q)
                and _orient(p, q, a, b) == _orient(p, q, b, c) == _orient(p, q, c, a)
                for p, q in combinations([raw[i] for i in f1], 2)
            )
            if crossings % 2:
                linked += 1
                v = pair_intersection_check(*(tuple(pt(*raw[i]) for i in f) for f in (f1, f2)))
                assert not v.admissible, (raw, f1, f2)
        assert linked % 2 == 1, raw
        placed += 1


def test_sign_class_decides_verdict_and_kind_on_generic_k2222_placements(torus_catalog):
    # the oriented matroid of a pair's points decides whether and how the
    # two triangles meet (Bjorner et al., Oriented Matroids, 1993): on
    # placements with no four points coplanar, two clique pairs that share
    # vertices at the same positions and whose distinct points (the first
    # face's vertices, then the second's others) have the same orient3d sign
    # on every 4-subset get one (verdict, kind)
    labels = torus_catalog.task.graph.vertices
    cliques = enumerate_cliques3(torus_catalog.task.graph)
    pairs = list(combinations(cliques, 2))
    assert len(pairs) == 496
    rng = random.Random(20261031)
    outcomes = {}
    placed = 0
    while placed < 40:
        raw = dict(zip(labels, (tuple(rng.randint(-8, 8) for _ in range(3)) for _ in labels)))
        if not all(_orient(*four) for four in combinations(raw.values(), 4)):
            continue
        points = {v: Point(p) for v, p in raw.items()}
        sign = {four: _orient(*map(raw.__getitem__, four)) for four in permutations(labels, 4)}
        for f, g in pairs:
            shared = tuple((i, g.index(v)) for i, v in enumerate(f) if v in g)
            distinct = (*f, *(v for v in g if v not in f))
            key = shared, tuple(sign[four] for four in combinations(distinct, 4))
            v = pair_intersection_check(*(tuple(map(points.__getitem__, t)) for t in (f, g)))
            outcomes.setdefault(key, set()).add((v.verdict, v.kind))
        placed += 1
    assert all(len(found) == 1 for found in outcomes.values())
    assert set().union(*outcomes.values()) == {
        ("admissible", None), ("violation", "interior_crossing")}
    # the keys recur, so the check compares outcomes and does not just list
    # them
    assert len(outcomes) < len(pairs) * placed / 10


def test_weak_conway_gordon_sachs_on_k6_placements_in_r3(rp2_catalog):
    # K6 is intrinsically linked (Conway & Gordon 1983, Sachs 1983): on six
    # distinct points of R^3 whose 20 triangles are nondegenerate, some two
    # vertex-disjoint triangles meet
    labels = rp2_catalog.task.graph.vertices
    triangles = list(combinations(labels, 3))
    pairs = [(f1, f2) for f1, f2 in combinations(triangles, 2) if not set(f1) & set(f2)]
    assert (len(triangles), len(pairs)) == (20, 10)
    checked = 0
    for raw, points in _k6_placements_in_r3(labels, 20261020, 200):
        if any(_collinear(*map(raw.__getitem__, f)) for f in triangles):
            continue
        verdicts = [pair_intersection_check(*(tuple(map(points.__getitem__, f)) for f in fs))
                    for fs in pairs]
        assert any(not v.admissible for v in verdicts), raw
        checked += 1
    assert checked > 150
