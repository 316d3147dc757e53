import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flextri.geometry import (
    DEFAULT_PARAMS,
    ParameterError,
    Point,
    RealizationParams,
    _collinear,
    _sq_distances,
    check_placement,
    circumradius_sq,
    construction_coords,
    face_is_degenerate,
    face_shapes,
    integer_frame,
    make_point,
    orthogonal_project,
    sixteen_cell_diagram,
    squared_distances,
    tetra_containment,
    tetra_inradius_sq,
)
from flextri.numeric import (
    CTX_SQRT2_SQRT3,
    CTX_SQRT5,
    QQ,
    ContextMismatchError,
    QuadExt,
    solve_linear,
)
from flextri.surfaces import enumerate_cliques3
from flextri.verify import verify_catalog

from conftest import axis_scale, dist_sq, field_frame, scale, scale_placement

CTX = CTX_SQRT2_SQRT3
S2 = QuadExt(0, 1, ctx=CTX)
S6 = QuadExt(0, 0, 0, 1, ctx=CTX)
S8 = 2 * S2


def qq(x, ctx=CTX):
    return QuadExt(Fraction(x), ctx=ctx)


# -- transcription of the named coordinate sets ----------------------------

def test_suspension_coordinates(suspension_points):
    t = Fraction(5, 14)  # 1 / k
    assert suspension_points["A"].coords == (qq(0), qq(0), S8)
    assert suspension_points["E"].coords == (qq(0), qq(0), -S8)
    assert suspension_points["F"].coords == (S8, qq(0), qq(0))
    assert suspension_points["B"].coords == (QuadExt(0, -2 * t, ctx=CTX), qq(0), qq(0))
    assert suspension_points["C"].coords == (
        QuadExt(0, t, ctx=CTX), QuadExt(0, 0, 0, t, ctx=CTX), qq(0)
    )
    assert suspension_points["G"].coords == (-S2, -S6, qq(0))


def test_sixteen_cell_coordinates(schlegel16_points):
    assert schlegel16_points["A"].coords == (qq(0), qq(0), qq(3))
    assert schlegel16_points["B"].coords == (S8, qq(0), qq(-1))
    assert schlegel16_points["C"].coords == (-S2, S6, qq(-1))
    assert schlegel16_points["E"].coords == (qq(0), qq(0), qq(Fraction(-3, 4)))
    assert schlegel16_points["F"].coords == (
        QuadExt(0, Fraction(-1, 2), ctx=CTX), qq(0), qq(Fraction(1, 4))
    )


def test_moebius_coordinates_are_integers(moebius_points):
    expected = {
        "A": (0, 0, 0),
        "B": (1, 1, 1),
        "C": (1, -1, -1),
        "D": (-1, 1, -1),
        "E": (-1, -1, 1),
    }
    for label, ints in expected.items():
        assert moebius_points[label].coords == tuple(
            qq(v, ctx=CTX_SQRT5) for v in ints
        )


def test_rp2_last_coordinate(rp2_points):
    up = QuadExt(0, Fraction(4, 5), ctx=CTX_SQRT5)   # 4/sqrt(5)
    dn = QuadExt(0, Fraction(-1, 5), ctx=CTX_SQRT5)  # -1/sqrt(5)
    assert rp2_points["A"].coords[3] == up
    for v in "BCDE":
        assert rp2_points[v].coords[3] == dn
    assert not any(rp2_points["O"].coords)
    # the apex direction has length 5 * (4/5)^2 = 16/5
    assert dist_sq(rp2_points["A"], rp2_points["O"]) == qq(Fraction(16, 5), ctx=CTX_SQRT5)


CONSTRUCTION_NAMES = (
    "suspension",
    "schlegel16cell",
    "rp2-simplex",
    "moebius",
    "std_hyperoctahedron",
)


def test_every_construction_name_resolves():
    for name in CONSTRUCTION_NAMES:
        params = DEFAULT_PARAMS.get(name)
        pts = construction_coords(name, params)
        dims = {p.dim for p in pts.values()}
        assert len(dims) == 1


def test_unknown_construction():
    with pytest.raises(ParameterError):
        construction_coords("dodecahedron")
    # the constructions go by their CLI names only
    with pytest.raises(ParameterError):
        construction_coords("rp2_simplex")


# -- parameter validation --------------------------------------------------

@pytest.mark.parametrize(
    "name,k",
    [("suspension", 2), ("suspension", Fraction(3, 2)), ("schlegel16cell", 3)],
)
def test_k_out_of_range(name, k):
    with pytest.raises(ParameterError):
        construction_coords(name, RealizationParams(Fraction(k)))


@pytest.mark.parametrize("name", ["suspension", "schlegel16cell"])
def test_k_required(name):
    with pytest.raises(ParameterError):
        construction_coords(name, None)


def test_sixteen_cell_diagram_allows_small_k():
    pts = sixteen_cell_diagram(Fraction(2))
    assert pts["E"].coords[2] == qq(Fraction(-3, 2))
    with pytest.raises(ParameterError):
        sixteen_cell_diagram(Fraction(0))


# -- homothety structure ---------------------------------------------------

def test_sixteen_cell_inner_is_homothetic_image(schlegel16_points):
    ratio = Fraction(-1, 4)
    for outer, inner in zip("ABCD", "EFGH"):
        assert (
            schlegel16_points[inner].coords
            == scale(schlegel16_points[outer], ratio).coords
        )


def test_suspension_equator_homothety(suspension_points):
    ratio = Fraction(-5, 14)
    for big, small in (("F", "B"), ("G", "C"), ("H", "D")):
        assert (
            suspension_points[small].coords
            == scale(suspension_points[big], ratio).coords
        )


def test_suspension_equator_circles_centered_at_origin(suspension_points):
    origin = make_point(CTX, 0, 0, 0)
    for tri in ("BCD", "FGH"):
        norms = {dist_sq(suspension_points[v], origin) for v in tri}
        assert len(norms) == 1  # equidistant from the origin, in the plane z=0
        assert all(suspension_points[v].coords[2].is_zero() for v in tri)


# -- the Schlegel reading --------------------------------------------------

FACET_FRAME = {"A": (0, 0, 0), "B": (1, 0, 0), "C": (0, 1, 0), "D": (0, 0, 1)}
ANTIPODES = (("A", "E"), ("B", "F"), ("C", "G"), ("D", "H"))


def schlegel_reading(t):
    """The 16-cell ``std_hyperoctahedron`` projected from the viewpoint
    V = c + t(1, 1, 1, 1), c the centroid of the facet ABCD, onto that
    facet's hyperplane x1 + x2 + x3 + x4 = 1, each image read in the facet
    frame A, B - A, C - A, D - A; exact, as Fractions."""
    v = [Fraction(1, 4) + t] * 4
    out = {}
    for label, p in construction_coords("std_hyperoctahedron").items():
        x = [q.a for q in p.coords]
        s = (sum(v) - 1) / (sum(v) - sum(x))  # V + s(P - V) meets the plane
        y = [vi + s * (xi - vi) for vi, xi in zip(v, x)]
        assert sum(y) == 1
        # A = e1 and B - A = e2 - e1, ...: y = A + y2(B - A) + y3(C - A) + y4(D - A)
        out[label] = tuple(y[1:])
    return out


@pytest.mark.parametrize(
    "t", [Fraction(1, 40), Fraction(1, 4), Fraction(1), Fraction(3, 7)], ids=str
)
def test_schlegel_reading_is_a_homothety_of_the_facet(t):
    # EFGH lands on ABCD under the homothety about the facet centroid c with
    # ratio -2t/(1 + 2t), which is -1/k for k = 1 + 1/(2t)
    img = schlegel_reading(t)
    c = (Fraction(1, 4),) * 3
    ratio = -2 * t / (1 + 2 * t)
    for near, far in ANTIPODES:
        assert img[near] == FACET_FRAME[near]
        assert img[far] == tuple(ci + ratio * (pi - ci) for ci, pi in zip(c, img[near]))


def schlegel_placement(k):
    """The Schlegel reading at t = 1/(2(k - 1)) as a placement over QQ."""
    t = 1 / (2 * (Fraction(k) - 1))
    return {v: make_point(QQ, *xs) for v, xs in schlegel_reading(t).items()}


# k = 21 is t = 1/40, the viewpoint V = (11/10)c.  For t > 0 (k > 1), V lies
# beyond facet ABCD and beneath the other seven facets exactly when t < 1/4,
# that is k > 3, and exactly there all 12 tori embed
SCHLEGEL_KS = [21, 5, 4, Fraction(31, 10), Fraction(10000, 3333), 3,
               Fraction(9999, 3334), 2, Fraction(3, 2)]


@pytest.mark.parametrize("k", SCHLEGEL_KS, ids=str)
def test_schlegel_reading_certifies_as_the_sixteen_cell_diagram(k, torus_catalog):
    # the reading is sixteen_cell_diagram(k) up to an affine map, so every
    # verdict and every violation's faces and kind agree; the witnesses are
    # points of two different coordinate systems and are not compared
    reading = verify_catalog(schlegel_placement(k), torus_catalog)
    diagram = verify_catalog(sixteen_cell_diagram(Fraction(k)), torus_catalog)
    embedded = [i for i, r in enumerate(reading) if r.embedded]
    assert embedded == [i for i, r in enumerate(diagram) if r.embedded]
    assert len(embedded) == (12 if k > 3 else 0)
    for r, d in zip(reading, diagram, strict=True):
        assert ([(v.faces, v.kind) for v in r.violations]
                == [(v.faces, v.kind) for v in d.violations])


def test_orthogonal_projection_of_rp2_is_moebius(rp2_points, moebius_points):
    shadow = orthogonal_project(rp2_points, 3)
    for v in "ABCDE":
        assert shadow[v].coords == moebius_points[v].coords
    # the center projects onto the apex's shadow
    assert shadow["O"].coords == shadow["A"].coords


# -- metrics ---------------------------------------------------------------

def test_sixteen_cell_outer_tetra_metrics(schlegel16_points):
    outer = [schlegel16_points[v] for v in "ABCD"]
    dist = squared_distances(schlegel16_points)
    for p, q in combinations("ABCD", 2):
        assert dist[p, q] == qq(24)
    assert circumradius_sq(outer) == qq(9)
    assert tetra_inradius_sq(outer) == qq(1)


def test_rp2_simplex_is_regular(rp2_points):
    dist = squared_distances(rp2_points)
    for u, v in combinations("ABCDE", 2):
        assert dist[u, v] == qq(8, ctx=CTX_SQRT5)
    for v in "ABCDE":
        assert dist[v, "O"] == qq(Fraction(16, 5), ctx=CTX_SQRT5)


def test_moebius_metric_census(moebius_catalog, moebius_points):
    dist = squared_distances(moebius_points)
    for tri in moebius_catalog.triangulations:
        lengths = {dist[tuple(e)] for e in tri.graph.edges}
        assert lengths == {qq(3, ctx=CTX_SQRT5), qq(8, ctx=CTX_SQRT5)}
        shapes = list(face_shapes(tri.faces, moebius_points).values())
        assert sorted(shapes) == ["equilateral"] * 2 + ["isosceles"] * 3


def test_face_shapes_computes_each_edge_once(monkeypatch, moebius_points):
    # the 10 cliques of K_5 have 30 sides but only the 10 edges of K_5: one
    # distance matrix of the placement serves them all
    import flextri.geometry as geometry

    calls = []
    original = geometry._sq_distances

    def spy(pts, ctx, units):
        calls.append(len(pts))
        return original(pts, ctx, units)

    monkeypatch.setattr(geometry, "_sq_distances", spy)
    cliques = list(combinations("ABCDE", 3))
    shapes = face_shapes(cliques, moebius_points)
    assert calls == [5] and sorted(shapes) == cliques
    monkeypatch.undo()
    assert shapes == {f: face_shapes([f], moebius_points)[f] for f in cliques}


def test_scaling_preserves_shape_census(moebius_catalog, moebius_points):
    scaled = scale_placement(moebius_points, Fraction(7, 3))
    tri = moebius_catalog.triangulations[0]
    assert face_shapes(tri.faces, moebius_points) == face_shapes(tri.faces, scaled)


def _metric_placements():
    """Every construction at its default k, the 16-cell diagram and the
    suspension at further k, and one scaled placement."""
    out = {name: construction_coords(name, DEFAULT_PARAMS.get(name)) for name in CONSTRUCTION_NAMES}
    for k in (Fraction(31, 10), Fraction(10000, 3333), 5, 21):
        out[f"schlegel16cell k={k}"] = construction_coords("schlegel16cell", RealizationParams(k))
    for k in (3, 7):
        out[f"suspension k={k}"] = construction_coords("suspension", RealizationParams(k))
    out["suspension x 7/3"] = scale_placement(out["suspension"], Fraction(7, 3))
    return out


@pytest.mark.parametrize("name,points", _metric_placements().items())
def test_squared_distances_equal_the_field_reference(name, points):
    dist = squared_distances(points)
    pairs = [(u, v) for u in points for v in points if u != v]
    assert sorted(dist) == sorted(pairs)
    for u, v in pairs:
        assert dist[u, v] == dist_sq(points[u], points[v]), (u, v)


def test_circumradius_of_lower_dimensional_simplices(moebius_points, rp2_points):
    # the circle through a Moebius face in R^3: sides 3, 3 and 8 squared
    face = [moebius_points[v] for v in "ABC"]
    assert circumradius_sq(face) == qq(Fraction(9, 4), ctx=CTX_SQRT5)
    # the regular 4-simplex A..E of R^4, centered at O
    assert circumradius_sq([rp2_points[v] for v in "ABCDE"]) == qq(Fraction(16, 5), ctx=CTX_SQRT5)
    # a segment's sphere is centered at its midpoint
    assert circumradius_sq(face[:2]) == qq(Fraction(3, 4), ctx=CTX_SQRT5)
    # affinely dependent points have no unique circumsphere
    line = [make_point(CTX, i, 2 * i, 0) for i in range(3)]
    with pytest.raises(ValueError):
        circumradius_sq(line)
    with pytest.raises(ValueError):
        circumradius_sq([make_point(QQ, *p) for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))])


def test_inradius_refuses_a_tetrahedron_whose_centers_differ():
    # the corner tetrahedron's circumcenter (1/2, 1/2, 1/2) lies 1/4 from the
    # coordinate faces and 1/12 from the slanted one, in squares
    corner = [make_point(QQ, *p) for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert circumradius_sq(corner) == qq(Fraction(3, 4), ctx=QQ)
    with pytest.raises(ValueError, match="incenter"):
        tetra_inradius_sq(corner)


def _field_dot(u, w):
    acc = u[0] * w[0]
    for a, b in zip(u[1:], w[1:]):
        acc = acc + a * b
    return acc


def _field_cross(u, w):
    return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])


def _field_circumradius_sq(points):
    """The reference: the center x with 2 x.(p_i - p_0) = |p_i|^2 - |p_0|^2,
    solved by solve_linear in the field, then |x - p_0|^2."""
    base, *rest = [p.coords for p in points]
    matrix = [[2 * (a - b) for a, b in zip(p, base)] for p in rest]
    rhs = [_field_dot(p, p) - _field_dot(base, base) for p in rest]
    sol = solve_linear(matrix, rhs)
    assert sol.kind == "unique"
    d = [x - b for x, b in zip(sol.particular, base)]
    return _field_dot(d, d)


@pytest.mark.parametrize("dim", [3, 4])
def test_circumradius_equals_the_field_center(dim):
    rng = random.Random(20261019 + dim)
    done = 0
    while done < 40:
        pts = [make_point(QQ, *(rng.randint(-6, 6) for _ in range(dim))) for _ in range(dim + 1)]
        base = pts[0].coords
        rows = [[a - b for a, b in zip(p.coords, base)] for p in pts[1:]]
        if solve_linear(rows, [QuadExt(0)] * dim).kind != "unique":
            continue  # affinely dependent
        assert circumradius_sq(pts) == _field_circumradius_sq(pts)
        done += 1


def _field_containment(outer, inner):
    """The reference: each face's normal by the cross product in the field,
    and QuadExt.sign of its dot products."""
    a, b, c, d = (p.coords for p in outer)
    faces = ((b, c, d, a), (a, c, d, b), (a, b, d, c), (a, b, c, d))
    any_on = False
    for p in (q.coords for q in inner):
        for x, y, z, opp in faces:
            n = _field_cross([s - t for s, t in zip(y, x)], [s - t for s, t in zip(z, x)])
            ref = _field_dot(n, [s - t for s, t in zip(opp, x)]).sign()
            if ref == 0:
                raise ValueError("degenerate outer tetrahedron")
            s = _field_dot(n, [s - t for s, t in zip(p, x)]).sign()
            if s == 0:
                any_on = True
            elif s != ref:
                return "outside"
    return "touching" if any_on else "strict_interior"


@pytest.mark.parametrize(
    "k", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 1, 2, 3, Fraction(31, 10), 4, 21],
    ids=str,
)
def test_containment_equals_the_field_normals(k):
    pts = sixteen_cell_diagram(Fraction(k))
    outer, inner = [pts[v] for v in "ABCD"], [pts[v] for v in "EFGH"]
    expected = "strict_interior" if k > 3 else "touching" if k == 3 else "outside"
    assert tetra_containment(outer, inner) == _field_containment(outer, inner) == expected
    # each inner vertex on its own, and the outer vertices, which touch
    for p in inner:
        assert tetra_containment(outer, [p]) == _field_containment(outer, [p])
    assert tetra_containment(outer, outer) == "touching"


def test_containment_refuses_a_flat_outer_tetrahedron():
    flat = [make_point(QQ, *p) for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))]
    with pytest.raises(ValueError, match="degenerate outer"):
        tetra_containment(flat, [make_point(QQ, 0, 0, 1)])


# -- containment threshold -------------------------------------------------

@pytest.mark.parametrize(
    "k,expected",
    [(4, "strict_interior"), (3, "touching"), (2, "outside")],
)
def test_inner_tetra_containment(k, expected):
    pts = sixteen_cell_diagram(Fraction(k))
    outer = [pts[v] for v in "ABCD"]
    inner = [pts[v] for v in "EFGH"]
    assert tetra_containment(outer, inner) == expected


# -- integer frame ---------------------------------------------------------

def _assert_frame_reproduces(points):
    ints, scales = field_frame(points)
    assert all(s.sign() > 0 for s in scales)
    for label, p in points.items():
        assert all(type(c) is int for c in ints[label])
        assert tuple(s * c for s, c in zip(scales, ints[label])) == p.coords


def test_integer_frame_of_every_construction():
    for name in CONSTRUCTION_NAMES:  # the std_* placements included
        _assert_frame_reproduces(construction_coords(name, DEFAULT_PARAMS.get(name)))
    for k in (Fraction(31, 7), Fraction(9999, 4001)):
        _assert_frame_reproduces(sixteen_cell_diagram(k))
        _assert_frame_reproduces(construction_coords("suspension", RealizationParams(k)))
    _assert_frame_reproduces(schlegel_placement(21))


def test_integer_frame_of_every_sweep_placement(sweep_placements):
    assert len(sweep_placements) == 15
    for points in sweep_placements.values():
        _assert_frame_reproduces(points)


def test_integer_frame_scales():
    # the 16-cell diagram at k = 4 has the axes sqrt2, sqrt6 and 1, with
    # coefficients in (1/4)Z: the scales take the basis element and 1/4
    ints, scales = field_frame(sixteen_cell_diagram(Fraction(4)))
    quarter = Fraction(1, 4)
    assert scales == (
        QuadExt(0, quarter, ctx=CTX), QuadExt(0, 0, 0, quarter, ctx=CTX), qq(quarter)
    )
    assert ints["B"] == (8, 0, -4)
    assert ints["H"] == (1, 1, 1)
    # integer_frame itself returns the context and each scale as (slot, g, d)
    pts = sixteen_cell_diagram(Fraction(4))
    ctx, _, scales = integer_frame([p.coords for p in pts.values()])
    assert ctx is CTX and scales == [(1, 1, 4), (3, 1, 4), (0, 1, 4)]
    # an axis that is zero everywhere keeps the scale 1; the gcd of an
    # axis's numerators moves into its scale
    ints, scales = field_frame({"A": make_point(CTX, 0, 6, 0), "B": make_point(CTX, 0, -4, S2)})
    assert scales == (qq(1), qq(2), S2)
    assert [ints[v] for v in "AB"] == [(0, 3, 0), (0, -2, 1)]
    # an axis that mixes basis elements has no frame, and the error names it
    with pytest.raises(ValueError, match="axis 0 "):
        integer_frame([make_point(CTX, 1 + S2, 0, 0).coords, make_point(CTX, 0, 1, 0).coords])
    with pytest.raises(ValueError, match="axis 0 "):
        integer_frame([make_point(CTX, 1, 0, 0).coords, make_point(CTX, S2, 1, 0).coords])
    # points of two contexts are refused, even on an axis of rationals
    with pytest.raises(ContextMismatchError):
        integer_frame([make_point(CTX, 1, 0, 0).coords, make_point(CTX_SQRT5, 2, 1, 0).coords])


def test_make_point_refuses_a_value_of_another_context():
    # a Q(sqrt5) entry in a point of Q would make the point's ctx read Q(sqrt5)
    # while its other coordinates are rationals of Q
    root5 = QuadExt(0, 1, ctx=CTX_SQRT5)
    with pytest.raises(ContextMismatchError) as mixed:
        QuadExt(0) + root5
    with pytest.raises(ContextMismatchError) as refused:
        make_point(QQ, root5, 0, 0)
    assert str(refused.value) == str(mixed.value)
    p = make_point(CTX_SQRT5, root5, 0, Fraction(1, 2))
    assert p.ctx is CTX_SQRT5 and all(x.ctx is CTX_SQRT5 for x in p.coords)


def test_integer_frame_refuses_points_of_mixed_dimension():
    # zip over the axes would stop at the shortest point and frame (1, 2, 3)
    # and (1, 2) as one point (1, 1); the error names the dimensions found
    for points in (
        {"A": make_point(CTX, 1, 2, 3), "B": make_point(CTX, 1, 2)},
        {"A": make_point(CTX, 0, 0, 0), "B": make_point(CTX, 1, 1, 0, 5)},
    ):
        dims = sorted(p.dim for p in points.values())
        with pytest.raises(ValueError, match=rf"dimensions \[{dims[0]}, {dims[1]}\]"):
            integer_frame([p.coords for p in points.values()])


# -- degeneracy and helpers ------------------------------------------------

def test_face_degeneracy():
    a = make_point(CTX, 0, 0, 0)
    b = make_point(CTX, 1, 0, 0)
    c = make_point(CTX, 2, 0, 0)
    d = make_point(CTX, 0, 1, 0)
    assert face_is_degenerate(a.coords, b.coords, c.coords)
    assert not face_is_degenerate(a.coords, b.coords, d.coords)


@st.composite
def _triples(draw):
    """Three small int points of R^3, R^4 or R^5, in any order: three drawn
    freely, or the third equal to one of the others, or on their line."""
    coord = st.integers(-3, 3)
    point = st.tuples(*[coord] * draw(st.sampled_from((3, 4, 5))))
    a, b = draw(point), draw(point)
    c = draw(st.one_of(
        point,
        st.sampled_from((a, b)),
        st.builds(lambda s: tuple(x + s * (y - x) for x, y in zip(a, b)), coord),
    ))
    return draw(st.permutations((a, b, c)))


@given(_triples())
@settings(max_examples=300, deadline=None)
def test_gram_test_equals_face_is_degenerate(triple):
    # on unit scales the matrix is the plain squared distances; the test
    # reads its three entries from each vertex in turn
    d = _sq_distances(triple, QQ, [(0, 1, 1)] * len(triple[0]))[0]
    expected = face_is_degenerate(*triple)
    assert all(_collinear(d, i, j, k) == expected for i, j, k in
               ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)))


def _scaled_axes(points: dict, scales) -> dict:
    """A placement of rational coordinates with axis i multiplied by
    scales[i], in the scales' context."""
    ctx = scales[0].ctx
    return {v: Point(tuple(s * QuadExt(c.a, ctx=ctx) for s, c in zip(scales, p.coords)))
            for v, p in points.items()}


def test_gram_test_equals_face_is_degenerate_on_every_clique(
    sweep_placements, moebius_points, torus_catalog, moebius_catalog
):
    # every clique of the sweep's placements, and of the Moebius placement
    # with E = 2B, where face ABE is degenerate, on frames of Q(sqrt2,
    # sqrt3) and Q(sqrt5) whose scales are not 1: the one distance matrix
    # of each frame decides each clique as face_is_degenerate does
    collinear = dict(moebius_points, E=scale(moebius_points["B"], 2))
    root5 = QuadExt(0, 1, ctx=CTX_SQRT5)
    cases = [(points, torus_catalog) for points in sweep_placements.values()] + [
        (_scaled_axes(collinear, scales), moebius_catalog)
        for scales in ((S2, S6, QuadExt(Fraction(3, 2), ctx=CTX)),
                       (root5, QuadExt(Fraction(1, 3), ctx=CTX_SQRT5), 2 * root5))
    ]
    found = 0
    for points, catalog in cases:
        labels = catalog.task.graph.vertices
        ctx, ints, scales = integer_frame([points[v].coords for v in labels])
        assert any(s != (0, 1, 1) for s in scales)
        d = _sq_distances(ints, ctx, scales)[0]
        for f in enumerate_cliques3(catalog.task.graph):
            i, j, k = map(labels.index, f)
            degenerate = face_is_degenerate(ints[i], ints[j], ints[k])
            assert _collinear(d, i, j, k) == degenerate
            assert degenerate == face_is_degenerate(*(points[v].coords for v in f))
            found += degenerate
    assert found == 2  # ABE on each of the two Moebius frames


def _sq_distances_reference(pts, ctx, scales):
    """``_sq_distances`` by ``Fraction``: each s_i^2 squared in the field
    (``axis_scale``) and read as a Fraction, the weights over the lcm of
    their denominators, one generator sum per pair."""
    sq = [(s * s).a for s in (axis_scale(ctx, scale) for scale in scales)]
    den = math.lcm(*(q.denominator for q in sq))
    weights = [q.numerator * (den // q.denominator) for q in sq]
    n = len(pts)
    d = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = sum(w * (x - y) ** 2 for w, x, y in zip(weights, pts[i], pts[j]))
    return d, den


def test_sq_distances_equals_the_fraction_reference():
    # seeded scales on every basis slot of each field, with numerators and
    # denominators that share factors or not, in R^3 and R^4: the matrix
    # and the lowest-terms den, which the metrics divide by, both agree
    rng = random.Random(20221)
    for ctx, slots in ((QQ, (0,)), (CTX_SQRT5, (0, 1)), (CTX, (0, 1, 2, 3))):
        for dim in (3, 4):
            for _ in range(60):
                scales = []
                for _ in range(dim):
                    d = rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 35))
                    slot = rng.choice(slots)
                    scales.append((slot, rng.randint(1, 12), d))
                pts = [tuple(rng.randint(-20, 20) for _ in range(dim))
                       for _ in range(rng.randint(2, 8))]
                assert _sq_distances(pts, ctx, scales) == _sq_distances_reference(pts, ctx, scales)


def test_placement_rejects_colliding_labels(moebius_catalog, moebius_points):
    bad = dict(moebius_points)
    bad["B"] = bad["C"]
    with pytest.raises(ValueError):
        check_placement(moebius_catalog.triangulations[0].graph.vertices, bad)
