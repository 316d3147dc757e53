from fractions import Fraction
from itertools import combinations

import pytest

from flextri.geometry import (
    DEFAULT_PARAMS,
    ParameterError,
    Point,
    RealizationParams,
    check_placement,
    circumcenter,
    circumradius_sq,
    construction_coords,
    dist_sq,
    face_is_degenerate,
    face_shapes,
    integer_frame,
    make_point,
    orthogonal_project,
    sixteen_cell_diagram,
    tetra_containment,
    tetra_inradius_sq,
)
from flextri.numeric import CTX_SQRT2_SQRT3, CTX_SQRT5, QQ, ContextMismatchError, QuadExt
from flextri.verify import verify_catalog

from conftest import scale_placement

CTX = CTX_SQRT2_SQRT3
S2 = QuadExt(0, 1, ctx=CTX)
S6 = QuadExt(0, 0, 0, 1, ctx=CTX)
S8 = 2 * S2


def qq(x, ctx=CTX):
    return QuadExt(Fraction(x), ctx=ctx)


# -- transcription of the named coordinate sets ----------------------------

def test_suspension_coordinates(suspension_points):
    k = Fraction(14, 5)
    assert suspension_points["A"].coords == (qq(0), qq(0), S8)
    assert suspension_points["E"].coords == (qq(0), qq(0), -S8)
    assert suspension_points["F"].coords == (S8, qq(0), qq(0))
    assert suspension_points["B"].coords == (-S8 / k, qq(0), qq(0))
    assert suspension_points["C"].coords == (S2 / k, S6 / k, qq(0))
    assert suspension_points["G"].coords == (-S2, -S6, qq(0))


def test_sixteen_cell_coordinates(schlegel16_points):
    assert schlegel16_points["A"].coords == (qq(0), qq(0), qq(3))
    assert schlegel16_points["B"].coords == (S8, qq(0), qq(-1))
    assert schlegel16_points["C"].coords == (-S2, S6, qq(-1))
    assert schlegel16_points["E"].coords == (qq(0), qq(0), qq(Fraction(-3, 4)))
    assert schlegel16_points["F"].coords == (
        -S8 / Fraction(4), qq(0), qq(Fraction(1, 4))
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
    assert rp2_points["O"].is_zero()
    # the apex direction has length 5 * (4/5)^2 = 16/5
    assert rp2_points["A"].norm_sq() == qq(Fraction(16, 5), ctx=CTX_SQRT5)


CONSTRUCTION_NAMES = (
    "suspension",
    "schlegel16cell",
    "rp2_simplex",
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
            == schlegel16_points[outer].scale(ratio).coords
        )


def test_suspension_equator_homothety(suspension_points):
    ratio = Fraction(-5, 14)
    for big, small in (("F", "B"), ("G", "C"), ("H", "D")):
        assert (
            suspension_points[small].coords
            == suspension_points[big].scale(ratio).coords
        )


def test_suspension_equator_circles_centered_at_origin(suspension_points):
    for tri in ("BCD", "FGH"):
        norms = {suspension_points[v].norm_sq() for v in tri}
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
    embedded = [r.identity for r in reading if r.embedded]
    assert embedded == [r.identity for r in diagram if r.embedded]
    assert len(embedded) == (12 if k > 3 else 0)
    for r, d in zip(reading, diagram, strict=True):
        assert r.identity == d.identity
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
    for p, q in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert dist_sq(outer[p], outer[q]) == qq(24)
    assert circumradius_sq(outer) == qq(9)
    assert tetra_inradius_sq(outer) == qq(1)
    assert circumcenter(outer).is_zero()


def test_rp2_simplex_is_regular(rp2_points):
    labels = "ABCDE"
    for i in range(5):
        for j in range(i + 1, 5):
            assert dist_sq(rp2_points[labels[i]], rp2_points[labels[j]]) == qq(
                8, ctx=CTX_SQRT5
            )
        assert rp2_points[labels[i]].norm_sq() == qq(
            Fraction(16, 5), ctx=CTX_SQRT5
        )


def test_moebius_metric_census(moebius_catalog, moebius_points):
    for tri in moebius_catalog.triangulations:
        lengths = {
            dist_sq(moebius_points[u], moebius_points[v])
            for u, v in map(sorted, tri.graph.edges)
        }
        assert lengths == {qq(3, ctx=CTX_SQRT5), qq(8, ctx=CTX_SQRT5)}
        shapes = list(face_shapes(tri.faces, moebius_points).values())
        assert sorted(shapes) == ["equilateral"] * 2 + ["isosceles"] * 3


def test_face_shapes_computes_each_edge_once(monkeypatch, moebius_points):
    # the 10 cliques of K_5 have 30 sides but only the 10 edges of K_5
    import flextri.geometry as geometry

    computed = []

    def spy(p, q):
        computed.append((p, q))
        return dist_sq(p, q)

    monkeypatch.setattr(geometry, "dist_sq", spy)
    cliques = list(combinations("ABCDE", 3))
    shapes = face_shapes(cliques, moebius_points)
    assert len(computed) == 10 and sorted(shapes) == cliques
    monkeypatch.undo()
    assert shapes == {f: face_shapes([f], moebius_points)[f] for f in cliques}


def test_scaling_preserves_shape_census(moebius_catalog, moebius_points):
    scaled = scale_placement(moebius_points, Fraction(7, 3))
    tri = moebius_catalog.triangulations[0]
    assert face_shapes(tri.faces, moebius_points) == face_shapes(tri.faces, scaled)


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
    ints, scales = integer_frame(points)
    assert sorted(ints) == sorted(points)
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
    ints, scales = integer_frame(sixteen_cell_diagram(Fraction(4)))
    assert scales == (S2 / 4, S6 / 4, qq(Fraction(1, 4)))
    assert ints["B"] == (8, 0, -4)
    assert ints["H"] == (1, 1, 1)
    # an axis that is zero everywhere keeps the scale 1; the gcd of an
    # axis's numerators moves into its scale
    ints, scales = integer_frame({"A": make_point(CTX, 0, 6, 0), "B": make_point(CTX, 0, -4, S2)})
    assert scales == (qq(1), qq(2), S2)
    assert [ints[v] for v in "AB"] == [(0, 3, 0), (0, -2, 1)]
    # an axis that mixes basis elements has no frame, and the error names it
    with pytest.raises(ValueError, match="axis 0 "):
        integer_frame({"A": make_point(CTX, 1 + S2, 0, 0), "B": make_point(CTX, 0, 1, 0)})
    with pytest.raises(ValueError, match="axis 0 "):
        integer_frame({"A": make_point(CTX, 1, 0, 0), "B": make_point(CTX, S2, 1, 0)})
    # points of two contexts are refused, even on an axis of rationals
    with pytest.raises(ContextMismatchError):
        integer_frame({"A": make_point(CTX, 1, 0, 0), "B": make_point(CTX_SQRT5, 2, 1, 0)})


def test_integer_frame_refuses_points_of_mixed_dimension():
    # zip over the axes would stop at the shortest point and frame (1, 2, 3)
    # and (1, 2) as one point (1, 1); the error names the dimensions found
    for points in (
        {"A": make_point(CTX, 1, 2, 3), "B": make_point(CTX, 1, 2)},
        {"A": make_point(CTX, 0, 0, 0), "B": make_point(CTX, 1, 1, 0, 5)},
    ):
        dims = sorted(p.dim for p in points.values())
        with pytest.raises(ValueError, match=rf"dimensions \[{dims[0]}, {dims[1]}\]"):
            integer_frame(points)


# -- degeneracy and helpers ------------------------------------------------

def test_face_degeneracy():
    a = make_point(CTX, 0, 0, 0)
    b = make_point(CTX, 1, 0, 0)
    c = make_point(CTX, 2, 0, 0)
    d = make_point(CTX, 0, 1, 0)
    assert face_is_degenerate(a.coords, b.coords, c.coords)
    assert not face_is_degenerate(a.coords, b.coords, d.coords)


def test_placement_rejects_colliding_labels(moebius_catalog, moebius_points):
    bad = dict(moebius_points)
    bad["B"] = bad["C"]
    with pytest.raises(ValueError):
        check_placement(moebius_catalog.triangulations[0].graph.vertices, bad)


def test_circumcenter_underdetermined():
    a = make_point(CTX, 0, 0, 0)
    b = make_point(CTX, 1, 0, 0)
    with pytest.raises(ValueError):
        circumcenter([a, b])
