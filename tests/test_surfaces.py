import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flextri.enumeration import EnumerationTask, enumerate_triangulations
from flextri.surfaces import (
    Triangulation,
    build_graph,
    classify_surface,
    edge_face_counts,
    enumerate_cliques3,
)

from conftest import catalog_for


@pytest.mark.parametrize(
    "name,nv,ne",
    [("k2222", 8, 24), ("k6", 6, 15), ("k5", 5, 10), ("octahedron", 6, 12)],
)
def test_graph_sizes(name, nv, ne):
    g = build_graph(name)
    assert len(g.vertices) == nv
    assert len(g.edges) == ne


def test_unknown_graph():
    with pytest.raises(ValueError):
        build_graph("petersen")


def test_k2222_misses_the_matching():
    g = build_graph("k2222")
    for pair in ("AE", "BF", "CG", "DH"):
        assert not g.has_edge(*pair)


@pytest.mark.parametrize("name,count", [("k2222", 32), ("k6", 20), ("k5", 10)])
def test_clique_counts(name, count):
    assert len(enumerate_cliques3(build_graph(name))) == count


def test_torus_classification(torus_catalog):
    for tri, cls in zip(torus_catalog.triangulations, torus_catalog.classes):
        assert len(tri.faces) == 16
        assert cls.euler == 0
        assert cls.orientable
        assert cls.boundary_components == 0
        assert cls.is_manifold
        assert cls.name == "torus"
        assert all(c == 2 for c in edge_face_counts(tri).values())


def test_projective_plane_classification(rp2_catalog):
    for tri, cls in zip(rp2_catalog.triangulations, rp2_catalog.classes):
        assert len(tri.faces) == 10
        assert cls.euler == 1
        assert not cls.orientable
        assert cls.name == "projective plane"


def test_moebius_classification(moebius_catalog):
    for tri, cls in zip(moebius_catalog.triangulations, moebius_catalog.classes):
        assert len(tri.faces) == 5
        assert cls.euler == 0
        assert not cls.orientable
        assert cls.boundary_components == 1
        assert cls.name == "Möbius band"
        # 15 edge-face incidences: 5 interior edges twice, 5 boundary once
        counts = edge_face_counts(tri)
        assert sorted(counts.values()) == [1] * 5 + [2] * 5


def test_moebius_boundary_is_one_5_cycle(moebius_catalog):
    tri = moebius_catalog.triangulations[0]
    counts = edge_face_counts(tri)
    boundary = [e for e, c in counts.items() if c == 1]
    assert len(boundary) == 5
    deg = {}
    for e in boundary:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    assert sorted(deg.values()) == [2] * 5


def test_sphere_classification():
    g = build_graph("octahedron")
    # the octahedron boundary: all 3-cliques except the two "antipodal" ones
    faces = [t for t in enumerate_cliques3(g)]
    tri = Triangulation.from_faces(g, faces)
    cls = classify_surface(tri)
    assert (cls.euler, cls.orientable, cls.name) == (2, True, "sphere")


def test_nonmanifold_rejected(moebius_catalog):
    # two Möbius faces sharing only a vertex pinch is hard to build on K5;
    # instead break manifoldness by dropping a face from a torus is invalid
    # (uncovered edge), so test via an edge in >2 faces being rejected
    g = build_graph("k5")
    faces = enumerate_cliques3(g)  # every edge lies in 3 faces
    with pytest.raises(ValueError):
        Triangulation.from_faces(g, faces)


def test_annulus_classification():
    # the octahedron minus two opposite faces: an annulus, whose boundary is
    # the two triangles BCD and FGH
    g = build_graph("octahedron")
    faces = [t for t in enumerate_cliques3(g) if t not in (("B", "C", "D"), ("F", "G", "H"))]
    cls = classify_surface(Triangulation.from_faces(g, faces))
    assert cls.boundary_components == 2
    assert cls.is_manifold
    assert cls.orientable
    assert cls.euler == 0
    assert cls.name == "other manifold"


@pytest.mark.parametrize("graph_name", ["octahedron", "k6"])
def test_untargeted_manifolds_are_not_named_invalid(graph_name):
    # an untargeted catalog keeps every manifold, named or not: the
    # octahedron with boundary has 4 annuli, K_6 with boundary 120
    # orientable surfaces of Euler characteristic -1 and one boundary curve
    catalog = enumerate_triangulations(
        EnumerationTask(build_graph(graph_name), "with_boundary", None)
    )
    names = [cls.name for cls in catalog.classes]
    assert all(cls.is_manifold for cls in catalog.classes)
    assert "other/invalid" not in names
    assert names.count("other manifold") == {"octahedron": 4, "k6": 120}[graph_name]


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=11))
@settings(max_examples=60, deadline=None)
def test_orientability_start_invariant(start, tid):
    # the orientation walk seeds from the first face, so rotating the face
    # list makes face `start` the seed
    tri = catalog_for("k2222").triangulations[tid]
    rotated = Triangulation(tri.graph, tri.faces[start:] + tri.faces[:start])
    assert classify_surface(rotated).orientable


@given(st.sampled_from(["k2222", "k6", "k5"]), st.integers(min_value=0, max_value=11))
@settings(max_examples=36, deadline=None)
def test_classification_permutation_invariant(graph_name, tid):
    # reversing the faces also changes the face the orientation walk starts from
    tri = catalog_for(graph_name).triangulations[tid]
    shuffled = Triangulation(tri.graph, tuple(reversed(tri.faces)))
    assert classify_surface(tri) == classify_surface(shuffled)
