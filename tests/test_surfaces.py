from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flextri.enumeration import EnumerationTask, enumerate_triangulations
from flextri.surfaces import (
    LabeledGraph,
    Triangulation,
    build_graph,
    classify_surface,
    enumerate_cliques3,
)

from conftest import brute_force_catalog, catalog_for


def _edge_counts(tri) -> Counter:
    """Edge -> number of faces of ``tri`` that contain it."""
    return Counter(frozenset(p) for f in tri.faces for p in combinations(f, 2))


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
    for tri in torus_catalog.triangulations:
        cls = classify_surface(tri)
        assert len(tri.faces) == 16
        assert cls.euler == 0
        assert cls.orientable
        assert cls.boundary_components == 0
        assert cls.is_manifold
        assert cls.name == "torus"
        assert all(c == 2 for c in _edge_counts(tri).values())


def test_projective_plane_classification(rp2_catalog):
    for tri in rp2_catalog.triangulations:
        cls = classify_surface(tri)
        assert len(tri.faces) == 10
        assert cls.euler == 1
        assert not cls.orientable
        assert cls.name == "projective plane"


def test_moebius_classification(moebius_catalog):
    for tri in moebius_catalog.triangulations:
        cls = classify_surface(tri)
        assert len(tri.faces) == 5
        assert cls.euler == 0
        assert not cls.orientable
        assert cls.boundary_components == 1
        assert cls.name == "Möbius band"
        # 15 edge-face incidences: 5 interior edges twice, 5 boundary once
        counts = _edge_counts(tri)
        assert sorted(counts.values()) == [1] * 5 + [2] * 5


def test_moebius_boundary_is_one_5_cycle(moebius_catalog):
    tri = moebius_catalog.triangulations[0]
    counts = _edge_counts(tri)
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
    tri = Triangulation(g, tuple(enumerate_cliques3(g)))
    cls = classify_surface(tri)
    assert (cls.euler, cls.orientable, cls.name) == (2, True, "sphere")


def test_nonmanifold_rejected():
    # every edge of K_5 lies in 3 of its 10 cliques
    g = build_graph("k5")
    cls = classify_surface(Triangulation(g, tuple(enumerate_cliques3(g))))
    assert not cls.is_manifold
    assert cls.name == "other/invalid"


def _swap(faces, x, y) -> tuple:
    """The faces with labels x and y exchanged, in canonical order."""
    sigma = {x: y, y: x}
    return tuple(sorted(tuple(sorted(sigma.get(v, v) for v in f)) for f in faces))


def _complexes_breaking_the_manifold_rule():
    octahedron = build_graph("octahedron")
    pairs = frozenset(map(frozenset, combinations(octahedron.vertices, 2)))
    complete = LabeledGraph("K6", octahedron.vertices, pairs)
    torus = catalog_for("k2222").triangulations[0]
    book = LabeledGraph("book", tuple("ABCDE"), frozenset(map(frozenset, (
        "AB", "AC", "BC", "AD", "BD", "AE", "BE"))))
    return {
        # the octahedron's sphere on K_6: every link a 4-cycle, BF, CG and DH
        # in no face
        "misses a graph edge": Triangulation(complete, tuple(enumerate_cliques3(octahedron))),
        # a torus with E and F exchanged: every link a 6-cycle, but the two
        # faces on AF move to the non-edge AE (and AF, BE are missed)
        "face on a non-edge": Triangulation(torus.graph, _swap(torus.faces, "E", "F")),
        # three faces on AB and every face edge in the graph: the links at A
        # and B have a vertex of degree 3
        "edge in three faces": Triangulation(book, (tuple("ABC"), tuple("ABD"), tuple("ABE"))),
    }


@pytest.mark.parametrize("case", sorted(_complexes_breaking_the_manifold_rule()))
def test_manifold_rule_rejects(case):
    tri = _complexes_breaking_the_manifold_rule()[case]
    if case == "face on a non-edge":
        assert sum({"A", "E"} <= set(f) for f in tri.faces) == 2
        assert not tri.graph.has_edge("A", "E")
    cls = classify_surface(tri)
    assert not cls.is_manifold
    assert cls.name == "other/invalid"


def test_annulus_classification():
    # the octahedron minus two opposite faces: an annulus, whose boundary is
    # the two triangles BCD and FGH
    g = build_graph("octahedron")
    faces = [t for t in enumerate_cliques3(g) if t not in (("B", "C", "D"), ("F", "G", "H"))]
    cls = classify_surface(Triangulation(g, tuple(faces)))
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
    classes = [classify_surface(t) for t in catalog.triangulations]
    names = [cls.name for cls in classes]
    assert all(cls.is_manifold for cls in classes)
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


def _coherent_by_brute_force(faces) -> bool:
    """Whether some choice of a walk direction per face walks every edge
    at most once each way, i.e. each pair of faces on an edge oppositely.
    The first face's direction is fixed: reversing all faces keeps a
    consistent choice consistent."""
    for flips in product((False, True), repeat=max(len(faces) - 1, 0)):
        walked = []
        for (a, b, c), flip in zip(faces, (False, *flips)):
            walked += [(b, a), (c, b), (a, c)] if flip else [(a, b), (b, c), (c, a)]
        if len(set(walked)) == len(walked):
            return True
    return False


@pytest.mark.parametrize(
    "graph_name,mode",
    [("k5", "with_boundary"), ("octahedron", "closed"), ("octahedron", "with_boundary")],
)
def test_orientability_matches_brute_force_on_scanned_face_sets(graph_name, mode):
    catalog = brute_force_catalog(EnumerationTask(build_graph(graph_name), mode))
    complexes = [(t, classify_surface(t)) for t in catalog.triangulations] + catalog.rejected
    if (graph_name, mode) == ("octahedron", "with_boundary"):
        assert len(complexes) == 35
        assert sum(not cls.is_manifold for _, cls in complexes) == 22
    for tri, cls in complexes:
        assert cls.orientable == _coherent_by_brute_force(tri.faces), tri.faces


@pytest.mark.parametrize("graph_name", ["k5", "k6"])
def test_orientability_matches_brute_force_on_catalogs(graph_name):
    for tri in catalog_for(graph_name).triangulations:
        assert classify_surface(tri).orientable == _coherent_by_brute_force(tri.faces)


K6_CLIQUES = enumerate_cliques3(build_graph("k6"))


@given(st.sets(st.sampled_from(K6_CLIQUES), max_size=12))
@settings(max_examples=100, deadline=None)
def test_orientability_matches_brute_force_on_k6_subsets(faces):
    tri = Triangulation(build_graph("k6"), tuple(sorted(faces)))
    assert classify_surface(tri).orientable == _coherent_by_brute_force(tri.faces)
