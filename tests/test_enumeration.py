from itertools import combinations, permutations

import pytest

from flextri.enumeration import (
    EnumerationTask,
    complement_pairing,
    enumerate_triangulations,
)
from flextri.surfaces import (
    SURFACE_NAMES,
    LabeledGraph,
    Triangulation,
    build_graph,
    classify_surface,
    enumerate_cliques3,
)

from conftest import brute_force_catalog


@pytest.mark.parametrize(
    "catalog_name,faces",
    [("torus_catalog", 16), ("rp2_catalog", 10), ("moebius_catalog", 5)],
)
def test_twelve_each(catalog_name, faces, request):
    cat = request.getfixturevalue(catalog_name)
    assert len(cat.triangulations) == 12
    assert all(len(t.faces) == faces for t in cat.triangulations)


def test_no_other_closed_complexes_over_k2222(torus_catalog):
    # the closed search finds nothing besides the 12 tori (no Klein bottles)
    assert torus_catalog.rejected == []


def test_pairing_six_pairs_each(torus_catalog, rp2_catalog, moebius_catalog):
    for cat in (torus_catalog, rp2_catalog, moebius_catalog):
        pairs, unmatched = complement_pairing(cat)
        assert len(pairs) == 6
        assert unmatched == []
        covered = {i for p in pairs for i in p}
        assert covered == set(range(12))


def test_pair_face_sets_disjoint_and_covering(torus_catalog, rp2_catalog, moebius_catalog):
    for cat in (torus_catalog, rp2_catalog, moebius_catalog):
        cliques = set(enumerate_cliques3(cat.task.graph))
        pairs, _ = complement_pairing(cat)
        for i, j in pairs:
            fi = set(cat.triangulations[i].faces)
            fj = set(cat.triangulations[j].faces)
            assert not fi & fj
            assert fi | fj == cliques


def test_catalog_deterministic(moebius_catalog):
    task = moebius_catalog.task
    again = enumerate_triangulations(task)
    assert [t.faces for t in again.triangulations] == [
        t.faces for t in moebius_catalog.triangulations
    ]


def test_catalog_sorted_canonically(torus_catalog):
    encodings = [t.faces for t in torus_catalog.triangulations]
    assert encodings == sorted(encodings)
    assert len(set(encodings)) == len(encodings)


@pytest.mark.parametrize("target", [None, *SURFACE_NAMES])
@pytest.mark.parametrize(
    "graph_name,mode",
    [("k5", "with_boundary"), ("octahedron", "closed"), ("octahedron", "with_boundary")],
)
def test_brute_force_scan_matches_backtracking(graph_name, mode, target):
    task = EnumerationTask(build_graph(graph_name), mode, SURFACE_NAMES.get(target))
    search, brute = enumerate_triangulations(task), brute_force_catalog(task)
    assert [t.faces for t in search.triangulations] == [t.faces for t in brute.triangulations]
    assert [t.faces for t, _ in search.rejected] == [t.faces for t, _ in brute.rejected]
    if (graph_name, mode, target) == ("octahedron", "with_boundary", None):
        assert (len(search.triangulations), len(search.rejected)) == (13, 22)


def _closed_face_sets(graph) -> set:
    """Every set of 3-cliques that puts each edge of ``graph`` in exactly
    two faces, by a meet-in-the-middle scan: the cliques split into two
    halves, each half's subsets are tabulated by their edge-multiplicity
    vectors (entries at most 2), and a vector v meets 2 - v."""
    index = {e: i for i, e in enumerate(graph.edges)}
    cliques = [
        t for t in combinations(graph.vertices, 3)
        if all(graph.has_edge(*p) for p in combinations(t, 2))
    ]

    def table(half) -> dict:
        subsets = [((0,) * len(index), ())]
        for t in half:
            at = [index[frozenset(p)] for p in combinations(t, 2)]
            for vec, faces in list(subsets):
                vec = list(vec)
                for i in at:
                    vec[i] += 1
                if all(vec[i] <= 2 for i in at):
                    subsets.append((tuple(vec), faces + (t,)))
        out: dict = {}
        for vec, faces in subsets:
            out.setdefault(vec, []).append(faces)
        return out

    mid = len(cliques) // 2
    low, high = table(cliques[:mid]), table(cliques[mid:])
    return {
        tuple(sorted(f + g))
        for vec, fs in low.items()
        for g in high.get(tuple(2 - m for m in vec), ())
        for f in fs
    }


@pytest.mark.parametrize("catalog_name,closed_sets", [("torus_catalog", 76), ("rp2_catalog", 12)])
def test_closed_catalog_complete_by_meet_in_the_middle(catalog_name, closed_sets, request):
    cat = request.getfixturevalue(catalog_name)
    graph = cat.task.graph
    scanned = _closed_face_sets(graph)
    assert len(scanned) == closed_sets
    manifolds = {f for f in scanned if classify_surface(Triangulation(graph, f)).is_manifold}
    untargeted = enumerate_triangulations(EnumerationTask(graph, "closed"))
    for found in (cat, untargeted):
        assert {t.faces for t in found.triangulations} == manifolds
        # the rest are non-manifold, and the link pruning drops them all
        assert not (scanned - manifolds) & {t.faces for t, _ in found.rejected}


def _automorphisms(graph) -> list[dict]:
    """Every permutation of the labels that maps edges to edges."""
    group = []
    for perm in permutations(graph.vertices):
        sigma = dict(zip(graph.vertices, perm))
        if all(graph.has_edge(*(sigma[v] for v in e)) for e in graph.edges):
            group.append(sigma)
    return group


@pytest.mark.parametrize(
    "catalog_name,order",
    [("torus_catalog", 384), ("rp2_catalog", 720), ("moebius_catalog", 120)],
)
def test_catalog_is_one_automorphism_orbit(catalog_name, order, request):
    cat = request.getfixturevalue(catalog_name)
    group = _automorphisms(cat.task.graph)
    assert len(group) == order
    orbit = {
        tuple(sorted(tuple(sorted(sigma[v] for v in f)) for f in cat.triangulations[0].faces))
        for sigma in group
    }
    assert orbit == {t.faces for t in cat.triangulations}


def test_closed_mode_divisibility_check():
    with pytest.raises(ValueError):
        EnumerationTask(build_graph("k5"), "closed")


def test_an_edge_on_one_triangle_leaves_closed_mode_empty():
    # in closed mode every edge lies on two faces: the octahedron with a
    # triangle hung from one vertex has three edges on one 3-clique each,
    # so the search finds nothing before it starts, as the full scan does
    octahedron = build_graph("octahedron")
    hung = {frozenset(e) for e in (("B", "X"), ("B", "Y"), ("X", "Y"))}
    graph = LabeledGraph("hung", octahedron.vertices + ("X", "Y"), octahedron.edges | hung)
    task = EnumerationTask(graph, "closed")
    for catalog in (enumerate_triangulations(task), brute_force_catalog(task)):
        assert (catalog.triangulations, catalog.rejected) == ([], [])


def test_unfiltered_k2222_closed_is_still_twelve():
    task = EnumerationTask(build_graph("k2222"), "closed", target=None)
    cat = enumerate_triangulations(task)
    assert len(cat.triangulations) == 12
    assert all(classify_surface(t).name == "torus" for t in cat.triangulations)
