import pytest

from flextri.enumeration import (
    EnumerationTask,
    brute_force_catalog,
    complement_faces,
    complement_pairing,
    enumerate_triangulations,
)
from flextri.surfaces import build_graph, enumerate_cliques3


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


def test_complementation_is_involution(torus_catalog):
    g = torus_catalog.task.graph
    faces = [t.faces for t in torus_catalog.triangulations]
    for f in faces:
        assert complement_faces(g, complement_faces(g, f)) == f
    pairs, _ = complement_pairing(torus_catalog)
    for i, j in pairs:
        assert complement_faces(g, faces[i]) == faces[j]


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


def test_brute_force_k5_scan_matches_backtracking(moebius_catalog):
    brute = brute_force_catalog(moebius_catalog.task)
    assert [t.faces for t in brute.triangulations] == [
        t.faces for t in moebius_catalog.triangulations
    ]


def test_closed_mode_divisibility_check():
    with pytest.raises(ValueError):
        EnumerationTask(build_graph("k5"), "closed")


def test_unfiltered_k2222_closed_is_still_twelve():
    task = EnumerationTask(build_graph("k2222"), "closed", target=None)
    cat = enumerate_triangulations(task)
    assert len(cat.triangulations) == 12
    assert all(c.name == "torus" for c in cat.classes)
