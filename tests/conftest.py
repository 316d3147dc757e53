import importlib
import operator
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path
from types import SimpleNamespace

import pytest

from flextri.enumeration import Catalog, EnumerationTask, _catalog, enumerate_triangulations
from flextri.geometry import (
    Point,
    RealizationParams,
    construction_coords,
    integer_frame,
)
from flextri.numeric import QuadExt
from flextri.surfaces import _face_edges, build_graph, enumerate_cliques3


def dist_sq(p: Point, q: Point):
    """The field reference for a squared distance, with no int frame:
    subtract the two points, then sum the squares in QuadExt."""
    d = (p - q).coords
    acc = d[0] * d[0]
    for x in d[1:]:
        acc = acc + x * x
    return acc


def add(p: Point, q: Point) -> Point:
    """The coordinatewise sum of two points."""
    return Point(tuple(map(operator.add, p.coords, q.coords)))


def scale(p: Point, r) -> Point:
    """The point ``p`` with every coordinate multiplied by ``r``."""
    return Point(tuple(a * r for a in p.coords))


def scale_placement(points: dict, r) -> dict:
    """The placement with every point multiplied by ``r``."""
    return {label: scale(p, r) for label, p in points.items()}


def field_frame(points: dict):
    """The ``integer_frame`` of a placement as {label: int tuple} and its
    scales as field values, each raw [a, b, c, e, d] rebuilt as
    (a + b sqrt d1 + c sqrt d2 + e sqrt(d1 d2)) / d."""
    ctx, ints, units = integer_frame([p.coords for p in points.values()])
    scales = tuple(QuadExt(*(Fraction(x, d) for x in u[:4]), ctx=ctx) for *u, d in units)
    return dict(zip(points, ints, strict=True)), scales


def field_isometry_group(labels, placement: dict) -> list[dict]:
    """The reference for ``geometry.isometry_group``, computed in the field
    without the int frame: every permutation of ``labels`` that keeps the
    exact squared distance of every pair of placed points, by brute force
    over all permutations in lexicographic order of the images' positions,
    so in the order ``isometry_group`` gives."""
    labels = list(labels)
    pts = [placement[v] for v in labels]
    d = [[dist_sq(p, q) for q in pts] for p in pts]
    pairs = list(combinations(range(len(labels)), 2))
    return [
        dict(zip(labels, (labels[c] for c in perm)))
        for perm in permutations(range(len(labels)))
        if all(d[perm[i]][perm[j]] == d[i][j] for i, j in pairs)
    ]


def brute_force_catalog(task: EnumerationTask) -> Catalog:
    """Independent completeness oracle for ``enumerate_triangulations``: scan
    all 2^N subsets of 3-cliques, keep those whose edge multiplicities the
    task's mode allows, and classify them as the search's results are.

    Only sensible for small graphs (K_5 has N = 10).
    """
    graph = task.graph
    cliques = enumerate_cliques3(graph)
    n = len(cliques)
    closed = task.mode == "closed"
    results = []
    for mask in range(1 << n):
        faces = tuple(cliques[i] for i in range(n) if mask >> i & 1)
        counts = Counter(e for f in faces for e in _face_edges(f))
        if all(counts[e] == 2 if closed else 1 <= counts[e] <= 2 for e in graph.edges):
            results.append(faces)
    return _catalog(task, results)


@lru_cache(maxsize=None)
def catalog_for(graph_name: str):
    mode = "with_boundary" if graph_name == "k5" else "closed"
    target = {
        "k2222": "torus",
        "k6": "projective plane",
        "k5": "Möbius band",
    }[graph_name]
    return enumerate_triangulations(
        EnumerationTask(build_graph(graph_name), mode, target)
    )


@pytest.fixture(scope="session")
def torus_catalog():
    return catalog_for("k2222")


@pytest.fixture(scope="session")
def rp2_catalog():
    return catalog_for("k6")


@pytest.fixture(scope="session")
def moebius_catalog():
    return catalog_for("k5")


@pytest.fixture(scope="session")
def schlegel16_points():
    return construction_coords("schlegel16cell", RealizationParams(Fraction(4)))


@pytest.fixture(scope="session")
def suspension_points():
    return construction_coords("suspension", RealizationParams(Fraction(14, 5)))


@pytest.fixture(scope="session")
def rp2_points():
    return construction_coords("rp2-simplex")


@pytest.fixture(scope="session")
def moebius_points():
    return construction_coords("moebius")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def perfbench():
    """The benchmark's input generators (``workloads``), reference checks
    (``checks``) and worker (``worker``), imported with the benchmark's
    directory on sys.path, as ``perfbench/run.py`` runs them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        names = ("workloads", "checks", "worker")
        return SimpleNamespace(**{n: importlib.import_module(n) for n in names})
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="session")
def sweep_placements(perfbench):
    """The benchmark's 15 ``sweep`` torus placements, by placement key."""
    return {
        perfbench.workloads.placement_key(c, k): perfbench.worker.sweep_placement(c, k)
        for c, k in perfbench.workloads.SWEEP_GRID
    }
