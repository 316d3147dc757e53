"""Exhaustive enumeration of triangulations over a fixed labeled graph.

The search decides, triangle by triangle in canonical order, whether each
3-clique is a face.  Pruning is combinatorial: edge multiplicities, cycles
that close too early in a vertex link, and feasibility of still-undecided
triangles.  No symmetry reduction is applied; the counts of interest are
counts of *labeled* face sets.
"""

from __future__ import annotations

from .numeric import _Value
from .surfaces import (
    LabeledGraph,
    SurfaceClass,
    Triangle,
    Triangulation,
    _face_edges,
    classify_surface,
    enumerate_cliques3,
)


class EnumerationTask(_Value, frozen=True):
    __slots__ = ("graph", "mode", "target")

    def __init__(self, graph: LabeledGraph, mode: str, target: str | None = None):
        self._set_slots(graph, mode, target)
        if mode not in ("closed", "with_boundary"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "closed" and (2 * len(graph.edges)) % 3 != 0:
            raise ValueError("closed mode needs 3 | 2E so that F = 2E/3 is integral")


class Catalog(_Value, frozen=False):
    __slots__ = ("task", "triangulations", "rejected")

    def __init__(self, task: EnumerationTask, triangulations: list[Triangulation],
                 rejected: list[tuple]):
        self.task, self.triangulations, self.rejected = task, triangulations, rejected


def _closes_short_cycle(link: dict, u, w) -> bool:
    """Whether the link edge uw, just added to ``link``, closes a cycle
    through fewer than all ``len(link)`` neighbours of the link's vertex."""
    prev, cur = u, w
    for _ in range(len(link) - 2):
        nbrs = link[cur]
        if len(nbrs) == 1:
            return False
        prev, cur = cur, nbrs[nbrs[0] == prev]
        if cur == u:
            return True
    return False


def enumerate_triangulations(task: EnumerationTask) -> Catalog:
    """Complete, duplicate-free catalog of all valid face sets for the task.

    In closed mode every edge must end with multiplicity exactly 2; in
    with_boundary mode multiplicity 1 or 2.  A face is refused when it
    would close a cycle in a vertex link that misses some neighbour of the
    vertex, so the face sets that reach classification are those whose
    links are paths and cycles through all neighbours.  Candidates failing
    the target surface filter are collected in ``rejected`` rather than
    dropped silently.
    """
    graph = task.graph
    cliques = enumerate_cliques3(graph)
    n = len(cliques)
    need_min = 2 if task.mode == "closed" else 1

    clique_edges = [_face_edges(t) for t in cliques]
    mult = dict.fromkeys(graph.edges, 0)
    # how many undecided cliques can still cover each edge
    remaining = dict.fromkeys(graph.edges, 0)
    for es in clique_edges:
        for e in es:
            remaining[e] += 1
    if any(r < need_min for r in remaining.values()):
        return Catalog(task, [], [])

    # link(v) as neighbour -> its link neighbours; u has link degree
    # mult(vu) <= 2, so each link is a union of paths and cycles
    links = {v: {u: [] for u in graph.neighbors(v)} for v in graph.vertices}
    clique_links = [((links[a], b, c), (links[b], a, c), (links[c], a, b)) for a, b, c in cliques]

    chosen: list[Triangle] = []
    results: list[tuple[Triangle, ...]] = []

    def try_include(i: int) -> bool:
        if any(mult[e] == 2 for e in clique_edges[i]):
            return False
        for e in clique_edges[i]:
            mult[e] += 1
        for link, u, w in clique_links[i]:
            link[u].append(w)
            link[w].append(u)
        # A link cycle appears only when an include adds its closing edge,
        # and one through all neighbours of v leaves every edge at v in two
        # faces, so no later face at v is accepted: one walk from the new
        # edge is the whole test of each link.
        if any(_closes_short_cycle(*at) for at in clique_links[i]):
            undo_include(i)
            return False
        return True

    def undo_include(i: int):
        # undos run in reverse order of includes: the last entries are i's
        for link, u, w in clique_links[i]:
            link[u].pop()
            link[w].pop()
        for e in clique_edges[i]:
            mult[e] -= 1

    def search(i: int):
        # the remaining check at the start, the exclude test and the include
        # refusal at multiplicity 2 keep every edge in [need_min, 2] at i == n
        if i == n:
            results.append(tuple(chosen))
            return
        for e in clique_edges[i]:
            remaining[e] -= 1
        # include branch
        if try_include(i):
            chosen.append(cliques[i])
            search(i + 1)
            chosen.pop()
            undo_include(i)
        # exclude branch
        if all(mult[e] + remaining[e] >= need_min for e in clique_edges[i]):
            search(i + 1)
        for e in clique_edges[i]:
            remaining[e] += 1

    search(0)
    return _catalog(task, results)


def _catalog(task: EnumerationTask, face_sets) -> Catalog:
    """Classify each face set, in canonical order: the manifolds of the
    target surface (any surface without a target) form the catalog, the
    rest go to ``rejected``."""
    matched: list[Triangulation] = []
    rejected: list[tuple[Triangulation, SurfaceClass]] = []
    for faces in sorted(face_sets):
        tri = Triangulation(task.graph, faces)
        cls = classify_surface(tri)
        if cls.is_manifold and task.target in (None, cls.name):
            matched.append(tri)
        else:
            rejected.append((tri, cls))
    return Catalog(task, matched, rejected)


def complement_pairing(catalog: Catalog) -> tuple[list[tuple[int, int]], list[int]]:
    """Match each triangulation with the one whose faces are its complement
    in the full 3-clique set; returns (pairs, unmatched ids)."""
    cliques = set(enumerate_cliques3(catalog.task.graph))
    index = {t.faces: i for i, t in enumerate(catalog.triangulations)}
    pairs = []
    unmatched = []
    seen = set()
    for i, t in enumerate(catalog.triangulations):
        if i in seen:
            continue
        j = index.get(tuple(sorted(cliques.difference(t.faces))))
        if j is None or j in seen:
            unmatched.append(i)
        else:
            pairs.append((min(i, j), max(i, j)))
            seen.add(i)
            seen.add(j)
    return pairs, unmatched
