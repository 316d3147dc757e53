"""Exhaustive enumeration of triangulations over a fixed labeled graph.

The search decides, triangle by triangle in canonical order, whether each
3-clique is a face.  Pruning is combinatorial: edge multiplicities, link
fragments, and feasibility of still-undecided triangles.  No symmetry
reduction is applied; the counts of interest are counts of *labeled*
face sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .surfaces import (
    LabeledGraph,
    SurfaceClass,
    Triangle,
    Triangulation,
    _components,
    _face_edges,
    classify_surface,
    enumerate_cliques3,
)


@dataclass(frozen=True)
class EnumerationTask:
    graph: LabeledGraph
    mode: str  # "closed" | "with_boundary"
    target: str | None = None  # surface name filter, e.g. "torus"

    def __post_init__(self):
        if self.mode not in ("closed", "with_boundary"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "closed" and (2 * len(self.graph.edges)) % 3 != 0:
            raise ValueError("closed mode needs 3 | 2E so that F = 2E/3 is integral")


@dataclass
class Catalog:
    task: EnumerationTask
    triangulations: list[Triangulation]
    classes: list[SurfaceClass]
    rejected: list[tuple[Triangulation, SurfaceClass]] = field(default_factory=list)

    @property
    def ids(self) -> range:
        return range(len(self.triangulations))


class _LinkState:
    """Incremental link fragments at one vertex during the search."""

    __slots__ = ("adj",)

    def __init__(self):
        self.adj: dict = {}

    def add(self, u, w):
        self.adj.setdefault(u, []).append(w)
        self.adj.setdefault(w, []).append(u)

    def remove(self, u, w):
        self.adj[u].remove(w)
        self.adj[w].remove(u)
        if not self.adj[u]:
            del self.adj[u]
        if not self.adj[w]:
            del self.adj[w]

    def ok_partial(self, uncovered_incident_edges: int) -> bool:
        """Degrees <= 2 and no premature cycle.

        A cycle component is terminal: once one exists, the vertex can accept
        no further faces, so any other fragment or any incident edge still
        needing coverage kills the branch.
        """
        adj = self.adj
        if any(len(nbrs) > 2 for nbrs in adj.values()):
            return False
        for comp in _components(adj):
            is_cycle = all(len(adj[v]) == 2 for v in comp)
            if is_cycle and (len(comp) < len(adj) or uncovered_incident_edges > 0):
                return False
        return True


def enumerate_triangulations(task: EnumerationTask) -> Catalog:
    """Complete, duplicate-free catalog of all valid face sets for the task.

    In closed mode every edge must end with multiplicity exactly 2; in
    with_boundary mode multiplicity 1 or 2.  Candidates failing the target
    surface filter are collected in ``rejected`` rather than dropped
    silently.
    """
    graph = task.graph
    cliques = enumerate_cliques3(graph)
    n = len(cliques)
    closed = task.mode == "closed"
    need_min = 2 if closed else 1

    clique_edges = [_face_edges(t) for t in cliques]
    edges = sorted(graph.edges, key=lambda e: tuple(sorted(e)))
    mult = {e: 0 for e in edges}
    # how many undecided cliques can still cover each edge
    remaining = {e: 0 for e in edges}
    for es in clique_edges:
        for e in es:
            remaining[e] += 1
    for e in edges:
        if remaining[e] < need_min:
            return Catalog(task, [], [])

    links = {v: _LinkState() for v in graph.vertices}
    incident = {v: [e for e in edges if v in e] for v in graph.vertices}

    chosen: list[Triangle] = []
    results: list[tuple[Triangle, ...]] = []

    def uncovered_at(v) -> int:
        return sum(1 for e in incident[v] if mult[e] == 0)

    def feasible_exclude(i: int) -> bool:
        for e in clique_edges[i]:
            if mult[e] + remaining[e] < need_min:
                return False
        return True

    def try_include(i: int) -> bool:
        t = cliques[i]
        for e in clique_edges[i]:
            if mult[e] >= 2:
                return False
        for e in clique_edges[i]:
            mult[e] += 1
        (a, b, c) = t
        links[a].add(b, c)
        links[b].add(a, c)
        links[c].add(a, b)
        for v in t:
            if not links[v].ok_partial(uncovered_at(v)):
                undo_include(i)
                return False
        return True

    def undo_include(i: int):
        t = cliques[i]
        (a, b, c) = t
        links[a].remove(b, c)
        links[b].remove(a, c)
        links[c].remove(a, b)
        for e in clique_edges[i]:
            mult[e] -= 1

    def final_ok() -> bool:
        for e in edges:
            m = mult[e]
            if closed and m != 2:
                return False
            if not closed and not (1 <= m <= 2):
                return False
        return True

    def search(i: int):
        if i == n:
            if final_ok():
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
        if feasible_exclude(i):
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
    classes: list[SurfaceClass] = []
    rejected: list[tuple[Triangulation, SurfaceClass]] = []
    for faces in sorted(face_sets):
        tri = Triangulation(task.graph, faces)
        cls = classify_surface(tri)
        if cls.is_manifold and task.target in (None, cls.name):
            matched.append(tri)
            classes.append(cls)
        else:
            rejected.append((tri, cls))
    return Catalog(task, matched, classes, rejected)


def brute_force_catalog(task: EnumerationTask) -> Catalog:
    """Independent completeness oracle: scan all 2^N subsets of 3-cliques.

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


def complement_pairing(catalog: Catalog) -> tuple[list[tuple[int, int]], list[int]]:
    """Match each triangulation with the one whose faces are its complement
    in the full 3-clique set; returns (pairs, unmatched ids)."""
    graph = catalog.task.graph
    index = {t.faces: i for i, t in enumerate(catalog.triangulations)}
    pairs = []
    unmatched = []
    seen = set()
    for i, t in enumerate(catalog.triangulations):
        if i in seen:
            continue
        j = index.get(complement_faces(graph, t.faces))
        if j is None or j in seen:
            unmatched.append(i)
        else:
            pairs.append((min(i, j), max(i, j)))
            seen.add(i)
            seen.add(j)
    return pairs, unmatched


def complement_faces(graph: LabeledGraph, faces) -> tuple[Triangle, ...]:
    """The 3-cliques of the graph that are not among ``faces``, in
    canonical order."""
    cliques = set(enumerate_cliques3(graph))
    return tuple(sorted(cliques - set(map(tuple, faces))))
