"""Vertex-labeled graphs, simplicial 2-complexes, and surface classification.

Triangulations here are purely combinatorial: a set of triangles (3-cliques)
over a fixed labeled graph.  Two triangulations are the same object iff their
face sets are equal; all ordering is lexicographic on vertex labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

Triangle = tuple[str, str, str]  # sorted label triple


@dataclass(frozen=True)
class LabeledGraph:
    name: str
    vertices: tuple[str, ...]
    edges: frozenset[frozenset]

    def __post_init__(self):
        for e in self.edges:
            u, v = sorted(e)
            if u == v or u not in self.vertices or v not in self.vertices:
                raise ValueError(f"bad edge {set(e)} in graph {self.name}")

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges

    def neighbors(self, v: str) -> list[str]:
        return sorted(u for e in self.edges if v in e for u in e if u != v)


def build_graph(name: str) -> LabeledGraph:
    """Construct one of the named graphs with canonical vertex labels.

    k2222 is K_8 on A..H minus the perfect matching {AE, BF, CG, DH};
    octahedron is K_{2,2,2} on B,C,D,F,G,H minus {BF, CG, DH}.
    """
    if name == "k2222":
        vertices = tuple("ABCDEFGH")
        forbidden = {frozenset(p) for p in ("AE", "BF", "CG", "DH")}
    elif name == "k6":
        vertices = ("A", "B", "C", "D", "E", "O")
        forbidden = set()
    elif name == "k5":
        vertices = tuple("ABCDE")
        forbidden = set()
    elif name == "octahedron":
        vertices = tuple("BCDFGH")
        forbidden = {frozenset(p) for p in ("BF", "CG", "DH")}
    else:
        raise ValueError(f"unknown graph name: {name!r}")
    edges = frozenset(
        frozenset(p) for p in combinations(vertices, 2) if frozenset(p) not in forbidden
    )
    return LabeledGraph(name, vertices, edges)


def enumerate_cliques3(graph: LabeledGraph) -> list[Triangle]:
    """All 3-cliques of the graph, in canonical (lexicographic) order."""
    return [
        t
        for t in combinations(graph.vertices, 3)
        if graph.has_edge(t[0], t[1])
        and graph.has_edge(t[0], t[2])
        and graph.has_edge(t[1], t[2])
    ]


@dataclass(frozen=True)
class Triangulation:
    graph: LabeledGraph
    faces: tuple[Triangle, ...]  # canonical order

    @staticmethod
    def from_faces(graph: LabeledGraph, faces) -> "Triangulation":
        canon = tuple(sorted(set(map(tuple, faces))))
        t = Triangulation(graph, canon)
        t.validate()
        return t

    def validate(self):
        counts = edge_face_counts(self)
        for e in self.graph.edges:
            if counts.get(e, 0) < 1:
                raise ValueError(f"edge {sorted(e)} not covered by any face")
        for e, c in counts.items():
            if e not in self.graph.edges:
                raise ValueError(f"face edge {sorted(e)} not in graph")
            if c > 2:
                raise ValueError(f"edge {sorted(e)} lies in {c} > 2 faces")


def _face_edges(f: Triangle) -> tuple[frozenset, frozenset, frozenset]:
    return frozenset((f[0], f[1])), frozenset((f[0], f[2])), frozenset((f[1], f[2]))


def _edge_faces(faces) -> dict:
    """Edge -> indices of the faces that contain it."""
    out: dict = {}
    for i, f in enumerate(faces):
        for e in _face_edges(f):
            out.setdefault(e, []).append(i)
    return out


def edge_face_counts(t: Triangulation) -> dict:
    return {e: len(fs) for e, fs in _edge_faces(t.faces).items()}


@dataclass(frozen=True)
class SurfaceClass:
    euler: int
    orientable: bool
    boundary_components: int
    is_manifold: bool
    name: str


def _components(adj: dict) -> list[set]:
    """Vertex sets of the connected components of an adjacency map."""
    comps: list[set] = []
    seen: set = set()
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def _link_graph(t: Triangulation, v: str) -> dict:
    """Adjacency (neighbor -> set of neighbors) of the link of v."""
    adj: dict = {}
    for f in t.faces:
        if v in f:
            u, w = (x for x in f if x != v)
            adj.setdefault(u, set()).add(w)
            adj.setdefault(w, set()).add(u)
    return adj


def _is_path_or_cycle(adj: dict) -> bool:
    """A nonempty, connected graph of degree <= 2 is one path (boundary
    vertex) or one cycle (interior vertex)."""
    return bool(adj) and all(len(s) <= 2 for s in adj.values()) and len(_components(adj)) == 1


def _orientable(faces, edge_faces: dict) -> bool:
    """Propagate face orientations across interior (2-face) edges, seeding
    from every face not yet reached so each component gets a walk."""

    def directed_edges(face, flip):
        u, v, w = face
        order = (u, w, v) if flip else (u, v, w)
        return [(order[0], order[1]), (order[1], order[2]), (order[2], order[0])]

    orient = {}
    for seed in range(len(faces)):
        if seed in orient:
            continue
        orient[seed] = False
        queue = [seed]
        while queue:
            i = queue.pop()
            for u, v in directed_edges(faces[i], orient[i]):
                for j in edge_faces[frozenset((u, v))]:
                    if j == i:
                        continue
                    # consistent orientation: shared edge traversed oppositely
                    need_flip = (u, v) in directed_edges(faces[j], False)
                    if j not in orient:
                        orient[j] = need_flip
                        queue.append(j)
                    elif orient[j] != need_flip:
                        return False
    return True


# (boundary components, Euler characteristic, orientable) -> surface name
_MANIFOLD_NAMES = {
    (0, 2, True): "sphere",
    (0, 0, True): "torus",
    (0, 0, False): "Klein bottle",
    (0, 1, False): "projective plane",
    (1, 1, True): "disk",
    (1, 0, False): "Möbius band",
}


def classify_surface(t: Triangulation) -> SurfaceClass:
    """Classify the underlying surface of a simplicial 2-complex.

    Manifoldness requires every vertex link to be a single cycle (interior
    vertex) or single path (boundary vertex); non-manifold complexes get
    name "other/invalid", and manifolds outside the six named surfaces
    (such as an annulus) get "other manifold".
    """
    V = len(t.graph.vertices)
    E = len(t.graph.edges)
    F = len(t.faces)
    euler = V - E + F

    edge_faces = _edge_faces(t.faces)
    links = {v: _link_graph(t, v) for v in t.graph.vertices}
    manifold = (
        all(_is_path_or_cycle(link) for link in links.values())
        and all(1 <= len(edge_faces.get(e, ())) <= 2 for e in t.graph.edges)
        # a cycle link must use every graph neighbor of the vertex
        and all(set(links[v]) == set(t.graph.neighbors(v)) for v in links)
    )

    boundary_adj: dict = {}
    for e, fs in edge_faces.items():
        if len(fs) == 1:
            u, v = e
            boundary_adj.setdefault(u, set()).add(v)
            boundary_adj.setdefault(v, set()).add(u)
    boundary = len(_components(boundary_adj))
    orientable = _orientable(t.faces, edge_faces)

    if manifold:
        name = _MANIFOLD_NAMES.get((boundary, euler, orientable), "other manifold")
    else:
        name = "other/invalid"

    return SurfaceClass(euler, orientable, boundary, manifold, name)


SURFACE_NAMES = {
    "torus": "torus",
    "projective-plane": "projective plane",
    "moebius": "Möbius band",
    "klein-bottle": "Klein bottle",
    "sphere": "sphere",
    "disk": "disk",
}
