"""Vertex-labeled graphs, simplicial 2-complexes, and surface classification.

Triangulations here are purely combinatorial: a set of triangles (3-cliques)
over a fixed labeled graph.  Two triangulations are the same object iff their
face sets are equal; all ordering is lexicographic on vertex labels.
"""

from __future__ import annotations

from itertools import combinations

from .numeric import _Value

Triangle = tuple[str, str, str]  # sorted label triple


class LabeledGraph(_Value, frozen=True):
    __slots__ = ("name", "vertices", "edges")

    def __init__(self, name: str, vertices: tuple[str, ...], edges: frozenset[frozenset]):
        self._set_slots(name, vertices, edges)
        for e in edges:
            if len(e) != 2 or not e.issubset(vertices):
                raise ValueError(f"bad edge {set(e)} in graph {name}")

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


class Triangulation(_Value, frozen=True):
    __slots__ = ("graph", "faces")

    def __init__(self, graph: LabeledGraph, faces: tuple[Triangle, ...]):
        self._set_slots(graph, faces)  # faces in canonical order


def _face_edges(f: Triangle) -> tuple[frozenset, frozenset, frozenset]:
    return frozenset((f[0], f[1])), frozenset((f[0], f[2])), frozenset((f[1], f[2]))


class SurfaceClass(_Value, frozen=True):
    __slots__ = ("euler", "orientable", "boundary_components", "is_manifold", "name")

    def __init__(self, euler: int, orientable: bool, boundary_components: int,
                 is_manifold: bool, name: str):
        self._set_slots(euler, orientable, boundary_components, is_manifold, name)


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


def _is_path_or_cycle(adj: dict) -> bool:
    """A nonempty, connected graph of degree <= 2 is one path (boundary
    vertex) or one cycle (interior vertex)."""
    return bool(adj) and all(len(s) <= 2 for s in adj.values()) and len(_components(adj)) == 1


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

    One pass over the faces records each edge's faces with the direction
    the face walks it (+1 from the smaller label to the larger, -1 back)
    and each vertex's link.  The complex is a manifold when every link is
    one path (boundary vertex) or one cycle (interior vertex) and the face
    edges are exactly the graph's edges: link degree <= 2 already puts
    every edge in at most two faces.  Non-manifold complexes get name
    "other/invalid", and manifolds outside the six named surfaces (such as
    an annulus) get "other manifold".
    """
    graph = t.graph
    edge_faces: dict = {}
    links: dict = {v: {} for v in graph.vertices}
    for i, (a, b, c) in enumerate(t.faces):
        # the face walks a -> b -> c -> a; w is the vertex opposite uv
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            edge_faces.setdefault(frozenset((u, v)), []).append((i, 1 if u < v else -1))
            link = links[w]
            link.setdefault(u, set()).add(v)
            link.setdefault(v, set()).add(u)
    manifold = edge_faces.keys() == graph.edges and all(map(_is_path_or_cycle, links.values()))

    boundary_adj: dict = {}
    # faces i and j agree on an edge when they walk it oppositely, so their
    # orientations o satisfy o_i * o_j = -d_i * d_j; every pair on an edge
    # counts, also past two faces
    parity: list = [[] for _ in t.faces]
    for e, fs in edge_faces.items():
        if len(fs) == 1:
            u, v = e
            boundary_adj.setdefault(u, set()).add(v)
            boundary_adj.setdefault(v, set()).add(u)
        for (i, di), (j, dj) in combinations(fs, 2):
            parity[i].append((j, -di * dj))
            parity[j].append((i, -di * dj))
    boundary = len(_components(boundary_adj))

    # spread o = +1 from each face not yet reached, then test every pair
    orient = [0] * len(t.faces)
    for seed in range(len(orient)):
        if not orient[seed]:
            orient[seed] = 1
            stack = [seed]
            while stack:
                i = stack.pop()
                for j, s in parity[i]:
                    if not orient[j]:
                        orient[j] = orient[i] * s
                        stack.append(j)
    orientable = all(orient[j] == o * s for o, ps in zip(orient, parity) for j, s in ps)

    euler = len(graph.vertices) - len(graph.edges) + len(t.faces)
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
