"""Connections on regular graphs.

A connection assigns to every oriented edge (x, y) a bijection between
the stars of x and y (a star is the set of oriented edges leaving a
vertex), subject to two axioms: the edge itself crosses to its
reversal, and opposite orientations carry inverse bijections.  Loops in
the graph then acquire holonomy inside the permutations of a star,
exactly parallel to the facet-flip picture; here the star plays the
tangent space.

Objects of the associated groupoid are the vertices, with morphisms
generated by the star bijections along edges; that identification is
one natural reading and the one implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .homcx import Graph
from .permgroup import Perm, PermGroup, schreier_sims


class NotRegular(ValueError):
    """Connections need a d-regular graph."""


class InvalidConnection(ValueError):
    """The supplied table violates a connection axiom."""


OrientedEdge = tuple[int, int]


def star(graph: Graph, x: int) -> tuple[OrientedEdge, ...]:
    """Oriented edges leaving x, ordered by target vertex."""
    return tuple((x, w) for w in sorted(graph.adjacency[x]))


@dataclass(frozen=True)
class GraphConnection:
    graph: Graph
    nabla: dict[OrientedEdge, dict[OrientedEdge, OrientedEdge]]

    @cached_property
    def regularity(self) -> int:
        degrees = {len(a) for a in self.graph.adjacency}
        if len(degrees) != 1:
            raise NotRegular(f"degrees {sorted(degrees)} are not constant")
        return degrees.pop()


@dataclass(frozen=True)
class ConnectionReport:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_connection(c: GraphConnection) -> ConnectionReport:
    """Check both axioms and bijectivity on every oriented edge."""
    _ = c.regularity  # raises NotRegular on irregular graphs
    oriented = [(x, y) for x, y in c.graph.edges] + \
               [(y, x) for x, y in c.graph.edges]
    for e in oriented:
        if e not in c.nabla:
            return ConnectionReport(False, f"missing table for edge {e}")
    for x, y in oriented:
        table = c.nabla[(x, y)]
        if set(table) != set(star(c.graph, x)):
            return ConnectionReport(False, f"table domain wrong at {(x, y)}")
        if set(table.values()) != set(star(c.graph, y)):
            return ConnectionReport(False, f"table image wrong at {(x, y)}")
        if table[(x, y)] != (y, x):
            return ConnectionReport(
                False, f"edge {(x, y)} must cross to {(y, x)}")
        back = c.nabla[(y, x)]
        for src, dst in table.items():
            if back[dst] != src:
                return ConnectionReport(
                    False, f"tables at {(x, y)} and {(y, x)} are not inverse")
    return ConnectionReport(True)


def cycle_connection(n: int) -> GraphConnection:
    """The unique connection on an n-cycle.

    Two-element stars leave no choice: the crossed edge is forced by
    the first axiom and bijectivity pins the other.
    """
    from .homcx import cycle_graph
    graph = cycle_graph(n)
    nabla = {}
    for x, y in [(a, b) for a, b in graph.edges] + [(b, a) for a, b in graph.edges]:
        sx, sy = star(graph, x), star(graph, y)
        other_x = next(e for e in sx if e != (x, y))
        other_y = next(e for e in sy if e != (y, x))
        nabla[(x, y)] = {(x, y): (y, x), other_x: other_y}
    return GraphConnection(graph, nabla)


def rotation_connection(graph: Graph) -> GraphConnection:
    """Rotate each star through a fixed cyclic order of its neighbors.

    Crossing (x, y) sends the i-th neighbor after y around x to the
    i-th neighbor after x around y, so both axioms hold by symmetry of
    the construction.
    """
    nabla = {}
    for x, y in [(a, b) for a, b in graph.edges] + [(b, a) for a, b in graph.edges]:
        nx = sorted(graph.adjacency[x])
        ny = sorted(graph.adjacency[y])
        rx = nx[nx.index(y):] + nx[:nx.index(y)]
        ry = ny[ny.index(x):] + ny[:ny.index(x)]
        nabla[(x, y)] = {(x, w): (y, z) for w, z in zip(rx, ry)}
    return GraphConnection(graph, nabla)


def connection_holonomy(c: GraphConnection, base: int = 0) -> PermGroup:
    """Holonomy at a vertex: fundamental-cycle transport of its star.

    The group acts on the star's positions (targets in increasing
    order), so its degree equals the graph's regularity.
    """
    report = validate_connection(c)
    if not report:
        raise InvalidConnection(report.witness)
    graph = c.graph
    if not 0 <= base < graph.vertex_count:
        raise InvalidConnection(
            f"base {base} is not a vertex; vertices are 0..{graph.vertex_count - 1}")

    parent: dict[int, int] = {}
    seen = {base}
    queue = [base]
    while queue:
        u = queue.pop(0)
        for v in sorted(graph.adjacency[u]):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                queue.append(v)
    if len(seen) != graph.vertex_count:
        raise InvalidConnection("graph is not connected")

    def transport_to(node: int) -> dict[OrientedEdge, OrientedEdge]:
        hops = [node]
        while hops[-1] != base:
            hops.append(parent[hops[-1]])
        hops.reverse()
        bij = {e: e for e in star(graph, base)}
        for u, v in zip(hops, hops[1:]):
            step = c.nabla[(u, v)]
            bij = {k: step[w] for k, w in bij.items()}
        return bij

    base_star = star(graph, base)
    index = {e: i for i, e in enumerate(base_star)}
    tree = {tuple(sorted((v, u))) for v, u in parent.items()}
    gens = []
    for a, b in graph.edges:
        if (a, b) in tree:
            continue
        fwd = transport_to(a)
        back = {v: k for k, v in transport_to(b).items()}
        loop = {e: back[c.nabla[(a, b)][fwd[e]]] for e in base_star}
        gens.append(Perm(tuple(index[loop[e]] for e in base_star)))
    return schreier_sims(gens, degree=len(base_star))
