"""Connections on regular graphs.

A connection assigns to every oriented edge (x, y) a bijection between
the stars of x and y (a star is the set of oriented edges leaving a
vertex), subject to two axioms: the edge itself crosses to its
reversal, and opposite orientations carry inverse bijections.  Loops in
the graph then acquire holonomy inside the permutations of a star,
exactly parallel to the facet-flip picture; here the star plays the
tangent space.

``connection_groupoid`` builds the associated ``Groupoid``: objects are
the vertices, morphisms the star bijections along edges.  Its holonomy
comes from ``holonomy.holonomy``, the engine that serves complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groupoid import Groupoid
from .holonomy import NotConnected, holonomy
from .homcx import Graph, cycle_graph
from .permgroup import GiantGroup, PermGroup


class NotRegular(ValueError):
    """Connections need a d-regular graph."""


class InvalidConnection(ValueError):
    """The connection has no holonomy at the requested base."""


class InvalidTable(InvalidConnection):
    """A table violates a connection axiom; the message is the witness."""


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
    stars = [{(x, w) for w in ws} for x, ws in enumerate(c.graph.adjacency)]
    for x, y in oriented:
        table = c.nabla[(x, y)]
        if table.keys() != stars[x]:
            return ConnectionReport(False, f"table domain wrong at {(x, y)}")
        if set(table.values()) != stars[y]:
            return ConnectionReport(False, f"table image wrong at {(x, y)}")
        if table[(x, y)] != (y, x):
            return ConnectionReport(
                False, f"edge {(x, y)} must cross to {(y, x)}")
        back = c.nabla[(y, x)]
        for src, dst in table.items():
            if back.get(dst) != src:
                return ConnectionReport(
                    False, f"tables at {(x, y)} and {(y, x)} are not inverse")
    return ConnectionReport(True)


def cycle_connection(n: int) -> GraphConnection:
    """The unique connection on an n-cycle.

    Two-element stars leave no choice: the crossed edge is forced by
    the first axiom and bijectivity pins the other, so the rotation
    connection is the only one.
    """
    return rotation_connection(cycle_graph(n))


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


def connection_groupoid(c: GraphConnection) -> Groupoid:
    """The groupoid of a connection whose tables are already validated.

    Objects are vertices, the vertices of an object are its star, dual
    edge ``rid`` is ``graph.edges[rid]``, and the flips are the tables,
    read as slot tuples through one slot index of every star.
    """
    stars = tuple(star(c.graph, x) for x in range(c.graph.vertex_count))
    slot = {e: s for edges in stars for s, e in enumerate(edges)}  # (x, w) -> its slot in star x
    return Groupoid.on_graph(stars, c.graph.edges, lambda x, y: tuple(
        [slot[e] for e in map(c.nabla[(x, y)].__getitem__, stars[x])]))


def connection_holonomy(c: GraphConnection, base: int = 0) -> PermGroup | GiantGroup:
    """Holonomy at a vertex: fundamental-cycle transport of its star.

    The group acts on the star's positions (targets in increasing
    order), so its degree equals the graph's regularity.  It comes from
    :func:`holonomy.holonomy`: a group that Jordan's theorem certifies
    is a ``GiantGroup`` whose ``generators`` are the standard pair, not
    loops.  Raises ``InvalidTable`` with the witness of
    :func:`validate_connection` when a table breaks an axiom.
    """
    report = validate_connection(c)
    if not report:
        raise InvalidTable(report.witness)
    n = c.graph.vertex_count
    if not 0 <= base < n:
        raise InvalidConnection(f"base {base} is not a vertex; vertices are 0..{n - 1}")
    try:
        return holonomy(connection_groupoid(c), base).group
    except NotConnected:
        raise InvalidConnection("graph is not connected") from None
