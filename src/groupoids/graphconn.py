"""Connections on regular graphs.

A connection assigns to every oriented edge (x, y) a bijection between
the stars of x and y (a star is the set of oriented edges leaving a
vertex), subject to two axioms: the edge itself crosses to its
reversal, and opposite orientations carry inverse bijections.  Loops in
the graph then acquire holonomy inside the permutations of a star,
exactly parallel to the facet-flip picture; here the star plays the
tangent space.

``validate_connection`` checks the tables in one pass over the graph's
edges and reads each valid table as a slot tuple on the way;
``connection_groupoid`` builds the associated ``Groupoid`` from those
tuples: objects are the vertices, morphisms the star bijections along
edges.  Its holonomy comes from ``holonomy.holonomy``, the engine that
serves complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groupoid import Groupoid
from .holonomy import NotConnected, holonomy
from .homcx import Graph, cycle_graph
from .permgroup import GiantGroup, PermGroup, _mul


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
    """The verdict of :func:`validate_connection`.  A valid connection
    also carries its ``stars``, the :func:`star` of every vertex, and its
    ``flips``: each oriented edge (x, y) mapped to its table as a slot
    tuple, which sends slot s of the star of x (its s-th edge,
    ``stars[x][s]``) to slot ``flips[(x, y)][s]`` of the star of y."""
    ok: bool
    witness: str | None = None
    flips: dict[OrientedEdge, tuple[int, ...]] | None = None
    stars: tuple[tuple[OrientedEdge, ...], ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_connection(c: GraphConnection) -> ConnectionReport:
    """Check both axioms and bijectivity on every oriented edge, and read
    each table as a slot tuple on the way.

    The witness is the first failure in this order: a missing table,
    over the edges (x, y) of ``graph.edges`` and then their reversals
    (y, x); then, over the oriented edges in the same order, a table's
    domain, its image, the crossing of the edge itself, and the inverse
    of its reversal.  The checks run in one pass over ``graph.edges``:
    once (x, y) passes, the table of (y, x) is the inverse on the whole
    star of y, so it meets every axiom unless it has an extra key, and a
    length test is all the reversed tables need.  The reversed table is
    read only once (x, y) has passed its domain, image and crossing.
    """
    d = c.regularity  # raises NotRegular on irregular graphs
    nabla, edges = c.nabla, c.graph.edges
    for e in [*edges, *((y, x) for x, y in edges)]:
        if e not in nabla:
            return ConnectionReport(False, f"missing table for edge {e}")
    stars = tuple(star(c.graph, x) for x in range(c.graph.vertex_count))
    index = [dict(zip(edges_x, range(d))) for edges_x in stars]  # star edge -> its slot
    identity, flips = tuple(range(d)), {}
    for x, y in edges:
        table = nabla[(x, y)]
        try:
            # slot -> edge of x -> edge of y -> slot: two C-level reads
            t = _mul(_mul(stars[x], table), index[y])
        except (KeyError, TypeError):
            # a key is missing or a value is off the star of y, so the table
            # breaks its domain or its image; read item by item, where both
            # read as None and an unhashable value raises TypeError
            t = tuple(map(index[y].get, map(table.get, stars[x])))
            if len(table) != d or None in t and not all(map(table.__contains__, stars[x])):
                return ConnectionReport(False, f"table domain wrong at {(x, y)}")
            return ConnectionReport(False, f"table image wrong at {(x, y)}")
        if len(table) != d:
            return ConnectionReport(False, f"table domain wrong at {(x, y)}")
        if len(set(t)) != d:
            return ConnectionReport(False, f"table image wrong at {(x, y)}")
        if table[(x, y)] != (y, x):
            return ConnectionReport(False, f"edge {(x, y)} must cross to {(y, x)}")
        rev = nabla[(y, x)]
        try:
            back = _mul(_mul(stars[y], rev), index[x])
        except (KeyError, TypeError):
            back = tuple(map(index[x].get, map(rev.get, stars[y])))
        if _mul(t, back) != identity:
            return ConnectionReport(False, f"tables at {(x, y)} and {(y, x)} are not inverse")
        flips[(x, y)], flips[(y, x)] = t, back
    for x, y in edges:
        if len(nabla[(y, x)]) != d:
            return ConnectionReport(False, f"table domain wrong at {(y, x)}")
    return ConnectionReport(True, flips=flips, stars=stars)


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
    """The groupoid of a connection, built from the flips of its one
    :func:`validate_connection` pass.

    Objects are vertices, the vertices of an object are its star, dual
    edge ``rid`` is ``graph.edges[rid]``, and the flip x -> y is the
    table of (x, y) as a slot tuple.  Raises ``InvalidTable`` with the
    witness when a table breaks an axiom.
    """
    report = validate_connection(c)
    if not report:
        raise InvalidTable(report.witness)
    return Groupoid.on_graph(report.stars, c.graph.edges, report.flips)


def connection_holonomy(c: GraphConnection, base: int = 0) -> PermGroup | GiantGroup:
    """Holonomy at a vertex: fundamental-cycle transport of its star.

    The group acts on the star's positions (targets in increasing
    order), so its degree equals the graph's regularity.  It comes from
    :func:`holonomy.holonomy`: a group that Jordan's theorem certifies
    is a ``GiantGroup`` whose ``generators`` are the standard pair, not
    loops.  Raises ``InvalidTable`` with the witness of
    :func:`validate_connection` when a table breaks an axiom.
    """
    g = connection_groupoid(c)
    n = c.graph.vertex_count
    if not 0 <= base < n:
        raise InvalidConnection(f"base {base} is not a vertex; vertices are 0..{n - 1}")
    try:
        return holonomy(g, base).group
    except NotConnected:
        raise InvalidConnection("graph is not connected") from None
