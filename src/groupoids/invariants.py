"""Obstruction invariants for cubical complexes and transport colorings.

Two Z_2-valued invariants are computed and compared: the holonomy
parity invariant (0 iff every transport loop is an even signed
permutation of cube directions) and the salt-crystal invariant ``nacl``
(0 iff the vertex-edge graph is bipartite).  The first never exceeds
the second, and under global plus local strong connectivity they agree;
vertex identifications build complexes where they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complexes import (
    CubicalComplex,
    SimplicialComplex,
    bfs,
    build_cubical,
    facet_adjacency,
    tree_path,
)
from .groupoid import Groupoid
from .holonomy import NotConnected, holonomy
from .permgroup import all_in_even_subgroup


class AdjacentVertices(ValueError):
    """Identification endpoints share an edge."""


class SharedCell(ValueError):
    """Identification endpoints lie in a common closed cell."""


class NontrivialHolonomy(ValueError):
    """Transport coloring needs trivial holonomy."""


class NotLocallyConnected(ValueError):
    """Some vertex star is not connected as a groupoid."""


class InconsistentExtension(RuntimeError):
    """Path-extended coloring disagreed with itself; a hypothesis of the
    construction is violated.  Reported, never silently repaired."""


@dataclass(frozen=True)
class TwoColoring:
    color: dict[int, int]

    def is_proper(self, edges: Sequence[tuple[int, int]]) -> bool:
        return all(self.color[a] != self.color[b] for a, b in edges)


@dataclass(frozen=True)
class RainbowColoring:
    """Vertex coloring in which every facet sees each color exactly once."""

    color: dict[int, int]

    def is_rainbow(self, K) -> bool:
        for facet in K.facets:
            if len({self.color[v] for v in facet}) != len(facet):
                return False
        return True


@dataclass(frozen=True)
class NaclResult:
    value: int
    coloring: TwoColoring | None
    odd_cycle: tuple[int, ...] | None


def nacl(K: SimplicialComplex | CubicalComplex) -> NaclResult:
    """0 iff the vertex-edge graph is bipartite.

    Carries a witness either way: the 2-coloring by BFS depth parity,
    or the odd cycle closed by the first edge, in visiting order, whose
    ends share a colour.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(K.vertex_count)}
    for a, b in K.skeleton_edges:
        adj[a].append(b)
        adj[b].append(a)
    parent: dict[int, int | None] = {}
    for start in range(K.vertex_count):
        if start not in parent:
            parent |= bfs(start, adj.__getitem__)
    color: dict[int, int] = {}
    for v, p in parent.items():
        color[v] = 0 if p is None else 1 - color[p]
    for u in parent:
        for v in adj[u]:
            if color[u] == color[v]:
                return NaclResult(1, None, _odd_cycle(parent, u, v))
    return NaclResult(0, TwoColoring(color), None)


def _odd_cycle(parent: dict, u: int, v: int) -> tuple[int, ...]:
    up, vp = tree_path(parent, u), tree_path(parent, v)
    # skip the common stem above the least common ancestor up[i]
    i = 0
    while i + 1 < min(len(up), len(vp)) and up[i + 1] == vp[i + 1]:
        i += 1
    cycle = up[i:][::-1] + vp[i + 1:]
    if len(cycle) % 2 == 0:
        raise InconsistentExtension(f"witness cycle {cycle} is even")
    return tuple(cycle)


def i_invariant(K: CubicalComplex) -> int:
    """0 iff every holonomy generator is an even signed permutation.

    Sign parity is a homomorphism onto Z_2, so checking generators
    settles the whole group.  Disconnected complexes are checked one
    dual component at a time.
    """
    g = Groupoid.from_complex(K)
    for component in g.dual.components():
        result = holonomy(g, min(component), require_connected=False)
        if not all_in_even_subgroup(result.signed_generators):
            return 1
    return 0


def locally_strongly_connected(K: SimplicialComplex | CubicalComplex) -> bool:
    """Every vertex star connected through ridges containing the vertex."""
    dual = facet_adjacency(K)
    stars: list[list[int]] = [[] for _ in range(K.vertex_count)]
    for i, f in enumerate(K.facets):
        for v in f:
            stars[v].append(i)
    return all(
        len(bfs(star[0], lambda f: (w for rid, w in dual.adjacency[f]
                                    if v in dual.ridges[rid]))) == len(star)
        for v, star in enumerate(stars) if star)


@dataclass(frozen=True)
class InvariantComparison:
    i: int
    nacl: int
    equal: bool
    strongly_connected: bool
    locally_strongly_connected: bool
    witness_odd_cycle: tuple[int, ...] | None


def compare_invariants(K: CubicalComplex) -> InvariantComparison:
    """Both invariants plus the connectivity hypotheses under which they
    must coincide."""
    n = nacl(K)
    i = i_invariant(K)
    return InvariantComparison(
        i=i,
        nacl=n.value,
        equal=i == n.value,
        strongly_connected=facet_adjacency(K).is_connected(),
        locally_strongly_connected=locally_strongly_connected(K),
        witness_odd_cycle=n.odd_cycle,
    )


def quotient_identify(K: CubicalComplex, u: int, v: int) -> CubicalComplex:
    """Identify two vertices, keeping every cell's corner structure.

    The endpoints must be non-adjacent and must not share a closed
    cell; the merged complex is fully revalidated, so an identification
    that destroys the cell structure fails loudly.
    """
    if u == v:
        raise ValueError("identification endpoints must differ")
    if tuple(sorted((u, v))) in K.skeleton_edges:
        raise AdjacentVertices(f"vertices {u} and {v} share an edge")
    for cube in K.cubes:
        if u in cube and v in cube:
            raise SharedCell(f"vertices {u} and {v} lie in a common cell")
    keep = min(u, v)
    drop = max(u, v)

    def relabel(w: int) -> int:
        if w == drop:
            w = keep
        return w - 1 if w > drop else w

    return build_cubical(tuple(map(relabel, c)) for c in K.cubes)


def lattice_parity_coloring(vertices: Sequence[tuple[int, ...]]) -> TwoColoring:
    """Parity 2-coloring of lattice or sign-vector coordinates.

    Sign vectors (every entry +-1) are colored by the parity of their
    -1 count; integer lattice points by coordinate-sum parity.  Either
    rule flips across any lattice edge, so the coloring is proper on
    the 1-skeleton of any complex drawn in the lattice.
    """
    if all(all(c in (-1, 1) for c in v) for v in vertices):
        return TwoColoring({i: sum(1 for c in v if c < 0) % 2 for i, v in enumerate(vertices)})
    return TwoColoring({i: sum(v) % 2 for i, v in enumerate(vertices)})


def transport_coloring(K: SimplicialComplex | CubicalComplex) -> RainbowColoring:
    """Color all vertices by transporting a base facet's slot labels.

    Needs a strongly connected complex, connected vertex stars, and
    trivial holonomy; each is checked, and the extension is re-validated
    over every dual edge rather than trusted.  Simplicial complexes end
    up with d+1 colors and every facet rainbow.
    """
    g = Groupoid.from_complex(K)
    if not g.dual.is_connected():
        raise NotConnected("transport coloring needs a strongly connected complex")
    if not locally_strongly_connected(K):
        raise NotLocallyConnected("some vertex star is disconnected")
    base_hol = holonomy(g, 0)
    if base_hol.order != 1:
        raise NontrivialHolonomy(f"holonomy has order {base_hol.order}")

    color: dict[int, int] = {}
    for obj, slots in base_hol.transports.items():
        for c, s in enumerate(slots):
            dst = g.object_vertices[obj][s]
            if color.setdefault(dst, c) != c:
                raise InconsistentExtension(
                    f"vertex {dst} received colors {color[dst]} and {c}")
    # re-validate across every flip, tree or not
    for i, j, rid in g.dual.edges:
        for src, dst in g.vertex_map(i, j, rid).items():
            if color[src] != color[dst]:
                raise InconsistentExtension(
                    f"flip {i}->{j} moves color {color[src]} onto {color[dst]}")
    coloring = RainbowColoring(color)
    if not coloring.is_rainbow(K):
        raise InconsistentExtension("a facet failed the rainbow check")
    return coloring

