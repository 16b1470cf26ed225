"""Facet-flip groupoids.

Objects are the top cells of a pure complex; an elementary morphism
between two cells adjacent across a ridge is the poset isomorphism
fixing that ridge pointwise (the "flip").  For simplices the flip is
forced on the one remaining vertex; for cubes the pointwise stabilizer
of a facet inside the cube symmetry group is trivial, so the extension
across the shared facet is unique as well.

Each flip is read off the positions of the shared ridge in its two
cells, which the dual multigraph records per edge.  Ridge p of a simplex
drops slot p; a cube's two ridges pair their corners by vertex, and each
pair extends across each side's fixed axis.  The corner map is a cube
symmetry because every `CubicalComplex` checks on construction that its
cells meet in common faces matched by cube symmetries.

Slot s of an object is its s-th vertex in ``object_vertices``, and a
flip is stored once per dual edge, as an image tuple over slots; the
reverse flip is its inverse.  Composites follow the left-to-right
convention of :mod:`permgroup`: a path written source-to-target
multiplies its step tuples with ``_mul`` in reading order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complexes import (
    CubicalComplex,
    DualMultigraph,
    SimplicialComplex,
    _faces_of_dim,
    facet_adjacency,
)
from .permgroup import Perm, SignedPerm, _inv, _mul


class BrokenPath(ValueError):
    """Consecutive path entries are not adjacent via the chosen ridge."""


@dataclass(frozen=True)
class TransportPath:
    """A walk through adjacent cells with its accumulated bijection."""

    facets: tuple[int, ...]
    ridges: tuple[int, ...]
    bijection: dict[int, int]


@dataclass(frozen=True)
class Groupoid:
    """Objects plus the elementary-morphism store and dual multigraph.

    ``flips`` holds one tuple per dual edge (u, v, rid), keyed as in
    ``dual.edges``, which sends slot s of u to slot ``flip[s]`` of v;
    ``flip`` reads either direction, ``vertex_map`` gives it as a map of
    vertices.  Everything is read-only.  ``corner_maps`` is set when
    objects are cubes (cubical complexes and the built-in tribar):
    ``corner_maps[c][i]`` is the vertex at flat corner index i of cube c.
    """

    object_vertices: tuple[tuple, ...]
    dual: DualMultigraph
    flips: dict[tuple[int, int, int], tuple[int, ...]]
    corner_maps: tuple[tuple[int, ...], ...] | None = None

    @property
    def object_count(self) -> int:
        return len(self.object_vertices)

    def flip(self, u: int, v: int, rid: int) -> tuple[int, ...]:
        """The flip u -> v over ridge ``rid``: stored when (u, v, rid) is a
        dual edge, else the inverse of the stored flip v -> u."""
        step = self.flips.get((u, v, rid))
        return _inv(self.flips[(v, u, rid)]) if step is None else step

    def vertex_map(self, u: int, v: int, rid: int) -> dict:
        """The flip u -> v over ridge ``rid`` as a map of vertices."""
        target = self.object_vertices[v]
        return {x: target[s] for x, s in zip(self.object_vertices[u], self.flip(u, v, rid))}

    @staticmethod
    def on_graph(objects: tuple[tuple, ...], edges: tuple[tuple[int, int], ...],
                 flips: Sequence[tuple[int, ...]]) -> "Groupoid":
        """Objects joined along graph edges: dual edge ``rid`` is ``edges[rid]``
        = (x, y), which also names its ridge, and ``flips[rid]`` is its flip."""
        dual = DualMultigraph(len(objects), tuple((*e, rid) for rid, e in enumerate(edges)), edges)
        return Groupoid(objects, dual, dict(zip(dual.edges, flips)))

    @staticmethod
    def from_complex(K: SimplicialComplex | CubicalComplex) -> "Groupoid":
        """Every flip, read off the positions of each dual edge's ridge in
        its two facets (``DualMultigraph.positions``)."""
        dual = facet_adjacency(K)
        if isinstance(K, SimplicialComplex):
            n = K.dim + 1
            flips = {e: _exchange(n, pa, pb) for e, (pa, pb) in zip(dual.edges, dual.positions)}
            return Groupoid(object_vertices=K.facets, dual=dual, flips=flips)
        ridges = _faces_of_dim(K.dim, K.dim - 1)
        # a ridge's first and last corners differ in its free bits alone
        axes = [((1 << K.dim) - 1) ^ r[0] ^ r[-1] for r in ridges]
        order = [tuple(sorted(range(len(c)), key=c.__getitem__)) for c in K.cubes]  # slot -> corner
        slots = [_inv(o) for o in order]
        flips = {}
        for (i, j, rid), (pa, pb) in zip(dual.edges, dual.positions):
            # corner x of i goes to corner addr[x] of j: the two ridges'
            # corners pair by vertex, and each pair extends across the axes
            ci, cj, axis_i, axis_j = K.cubes[i], K.cubes[j], axes[pa], axes[pb]
            at = {cj[y]: y for y in ridges[pb]}
            addr = [0] * len(ci)
            for x in ridges[pa]:
                addr[x] = y = at[ci[x]]
                addr[x ^ axis_i] = y ^ axis_j
            flips[(i, j, rid)] = _mul(_mul(order[i], addr), slots[j])
        return Groupoid(tuple(_mul(o, c) for o, c in zip(order, K.cubes)), dual, flips, K.cubes)


def _exchange(n: int, pa: int, pb: int) -> tuple[int, ...]:
    """The flip between objects of n slots that share all vertices but
    the one at slot pa of the source and pb of the target, in order."""
    rest = [*range(pb), *range(pb + 1, n)]
    return (*rest[:pa], pb, *rest[pa:])


def transport(g: Groupoid, facets: Sequence[int],
              ridges: Sequence[int] | None = None) -> TransportPath:
    """Compose the flips along a facet walk.

    When ridge ids are omitted each consecutive pair must be adjacent via
    exactly one ridge; parallel ridges require explicit ids.
    """
    facets = tuple(facets)
    if not facets:
        raise BrokenPath("empty facet list")
    if ridges is None:
        ridges = []
        for u, v in zip(facets, facets[1:]):
            candidates = [r for r, w in g.dual.adjacency[u] if w == v]
            if not candidates:
                raise BrokenPath(f"facets {u}, {v} are not adjacent")
            if len(candidates) > 1:
                raise BrokenPath(
                    f"facets {u}, {v} share several ridges; pass ridge ids")
            ridges.append(candidates[0])
    ridges = tuple(ridges)
    if len(ridges) != len(facets) - 1:
        raise BrokenPath("need exactly one ridge per step")
    source = g.object_vertices[facets[0]]
    slots = tuple(range(len(source)))
    for u, v, r in zip(facets, facets[1:], ridges):
        try:
            step = g.flip(u, v, r)
        except KeyError:
            raise BrokenPath(f"no flip {u} -> {v} over ridge {r}") from None
        slots = _mul(slots, step)
    target = g.object_vertices[facets[-1]]
    return TransportPath(facets=facets, ridges=ridges,
                         bijection={x: target[s] for x, s in zip(source, slots)})


# The impossible-triangle groupoid: three mutually congruent boxes, each
# side-to-side isometry locally consistent, with a loop composite that
# comes back rotated a quarter turn about the long axis.

_TRIBAR_STEPS = (
    # A -> B: cyclic axis rotation x->y->z->x
    SignedPerm(Perm((1, 2, 0)), (1, 1, 1)),
    # B -> C: the same rotation
    SignedPerm(Perm((1, 2, 0)), (1, 1, 1)),
    # A -> C: reflect x, swap y and z (a rotation of the box, its own inverse)
    SignedPerm(Perm((0, 2, 1)), (-1, 1, 1)),
)


def tribar_groupoid() -> Groupoid:
    """Three 8-vertex boxes A, B, C with hand-coded side isometries.

    The loop composite at A is an order-4 rotation, so the holonomy
    group is cyclic of order 4 even though every single step looks
    perfectly consistent.
    """
    # each box lists its corners in increasing order, so slots are corners
    corners = tuple(tuple(range(8 * box, 8 * box + 8)) for box in range(3))
    edges = ((0, 1, 0), (1, 2, 1), (0, 2, 2))
    flips = {e: tuple(map(sp.apply_index, range(8))) for e, sp in zip(edges, _TRIBAR_STEPS)}
    return Groupoid(object_vertices=corners, dual=DualMultigraph(3, edges, ((), (), ())),
                    flips=flips, corner_maps=corners)
