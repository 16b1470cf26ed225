"""Facet-flip groupoids.

Objects are the top cells of a pure complex; an elementary morphism
between two cells adjacent across a ridge is the poset isomorphism
fixing that ridge pointwise (the "flip").  For simplices the flip is
forced on the one remaining vertex; for cubes the pointwise stabilizer
of a facet inside the cube symmetry group is trivial, so the extension
across the shared facet is unique as well.  The API still returns a
sequence of morphisms so poset families with genuine multiplicity can
slot in later.

Composites follow the left-to-right convention of :mod:`permgroup`:
a path written source-to-target multiplies its step bijections in
reading order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complexes import (
    CubicalComplex,
    DualMultigraph,
    SimplicialComplex,
    facet_adjacency,
)
from .permgroup import Perm, SignedPerm


class NotAdjacent(ValueError):
    """The given cells do not share the given ridge."""


class BrokenPath(ValueError):
    """Consecutive path entries are not adjacent via the chosen ridge."""


class BaseMismatch(ValueError):
    """Pattern and transport disagree on the base object."""


@dataclass(frozen=True)
class ElemMorphism:
    source: int
    target: int
    ridge: int
    bijection: dict[int, int]

    def inverse(self) -> "ElemMorphism":
        return ElemMorphism(self.target, self.source, self.ridge,
                            {v: u for u, v in self.bijection.items()})


@dataclass(frozen=True)
class TransportPath:
    """A walk through adjacent cells with its accumulated bijection."""

    facets: tuple[int, ...]
    ridges: tuple[int, ...]
    bijection: dict[int, int]

    @property
    def source(self) -> int:
        return self.facets[0]

    @property
    def target(self) -> int:
        return self.facets[-1]

    def to_wire(self) -> list[int]:
        """Alternating facet/ridge id list."""
        out: list[int] = [self.facets[0]]
        for r, f in zip(self.ridges, self.facets[1:]):
            out.extend((r, f))
        return out


@dataclass(frozen=True)
class Pattern:
    """A labelling of one object by reference slots.

    Transporting the pattern along morphisms tracks holonomy concretely:
    the labels move with the cells while the slots stay put.
    """

    facet: int
    labelling: dict[int, int]  # slot -> vertex


@dataclass(frozen=True)
class Groupoid:
    """Objects plus the elementary-morphism store and dual multigraph.

    Construction precomputes the flip table; afterwards everything is
    read-only.  ``corner_maps`` is set when objects are cubes (cubical
    complexes and the built-in tribar), enabling the signed-permutation
    view of morphisms; ``corner_maps[c][i]`` is the vertex at flat corner
    index i of cube c.
    """

    object_vertices: tuple[tuple[int, ...], ...]
    dual: DualMultigraph
    flips: dict[tuple[int, int, int], dict[int, int]]
    corner_maps: tuple[tuple[int, ...], ...] | None = None

    @property
    def object_count(self) -> int:
        return len(self.object_vertices)

    @staticmethod
    def from_complex(K: SimplicialComplex | CubicalComplex) -> "Groupoid":
        dual = facet_adjacency(K)
        flips: dict[tuple[int, int, int], dict[int, int]] = {}
        for i, j, rid in dual.edges:
            ridge = frozenset(dual.ridges[rid])
            bij = _flip_bijection(K, i, j, ridge)
            flips[(i, j, rid)] = bij
            flips[(j, i, rid)] = {v: u for u, v in bij.items()}
        return Groupoid(
            object_vertices=tuple(tuple(sorted(f)) for f in K.facets),
            dual=dual,
            flips=flips,
            corner_maps=K.cubes if isinstance(K, CubicalComplex) else None,
        )


def _flip_bijection(K, i: int, j: int, ridge: frozenset) -> dict[int, int]:
    if isinstance(K, SimplicialComplex):
        a, b = set(K.facets[i]), set(K.facets[j])
        extra_a, extra_b = a - ridge, b - ridge
        if not ridge <= a or not ridge <= b or len(extra_a) != 1 or len(extra_b) != 1:
            raise NotAdjacent(f"facets {i}, {j} do not share ridge {sorted(ridge)}")
        bij = {v: v for v in ridge}
        bij[next(iter(extra_a))] = next(iter(extra_b))
        return bij
    return _cube_flip(K, i, j, ridge)


def _ridge_axis(index: dict[int, int], ridge: frozenset, k: int) -> int:
    """Bitmask of the one corner coordinate that stays constant across
    the ridge, from a cube's vertex -> corner index map."""
    first = index[next(iter(ridge))]
    varying = 0
    for v in ridge:
        varying |= index[v] ^ first
    axis = ~varying & ((1 << k) - 1)
    if axis.bit_count() != 1:
        raise NotAdjacent(f"ridge {sorted(ridge)} is not a facet of the cube")
    return axis


def _cube_flip(K: CubicalComplex, i: int, j: int, ridge: frozenset) -> dict[int, int]:
    ci, cj = K.cubes[i], K.cubes[j]
    index_i, index_j = K.corner_index[i], K.corner_index[j]
    axis_i = _ridge_axis(index_i, ridge, K.dim)
    axis_j = _ridge_axis(index_j, ridge, K.dim)
    # fix the ridge; each corner across it in i lands across it in j
    bij = {v: v for v in ridge}
    bij.update((ci[index_i[v] ^ axis_i], cj[index_j[v] ^ axis_j]) for v in ridge)
    # defensive: the address map must be a cube symmetry
    corner_map_signed(ci, cj, bij)
    return bij


def corner_map_signed(source_corners: tuple[int, ...],
                      target_corners: tuple[int, ...],
                      bijection: dict[int, int]) -> SignedPerm:
    """Extract the signed permutation behind a corner bijection.

    The flat-index map must have the affine form y[p[i]] = x[i] xor c[p[i]];
    anything else is rejected.  Unit corner 1 << i must land one bit away
    from the image of corner 0, at bit p[i].
    """
    k = (len(source_corners) - 1).bit_length()
    target_index = {v: idx for idx, v in enumerate(target_corners)}
    addr = [target_index[bijection[v]] for v in source_corners]
    perm, signs = [], []
    for i in range(k):
        moved = addr[1 << i] ^ addr[0]
        if moved.bit_count() != 1:
            raise ValueError("corner bijection is not induced by a cube symmetry")
        perm.append(moved.bit_length() - 1)
        signs.append(-1 if addr[0] & moved else 1)
    sp = SignedPerm(Perm(tuple(perm)), tuple(signs))
    if any(sp.apply_index(idx) != a for idx, a in enumerate(addr)):
        raise ValueError("corner bijection is not induced by a cube symmetry")
    return sp


def elementary_morphisms(K, facet_i: int, facet_j: int,
                         ridge: Sequence[int]) -> list[ElemMorphism]:
    """All poset isomorphisms facet_i -> facet_j fixing the ridge pointwise.

    For simplices and cubes the list has exactly one entry.
    """
    ridge_set = frozenset(ridge)
    dual = facet_adjacency(K)
    rid = None
    for i, r in enumerate(dual.ridges):
        if frozenset(r) == ridge_set:
            rid = i
            break
    a, b = sorted((facet_i, facet_j))
    if rid is None or (a, b, rid) not in set(dual.edges):
        raise NotAdjacent(
            f"facets {facet_i}, {facet_j} are not adjacent over {sorted(ridge_set)}")
    bij = _flip_bijection(K, facet_i, facet_j, ridge_set)
    return [ElemMorphism(facet_i, facet_j, rid, bij)]


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
    bij = {v: v for v in g.object_vertices[facets[0]]}
    for u, v, r in zip(facets, facets[1:], ridges):
        step = g.flips.get((u, v, r))
        if step is None:
            raise BrokenPath(f"no flip {u} -> {v} over ridge {r}")
        bij = {x: step[y] for x, y in bij.items()}
    return TransportPath(facets=facets, ridges=ridges, bijection=bij)


def transport_pattern(p: Pattern, t: TransportPath) -> Pattern:
    """Carry a slot labelling along a transport path."""
    if p.facet != t.source:
        raise BaseMismatch(f"pattern at {p.facet}, transport starts at {t.source}")
    return Pattern(facet=t.target,
                   labelling={slot: t.bijection[v] for slot, v in p.labelling.items()})


def identity_pattern(g: Groupoid, facet: int) -> Pattern:
    verts = g.object_vertices[facet]
    return Pattern(facet=facet, labelling={i: v for i, v in enumerate(verts)})


# The impossible-triangle groupoid: three mutually congruent boxes, each
# side-to-side isometry locally consistent, with a loop composite that
# comes back rotated a quarter turn about the long axis.

_TRIBAR_STEPS = (
    # A -> B: cyclic axis rotation x->y->z->x
    SignedPerm(Perm((1, 2, 0)), (1, 1, 1)),
    # B -> C: the same rotation
    SignedPerm(Perm((1, 2, 0)), (1, 1, 1)),
    # C -> A: reflect x, swap y and z (still a rotation of the box)
    SignedPerm(Perm((0, 2, 1)), (-1, 1, 1)),
)


def tribar_groupoid() -> Groupoid:
    """Three 8-vertex boxes A, B, C with hand-coded side isometries.

    The loop composite at A is an order-4 rotation, so the holonomy
    group is cyclic of order 4 even though every single step looks
    perfectly consistent.
    """
    k = 3
    corners = tuple(tuple(8 * obj + idx for idx in range(1 << k)) for obj in range(3))
    edges = ((0, 1, 0), (1, 2, 1), (0, 2, 2))
    step_for_edge = {
        (0, 1, 0): _TRIBAR_STEPS[0],
        (1, 2, 1): _TRIBAR_STEPS[1],
        (2, 0, 2): _TRIBAR_STEPS[2],
    }
    flips: dict[tuple[int, int, int], dict[int, int]] = {}
    for (src, dst, rid), sp in step_for_edge.items():
        bij = {corners[src][idx]: corners[dst][sp.apply_index(idx)] for idx in range(1 << k)}
        flips[(src, dst, rid)] = bij
        flips[(dst, src, rid)] = {v: u for u, v in bij.items()}
    dual = DualMultigraph(node_count=3, edges=edges, ridges=((), (), ()))
    return Groupoid(
        object_vertices=tuple(tuple(c) for c in corners),
        dual=dual,
        flips=flips,
        corner_maps=corners,
    )
