"""Holonomy groups of facet-flip groupoids.

The vertex group at a base object is realized through spanning-tree
fundamental cycles: each non-tree edge of the dual multigraph closes a
loop whose transport permutation is one generator.  Generators act on
the vertex SLOTS of the base object (positions 0..d in sorted vertex
order), not on global ids, so groups are comparable across complexes
and directly track slot labels carried around a loop.  Flips are
slot image tuples already, so transports and loops are products of
tuples (``permgroup._mul``) and no vertex map is built on the way.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .complexes import (
    CubicalComplex,
    SimplicialComplex,
    VertexMap,
    _cube_symmetry,
    check_nondegenerate,
    facet_adjacency,
)
from .groupoid import Groupoid
from .permgroup import (
    GiantGroup,
    Perm,
    PermGroup,
    SignedPerm,
    _inv,
    _mul,
    closure_small,
    jordan_giant,
    recognize,
    schreier_sims,
)


class NotConnected(ValueError):
    """The dual multigraph is not connected."""


class NoSuchObject(ValueError):
    """The base is not an object of the groupoid."""


class NotNondegenerate(ValueError):
    """The supplied vertex map is degenerate."""


@dataclass(frozen=True)
class HolonomyResult:
    base: int
    generators: tuple[Perm, ...]
    tree_edges: tuple[tuple[int, int, int], ...]
    base_vertices: tuple
    signed_generators: tuple[SignedPerm, ...] | None
    outer_order: int
    # slot transport from the base to every reached object, in BFS order
    transports: dict[int, tuple[int, ...]] = field(repr=False, compare=False)

    @property
    def vertex_bijections(self) -> tuple[dict, ...]:
        """Each loop as a self-map of the base's vertices."""
        verts = self.base_vertices
        return tuple(dict(zip(verts, _mul(p.images, verts))) for p in self.generators)

    @cached_property
    def group(self) -> PermGroup | GiantGroup:
        """Built on first use.  :func:`permgroup.jordan_giant` reads the
        loops in tree order.  Only the chain takes them sorted, loops that
        move the most points first: they generate most of the group at
        once, so the chain keeps fewer loops and sifts the rest to the
        identity."""
        degree = len(self.base_vertices)
        giant = jordan_giant(self.generators, degree)
        if giant is not None:
            return giant
        by_moved = sorted(self.generators, reverse=True,
                          key=lambda p: sum(map(operator.ne, p.images, range(degree))))
        return schreier_sims(by_moved, degree=degree)

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def tag(self) -> str:
        return recognize(self.group)

    @property
    def is_proper_subgroup_of_outer(self) -> bool:
        """Whether transport realizes strictly less than every symmetry
        of the object (the obstruction phenomenon)."""
        return self.order < self.outer_order


def is_strongly_connected(K: SimplicialComplex | CubicalComplex) -> bool:
    """Any two facets joined by a chain of ridge-adjacent facets."""
    return facet_adjacency(K).is_connected()


def spanning_tree(g: Groupoid, base: int):
    """BFS tree from the base with lowest-ridge-id tie-breaking.

    Returns the tree edges as (i, j, ridge) with i < j, and the slot
    transport from the base to every reached object, in BFS order; each
    transport extends its parent's by one flip.
    """
    tree: set[tuple[int, int, int]] = set()
    transports = {base: tuple(range(len(g.object_vertices[base])))}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for rid, v in g.dual.adjacency[u]:
            if v not in transports:
                transports[v] = _mul(transports[u], g.flip(u, v, rid))
                tree.add((min(u, v), max(u, v), rid))
                queue.append(v)
    return tree, transports


def holonomy(g: Groupoid, base: int = 0, require_connected: bool = True) -> HolonomyResult:
    """Holonomy group at a base object of a groupoid.

    The group (``HolonomyResult.group``, built on first use) is a
    ``GiantGroup`` when :func:`permgroup.jordan_giant` certifies the loops
    as the symmetric or alternating group; its ``generators`` are then the
    standard pair.  Otherwise it is the stabilizer chain of the loops.
    ``HolonomyResult.generators`` lists every loop either way, and
    ``HolonomyResult.transports`` keeps the spanning tree's transports.

    With ``require_connected`` unset, a disconnected dual graph yields
    the holonomy of the base's component.
    """
    if not 0 <= base < g.object_count:
        raise NoSuchObject(f"base {base} is not an object; objects are 0..{g.object_count - 1}")
    tree, to_base = spanning_tree(g, base)
    if require_connected and len(to_base) != g.object_count:
        raise NotConnected(
            f"dual graph reaches {len(to_base)} of {g.object_count} objects from base")
    closing = [e for e in g.dual.edges if e[0] in to_base and e not in tree]
    # loops outnumber objects (K28 closes 351 loops at 28 vertices): invert
    # each transport once, and only where a loop comes back through it
    back = {j: _inv(to_base[j]) for j in {e[1] for e in closing}}
    loops = [_mul(_mul(to_base[i], g.flips[(i, j, rid)]), back[j]) for i, j, rid in closing]
    # most loops of a complex repeat: one Perm and one symmetry check per distinct loop
    perms = {loop: Perm._of(loop) for loop in loops}
    degree = len(g.object_vertices[base])
    signed, outer = None, math.factorial(degree)
    if g.corner_maps is not None:
        # corner x of the base cube is slot slots[x]; slot s is corner order[s]
        order = tuple(sorted(range(degree), key=g.corner_maps[base].__getitem__))
        slots = _inv(order)
        signed_of = {}
        for loop in perms:
            perm, signs = _cube_symmetry(_mul(_mul(slots, loop), order))
            signed_of[loop] = SignedPerm(Perm(perm), signs)
        signed = tuple(map(signed_of.__getitem__, loops))
        k = (degree - 1).bit_length()
        outer = (1 << k) * math.factorial(k)
    return HolonomyResult(
        base=base,
        generators=tuple(map(perms.__getitem__, loops)),
        tree_edges=tuple(sorted(tree)),
        base_vertices=g.object_vertices[base],
        signed_generators=signed,
        outer_order=outer,
        transports=to_base,
    )


def holonomy_group(K: SimplicialComplex | CubicalComplex,
                   base: int = 0) -> HolonomyResult:
    """Holonomy of the facet-flip groupoid of a complex."""
    return holonomy(Groupoid.from_complex(K), base)


def closed_path_oracle(g: Groupoid, base: int, max_len: int | None = None) -> frozenset[Perm]:
    """Transport permutations of every closed path at the base up to a
    length bound, closed under composition.

    Brute force; intended for complexes with few facets as an
    independent cross-check of the fundamental-cycle generators.
    """
    if max_len is None:
        max_len = 2 * g.object_count
    degree = len(g.object_vertices[base])
    found: set[Perm] = set()
    stack = [(base, tuple(range(degree)), 0)]
    while stack:
        node, slots, length = stack.pop()
        if node == base:
            found.add(Perm(slots))
        if length == max_len:
            continue
        for rid, nxt in g.dual.adjacency[node]:
            step = g.flip(node, nxt, rid)
            stack.append((nxt, tuple(step[s] for s in slots), length + 1))
    return closure_small(found, degree=degree)


def induced_embedding_check(f: VertexMap, base: int = 0) -> bool:
    """Does the functor induced by a non-degenerate map embed holonomy?

    Each holonomy generator of the source, renamed through f, must lie
    in the holonomy group of the target at the image facet, and the
    image subgroup must have the full source order (trivial kernel).
    """
    report = check_nondegenerate(f)
    if not report:
        raise NotNondegenerate(f"map degenerates on face {report.witness}")
    src, dst = f.source, f.target
    if src.dim != dst.dim:
        raise NotNondegenerate(
            f"complexes have different depths {src.dim} and {dst.dim}")
    src_g, dst_g = Groupoid.from_complex(src), Groupoid.from_complex(dst)
    src_hol = holonomy(src_g, base)
    image = [f(v) for v in src_g.object_vertices[base]]
    target_base = next(i for i, verts in enumerate(dst_g.object_vertices)
                       if set(verts) == set(image))
    dst_hol = holonomy(dst_g, target_base)
    # slot s of the source base lands on slot relabel[s] of the target base
    relabel = tuple(map(dst_g.object_vertices[target_base].index, image))
    image_perms = [Perm(_mul(_mul(_inv(relabel), p.images), relabel)) for p in src_hol.generators]
    if not all(dst_hol.group.contains(p) for p in image_perms):
        return False
    return schreier_sims(image_perms, degree=len(image)).order == src_hol.order
