"""Cell complexes of multivalued graph maps.

A cell of the complex between graphs G and H assigns each vertex of G a
nonempty subset of H's vertices so that every choice across a G-edge is
an H-edge; its dimension is the total slack sum(|eta(i)| - 1).  A cell
stores these sets as int masks (bit v for H-vertex v), so dimensions are
bit counts and faces mask inclusions.  The complexes between an edge and
a complete graph are spheres, and the edge flip induces a free involution
on them; both are checked combinatorially (cell counts, Euler
characteristics, fixed points), with no topological realization built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import and_
from typing import Callable, Iterable, Sequence

HOM_BUDGET = 10 ** 7          # candidate supports, (2^|H| - 1)^|G|
HOM_CELL_BUDGET = 10 ** 6     # cells kept, at about 130 bytes each


class TooLarge(RuntimeError):
    """Enumeration would exceed its budget."""


class EdgeNotInGraph(ValueError):
    """The named edge does not belong to the graph."""


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: no loops, no multiedges."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        canon = sorted({tuple(sorted(e)) for e in self.edges})
        for a, b in canon:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise ValueError(f"edge {(a, b)} out of range")
        if len(canon) != len(self.edges):
            raise ValueError("multiedges are not allowed")
        object.__setattr__(self, "edges", tuple(canon))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << w for w in s) for s in self.adjacency)

    def has_edge(self, a: int, b: int) -> bool:
        # range check first: adjacency[-1] would wrap to the last vertex
        return 0 <= a < self.vertex_count and b in self.adjacency[a]


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


_FAMILIES = {"k": complete_graph, "c": cycle_graph, "p": path_graph}


def parse_graph_name(name: str) -> tuple[Callable[[int], Graph], int]:
    """Split \"k5\", \"c7\", or \"p4\" into its graph family and vertex count."""
    name = name.strip().lower()
    kind, num = name[:1], name[1:]
    if not num.isdigit():
        raise ValueError(f"cannot parse graph name {name!r}")
    if kind not in _FAMILIES:
        raise ValueError(f"unknown graph family {kind!r}")
    return _FAMILIES[kind], int(num)


def graph_by_name(name: str) -> Graph:
    """Parse \"k5\", \"c7\", or \"p4\" into the corresponding graph."""
    family, n = parse_graph_name(name)
    return family(n)


def check_budget(g: int, h: int) -> None:
    """Refuse, from the vertex counts alone, the complex between graphs
    on g and h vertices when its (2^h - 1)^g candidate supports exceed
    ``HOM_BUDGET``."""
    cap = HOM_BUDGET.bit_length()
    base = (1 << min(h, cap + 1)) - 1     # above the budget once h > cap
    if (base > 1 and g > cap) or base ** g > HOM_BUDGET:
        raise TooLarge("candidate support count exceeds the enumeration budget")


def _common(adj: Sequence[int], full: int, m: int) -> int:
    """The vertices adjacent to every vertex of mask m."""
    return reduce(and_, (a for x, a in enumerate(adj) if m >> x & 1), full)


@dataclass(frozen=True, init=False, slots=True)
class HomCell:
    """One cell: a nonempty H-vertex set per G-vertex, stored as their
    int masks (bit v is H-vertex v); ``HomCell(eta)`` takes the sets."""

    masks: tuple[int, ...]

    def __init__(self, eta: Iterable[Iterable[int]]):
        object.__setattr__(self, "masks", tuple(sum(1 << v for v in frozenset(s)) for s in eta))

    @classmethod
    def _of(cls, masks: tuple[int, ...]) -> HomCell:
        cell = object.__new__(cls)
        object.__setattr__(cell, "masks", masks)
        return cell

    @property
    def eta(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(v for v in range(m.bit_length()) if m >> v & 1)
                     for m in self.masks)

    @property
    def dim(self) -> int:
        return sum(map(int.bit_count, self.masks)) - len(self.masks)


def _validate_cell(G: Graph, H: Graph, cell: HomCell) -> bool:
    masks, full = cell.masks, (1 << H.vertex_count) - 1
    if len(masks) != G.vertex_count or not all(0 < m <= full for m in masks):
        return False
    return all(masks[b] & ~_common(H.adjacency_masks, full, masks[a]) == 0 for a, b in G.edges)


def hom_complex(G: Graph, H: Graph) -> tuple[HomCell, ...]:
    """Every cell of the complex between G and H, graded by dimension.

    Enumeration backtracks vertex by vertex over the nonempty submasks,
    in increasing order, of the common neighborhood of the already
    assigned neighbors; cells come out in lexicographic mask order, so
    ids are reproducible.  The walk keeps its own stack, ``masks``, so G
    may be deeper than the interpreter's recursion limit.  ``HOM_BUDGET``
    refuses G and H by their candidate count before the walk, and
    ``HOM_CELL_BUDGET`` refuses a complex with more cells than that:
    each batch of cells that share all but the last mask is counted
    before it is built.
    """
    n, full = G.vertex_count, (1 << H.vertex_count) - 1
    check_budget(n, H.vertex_count)
    before = [[u for u in G.adjacency[i] if u < i] for i in range(n)]
    adj = H.adjacency_masks
    cells: list[HomCell] = []
    masks, allowed = [0] * n, [0] * n
    i = 0 if n else -1
    while i >= 0:
        if masks[i]:
            sub = (masks[i] - allowed[i]) & allowed[i]    # the next submask
        else:
            a = reduce(and_, [_common(adj, full, masks[u]) for u in before[i]], full)
            allowed[i], sub = a, -a & a                   # the least one
        if sub and i + 1 < n:
            masks[i] = sub
            i += 1
            continue
        # i is the last vertex or has no submask left: close the cells, back up
        prefix, a = tuple(masks[:i]), allowed[i]
        if sub and len(cells) + (1 << a.bit_count()) - 1 > HOM_CELL_BUDGET:
            raise TooLarge(f"the complex has more than {HOM_CELL_BUDGET} cells")
        while sub:
            cells.append(HomCell._of(prefix + (sub,)))
            sub = (sub - a) & a
        masks[i] = 0
        i -= 1
    return tuple(cells)


def f_vector(cells: Sequence[HomCell]) -> tuple[int, ...]:
    """Cell counts by dimension."""
    counts = Counter(c.dim for c in cells)
    return tuple(counts[d] for d in range(max(counts, default=-1) + 1))


def euler_characteristic(cells: Sequence[HomCell]) -> int:
    """Alternating cell-count sum; the empty complex counts 0."""
    return sum((-1) ** d * count for d, count in enumerate(f_vector(cells)))


def is_face(sub: HomCell, sup: HomCell) -> bool:
    return all(a & ~b == 0 for a, b in zip(sub.masks, sup.masks))


@dataclass(frozen=True)
class SwapActionResult:
    mapping: tuple[int, ...]          # cell index -> image cell index
    fixed_point_free: bool


def induced_swap_action(cells: Sequence[HomCell]) -> SwapActionResult:
    """The involution swapping the two slots of cells over an edge.

    Dimension- and face-relation-preserving by construction; the
    interesting output is whether any cell is fixed.
    """
    pairs = [c.masks for c in cells]
    if any(len(m) != 2 for m in pairs):
        raise ValueError("swap action needs cells over a single edge")
    index = {m: i for i, m in enumerate(pairs)}
    mapping = tuple(index[m1, m0] for m0, m1 in pairs)
    return SwapActionResult(mapping, all(m0 != m1 for m0, m1 in pairs))


def restriction_map(G: Graph, cell: HomCell, e: tuple[int, int]) -> HomCell:
    """Forget everything but the two endpoints of an edge of G.

    The edge is taken as an ordered pair; its image is a cell over a
    single edge with slots in that order.
    """
    u, v = e
    if not G.has_edge(u, v):
        raise EdgeNotInGraph(f"{e} is not an edge")
    return HomCell._of((cell.masks[u], cell.masks[v]))
