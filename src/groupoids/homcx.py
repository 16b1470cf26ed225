"""Cell complexes of multivalued graph maps.

A cell of the complex between graphs G and H assigns each vertex of G a
nonempty subset of H's vertices so that every choice across a G-edge is
an H-edge; its dimension is the total slack sum(|eta(i)| - 1).  These
complexes between an edge and a complete graph are spheres, and the
flip of the edge induces a free involution on them; both facts are
checked combinatorially here (cell counts, Euler characteristics, fixed
points), with no topological realization built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence


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


def graph_by_name(name: str) -> Graph:
    """Parse \"k5\", \"c7\", or \"p4\" into the corresponding graph."""
    name = name.strip().lower()
    kind, num = name[:1], name[1:]
    if not num.isdigit():
        raise ValueError(f"cannot parse graph name {name!r}")
    n = int(num)
    if kind == "k":
        return complete_graph(n)
    if kind == "c":
        return cycle_graph(n)
    if kind == "p":
        return path_graph(n)
    raise ValueError(f"unknown graph family {kind!r}")


@dataclass(frozen=True)
class HomCell:
    """One cell: a nonempty H-vertex set per G-vertex."""

    eta: tuple[frozenset[int], ...]

    @property
    def dim(self) -> int:
        return sum(len(s) - 1 for s in self.eta)

    def support_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v in s) for s in self.eta)


def _validate_cell(G: Graph, H: Graph, cell: HomCell) -> bool:
    if len(cell.eta) != G.vertex_count or any(not s for s in cell.eta):
        return False
    for a, b in G.edges:
        for x in cell.eta[a]:
            for y in cell.eta[b]:
                if not H.has_edge(x, y):
                    return False
    return True


def hom_complex(G: Graph, H: Graph, budget: int = 10 ** 7) -> tuple[HomCell, ...]:
    """Every cell of the complex between G and H, graded by dimension.

    Enumeration backtracks vertex by vertex over subsets of the common
    neighborhood of the already-assigned neighbors; cells come out in
    lexicographic support-mask order, so ids are reproducible.
    """
    h = H.vertex_count
    if ((1 << h) - 1) ** G.vertex_count > budget:
        raise TooLarge("candidate support count exceeds the enumeration budget")
    full = (1 << h) - 1
    adj_mask = [sum(1 << w for w in H.adjacency[v]) for v in range(h)]
    neighbors_before = [
        [u for u in range(i) if G.has_edge(u, i)]
        for i in range(G.vertex_count)
    ]
    cells: list[HomCell] = []
    assignment: list[int] = []

    def submasks(mask: int):
        # nonempty submasks in increasing order
        out = []
        sub = mask
        while sub:
            out.append(sub)
            sub = (sub - 1) & mask
        return sorted(out)

    def allowed_mask(i: int) -> int:
        mask = full
        for u in neighbors_before[i]:
            common = full
            s = assignment[u]
            j = 0
            while s:
                if s & 1:
                    common &= adj_mask[j]
                s >>= 1
                j += 1
            mask &= common
        return mask

    def rec(i: int):
        if i == G.vertex_count:
            eta = tuple(frozenset(v for v in range(h) if m >> v & 1)
                        for m in assignment)
            cells.append(HomCell(eta))
            return
        for sub in submasks(allowed_mask(i)):
            assignment.append(sub)
            rec(i + 1)
            assignment.pop()

    if G.vertex_count:
        rec(0)
    cells.sort(key=lambda c: c.support_masks())
    return tuple(cells)


def f_vector(cells: Sequence[HomCell]) -> tuple[int, ...]:
    """Cell counts by dimension."""
    if not cells:
        return ()
    top = max(c.dim for c in cells)
    counts = [0] * (top + 1)
    for c in cells:
        counts[c.dim] += 1
    return tuple(counts)


def euler_characteristic(cells: Sequence[HomCell]) -> int:
    """Alternating cell-count sum; the empty complex counts 0."""
    return sum((-1) ** c.dim for c in cells)


def is_face(sub: HomCell, sup: HomCell) -> bool:
    return all(a <= b for a, b in zip(sub.eta, sup.eta))


@dataclass(frozen=True)
class SwapActionResult:
    mapping: tuple[int, ...]          # cell index -> image cell index
    fixed_point_free: bool


def induced_swap_action(cells: Sequence[HomCell]) -> SwapActionResult:
    """The involution swapping the two slots of cells over an edge.

    Dimension- and face-relation-preserving by construction; the
    interesting output is whether any cell is fixed.
    """
    if any(len(c.eta) != 2 for c in cells):
        raise ValueError("swap action needs cells over a single edge")
    index = {c: i for i, c in enumerate(cells)}
    mapping = []
    fixed = False
    for c in cells:
        image = HomCell((c.eta[1], c.eta[0]))
        mapping.append(index[image])
        if image == c:
            fixed = True
    return SwapActionResult(tuple(mapping), not fixed)


def restriction_map(G: Graph, cell: HomCell, e: tuple[int, int]) -> HomCell:
    """Forget everything but the two endpoints of an edge of G.

    The edge is taken as an ordered pair; its image is a cell over a
    single edge with slots in that order.
    """
    u, v = e
    if not G.has_edge(u, v):
        raise EdgeNotInGraph(f"{e} is not an edge")
    return HomCell((cell.eta[u], cell.eta[v]))


def precompose_cells(cells: Sequence[HomCell], h: dict[int, int],
                     G_src: Graph, H: Graph) -> tuple[HomCell, ...]:
    """Pull cells back along a graph map h: G_src -> G.

    Each image cell is revalidated against G_src; a non-homomorphism h
    surfaces as a validation failure.
    """
    out = []
    for c in cells:
        image = HomCell(tuple(c.eta[h[i]] for i in range(G_src.vertex_count)))
        if not _validate_cell(G_src, H, image):
            raise ValueError("precomposition produced an invalid cell")
        out.append(image)
    return tuple(out)


@dataclass(frozen=True)
class HomSearchResult:
    found: bool
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.found


def graph_hom_exists(G: Graph, n: int, max_vertices: int = 20) -> HomSearchResult:
    """Is there a graph homomorphism into the complete graph on n
    vertices, i.e. a proper n-coloring?

    Exhaustive backtracking with adjacency pruning; the witness is a
    coloring.
    """
    if G.vertex_count > max_vertices:
        raise TooLarge(f"search capped at {max_vertices} vertices")
    colors: list[int] = []

    def rec(i: int) -> bool:
        if i == G.vertex_count:
            return True
        for c in range(n):
            if all(colors[u] != c for u in G.adjacency[i] if u < i):
                colors.append(c)
                if rec(i + 1):
                    return True
                colors.pop()
        return False

    if rec(0):
        return HomSearchResult(True, tuple(colors))
    return HomSearchResult(False, None)
