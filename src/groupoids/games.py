"""Game groupoids: sliding puzzles and complex-derived position graphs.

A puzzle groupoid's objects are hole positions (pieces unlabelled); the
piece labels live one level up, in the labelled states that transport
carries around.  ``puzzle_groupoid`` builds it as a ``Groupoid``, whose
holonomy comes from ``holonomy.holonomy`` like that of a complex.
Reachability between labelled states then reduces to a single
membership test in the puzzle's holonomy group.

Wilson's theorem (*Graph puzzles, homotopy, and the alternating
group*, J. Combin. Theory Ser. B 16, 1974) names that group for most
boards: on a 2-connected board that is neither a cycle nor the
seven-cell graph theta_0 it is S_{n-1}, or A_{n-1} when the board is
bipartite.  ``puzzle_holonomy`` returns such a board's group as a
``GiantGroup`` without building a chain, and ``reachable`` answers on
such a board from a parity certificate alone: every state is reachable
under S_{n-1}, and under A_{n-1} the cell permutation, with the hole
counted as a piece, must have the parity of the colour change of the
hole (each move is one transposition and flips the hole's colour).
Both read one verdict and 2-colouring per board (``Puzzle.wilson``).
That parity is the xor of two parities that each belong to one state,
so a state computes its own once (``LabelledState.facts``, with its
placement faults and label tuple), and a query against it costs O(1)
after that.  Every other board (cycles, theta_0, boards with a cut
vertex, the 2x2 board) goes through ``holonomy.holonomy`` once, at
hole 0 (``Puzzle.hole0``), within ``PUZZLE_SLOT_BUDGET``.  Its reach
queries carry both states back to hole 0 through the spanning tree's
transports and test the residual permutation against that one group.

Closed-tour convention: moving the hole one step swaps it with the
piece next to it, so a hole tour around a closed walk shifts the pieces
on the walk one step against the hole's motion.  On the 2x2 board with
cells numbered row-major (0 1 / 2 3), the tour 0 -> 2 -> 3 -> 1 -> 0
sends the piece on 1 to 3, the piece on 3 to 2, and the piece on 2 to
1: a 3-cycle, which generates the whole holonomy group of that board.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import NamedTuple, Sequence

from .complexes import bfs
from .groupoid import Groupoid, _exchange
from .holonomy import HolonomyResult, holonomy
from .homcx import TooLarge
from .permgroup import GiantGroup, Perm, PermGroup, _inv, _parity


PUZZLE_SLOT_BUDGET = 10 ** 6    # hole-piece slots n (n - 1), at about 100 bytes each


class DegenerateBoard(ValueError):
    """Board too small or disconnected."""


class BoardMismatch(ValueError):
    """States belong to a different board."""


@dataclass(frozen=True)
class Puzzle:
    """A board graph; every position leaves exactly one cell unoccupied."""

    cell_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.cell_count < 2:
            raise DegenerateBoard("need at least two cells")
        object.__setattr__(self, "edges", tuple(sorted(
            tuple(sorted(e)) for e in self.edges)))
        for a, b in self.edges:
            if a == b or not (0 <= a < self.cell_count and 0 <= b < self.cell_count):
                raise DegenerateBoard(f"bad edge {(a, b)}")
        if len(bfs(0, self.adjacency.__getitem__)) != self.cell_count:
            raise DegenerateBoard("board graph must be connected")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbours of every cell, built once per board.

        Not a field, so equality and hashing still see only the board."""
        out: list[list[int]] = [[] for _ in range(self.cell_count)]
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return tuple(tuple(sorted(ns)) for ns in out)

    @property
    def piece_count(self) -> int:
        return self.cell_count - 1

    def neighbors(self, cell: int) -> tuple[int, ...]:
        return self.adjacency[cell]

    @cached_property
    def wilson(self) -> tuple[GiantGroup, tuple[int, ...] | None] | None:
        """Wilson's verdict on the board, built once per board: None
        where the theorem does not decide the group, else the group and,
        for A_{n-1}, the cell colours of the board's 2-colouring (None
        for S_{n-1}).

        The theorem decides boards whose simple graph (repeated edges
        only add trivial tours) is 2-connected (at least three cells, no
        cut vertex) and not a cycle, except those with exactly seven
        cells: that excludes theta_0, whose group has order 120, without
        an isomorphism test.  The group is A_{n-1} on a bipartite board,
        else S_{n-1}.  O(V + E).
        """
        simple = [tuple(dict.fromkeys(ns)) for ns in self.adjacency]
        if self.cell_count < 3 or self.cell_count == 7 \
                or all(len(ns) == 2 for ns in simple) or _has_cut_vertex(simple):
            return None
        colours = _two_colouring(simple)
        return GiantGroup(self.piece_count, alternating=colours is not None), colours

    @cached_property
    def hole0(self) -> HolonomyResult:
        """The holonomy of the puzzle groupoid at hole 0, with the
        spanning tree's slot transports to every hole, built once per
        board; only boards that Wilson's theorem leaves undecided read it.
        Raises ``TooLarge`` past ``PUZZLE_SLOT_BUDGET`` (``puzzle_groupoid``)."""
        return holonomy(puzzle_groupoid(self), 0)


def grid_puzzle(m: int, n: int) -> Puzzle:
    """The m x n sliding puzzle board, cells numbered row-major."""
    if m * n < 2:
        raise DegenerateBoard("need at least two cells")
    edges = []
    for r in range(m):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges.append((v, v + 1))
            if r + 1 < m:
                edges.append((v, v + n))
    return Puzzle(cell_count=m * n, edges=tuple(edges))


@lru_cache(maxsize=4096)
def _shared(value: tuple) -> tuple:
    """One tuple per distinct value, so that many states of one board
    share their (label, cell) pairs and their label tuple instead of
    each holding its own."""
    return value


class _StateFacts(NamedTuple):
    """What a labelled state says about itself, whatever the board."""

    fault: str | None           # the first placement fault, if any
    fills: bool                 # the cells and the hole are 0..count
    labels: tuple[str, ...]     # the piece labels, in order
    parity: int | None          # of sigma, when the cells fill 0..count


@dataclass(frozen=True)
class LabelledState:
    """A hole cell plus a bijection from piece labels to occupied cells."""

    hole: int
    placement: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "placement", tuple(sorted(self.placement)))

    @staticmethod
    def from_mapping(hole: int, placement: dict) -> "LabelledState":
        return LabelledState(hole=hole, placement=tuple(
            _shared((str(k), int(v))) for k, v in placement.items()))

    @cached_property
    def facts(self) -> _StateFacts:
        """The state's board-free facts, computed on first use and kept
        (not a field, so equality and hashing still see only the state).

        sigma sends piece i, in label order, to its cell, and the index
        count (the number of pieces) to the hole.  Two states' sigmas
        give the cell permutation that takes one to the other, so its
        parity is the xor of theirs and needs no board."""
        labels = _shared(tuple(map(itemgetter(0), self.placement)))
        cells = tuple(map(itemgetter(1), self.placement))
        count = len(cells)
        occupied = set(cells)
        fault = ("two pieces share a cell" if len(occupied) != count else
                 "two cells hold the same piece label" if len(set(labels)) != count else None)
        occupied.add(self.hole)
        fills = occupied == set(range(count + 1))
        return _StateFacts(fault, fills, labels, _parity(cells + (self.hole,)) if fills else None)

    def validate(self, board: Puzzle) -> None:
        n = board.cell_count
        if not 0 <= self.hole < n:
            raise BoardMismatch(f"no cell {self.hole}")
        facts = self.facts
        if facts.fault is not None:
            raise BoardMismatch(facts.fault)
        # n - 1 pieces and the hole on the n cells 0..n-1
        if len(self.placement) != n - 1 or not facts.fills:
            raise BoardMismatch("placement does not cover the non-hole cells")


def ordered_state(board: Puzzle, hole: int | None = None) -> LabelledState:
    """Pieces \"1\"..\"n-1\" laid out in cell order, hole in the last cell."""
    if hole is None:
        hole = board.cell_count - 1
    cells = [c for c in range(board.cell_count) if c != hole]
    return LabelledState(hole=hole, placement=tuple(
        (str(i + 1), c) for i, c in enumerate(cells)))


def fifteen_puzzle_states() -> tuple[Puzzle, LabelledState, LabelledState]:
    """The classic unsolvable challenge: swap the last two pieces."""
    board = grid_puzzle(4, 4)
    start = ordered_state(board)
    swapped_cells = dict(start.placement)
    swapped_cells["14"], swapped_cells["15"] = swapped_cells["15"], swapped_cells["14"]
    target = LabelledState.from_mapping(start.hole, swapped_cells)
    return board, start, target


def puzzle_groupoid(board: Puzzle) -> Groupoid:
    """The sliding-puzzle groupoid of a board.

    Objects are hole cells; the vertices of an object are the other
    cells, in increasing order, and stand for the pieces on them.  Dual
    edge ``rid`` is board edge ``rid``, and the flip u -> v moves the
    hole from u to v: it sends v to u and fixes every other cell.
    Each of the n objects and each flip holds n - 1 slots, so a board
    with more than ``PUZZLE_SLOT_BUDGET`` slots n (n - 1) is refused
    with ``TooLarge`` before anything is built.
    """
    n = board.cell_count
    if n * (n - 1) > PUZZLE_SLOT_BUDGET:
        raise TooLarge(f"a board of {n} cells exceeds the budget of "
                       f"{PUZZLE_SLOT_BUDGET} hole-piece slots")
    cells = tuple(range(n))
    # cell y sits at slot y - (y > x) of object x
    return Groupoid.on_graph(tuple(cells[:u] + cells[u + 1:] for u in cells), board.edges,
                             {(x, y): _exchange(n - 1, y - (y > x), x - (x > y))
                              for e in board.edges for x, y in (e, e[::-1])})


def _has_cut_vertex(adjacency: Sequence[Sequence[int]]) -> bool:
    """Hopcroft-Tarjan on a connected simple graph, with an explicit
    stack: a non-root vertex u is a cut vertex when some DFS child v has
    low[v] >= disc[u], the root when it has two DFS children."""
    disc = [-1] * len(adjacency)
    low = [0] * len(adjacency)
    disc[0] = 0
    stack = [(0, -1, iter(adjacency[0]))]
    clock, root_children = 1, 0
    while stack:
        u, parent, todo = stack[-1]
        for v in todo:
            if disc[v] < 0:
                disc[v] = low[v] = clock
                clock += 1
                stack.append((v, u, iter(adjacency[v])))
                break
            if v != parent and disc[v] < low[u]:
                low[u] = disc[v]
        else:
            stack.pop()
            if parent == 0:
                root_children += 1
            elif parent > 0:
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    return True
    return root_children > 1


def _two_colouring(adjacency: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """The colours of a connected graph's cells by BFS depth parity, or
    None when some edge joins two cells of one colour (not bipartite)."""
    colour = [0] * len(adjacency)
    for v, p in bfs(0, adjacency.__getitem__).items():
        colour[v] = 0 if p is None else 1 - colour[p]
    if any(colour[u] == colour[v] for u, ns in enumerate(adjacency) for v in ns):
        return None
    return tuple(colour)


def puzzle_holonomy(board: Puzzle, base_hole: int = 0) -> PermGroup | GiantGroup:
    """Holonomy of the puzzle groupoid at a hole position.

    The group acts on piece slots, i.e. the non-hole cells in increasing
    order.  On a board that Wilson's theorem decides (``Puzzle.wilson``)
    it is a ``GiantGroup``, and its ``generators`` are the standard pair
    of S_{n-1} or A_{n-1}, not hole tours.  On any other board it is
    the group of ``Puzzle.hole0``, built once per board from the closed
    hole tours along the fundamental cycles of the board graph; its
    ``generators`` are the tours that enlarged the group, those that
    move the most pieces first.  Any other hole gets that group
    conjugated by the spanning tree's slot transport from hole 0
    (:meth:`PermGroup.conjugate`), so its ``generators`` are the hole-0
    tours carried to the hole: closed hole tours there, though not the
    ones a chain built at that hole would keep.
    """
    if not 0 <= base_hole < board.cell_count:
        raise BoardMismatch(f"no cell {base_hole}")
    if board.wilson is not None:
        return board.wilson[0]
    hol = board.hole0
    # vertex groups of a connected groupoid are conjugate along any path
    return hol.group if base_hole == 0 else hol.group.conjugate(hol.transports[base_hole])


def reachable(board: Puzzle, a: LabelledState, b: LabelledState) -> bool:
    """Can sliding moves turn state a into state b?

    On a board that Wilson's theorem decides (``Puzzle.wilson``) the
    answer is a certificate: always yes under S_{n-1}; under A_{n-1},
    yes exactly when the cell permutation that sends a's cell of each
    piece to b's cell of it, and a's hole to b's hole, has the parity of
    the two holes' colour change; that parity is the xor of the two
    states' own, read from ``LabelledState.facts``, so no permutation is
    built per query.  Every other board carries each state
    back to hole 0 through the inverse of the spanning tree's transport
    to its hole (``Puzzle.hole0``), and tests the permutation that sends
    each piece's hole-0 slot in a to its hole-0 slot in b against the
    hole-0 group.  Holonomy quotients away the path choice, so the tree
    paths give the same answer as any other.
    """
    a.validate(board)
    b.validate(board)
    # validated placements are sorted by label with no label twice
    if a.facts.labels != b.facts.labels:
        raise BoardMismatch("states use different piece labels")
    if board.wilson is not None:
        colours = board.wilson[1]
        # the cell permutation is sigma_b after the inverse of sigma_a
        return colours is None or \
            a.facts.parity ^ b.facts.parity == colours[a.hole] ^ colours[b.hole]
    hol = board.hole0
    back_a, back_b = _inv(hol.transports[a.hole]), _inv(hol.transports[b.hole])
    # cell c sits at slot c - (c > h) of hole h; the labels match in
    # order, so the pairs line up piece by piece
    images = [0] * board.piece_count
    for (_, here), (_, there) in zip(a.placement, b.placement):
        images[back_a[here - (here > a.hole)]] = back_b[there - (there > b.hole)]
    return hol.group.contains(Perm(tuple(images)))


def reachable_bfs(board: Puzzle, a: LabelledState, b: LabelledState) -> bool:
    """Oracle: explicit search over the whole labelled state graph.

    Only for tiny boards; the state count is factorial in the cell
    count.
    """
    a.validate(board)
    b.validate(board)

    def key(hole: int, occ: dict[int, str]):
        return hole, tuple(sorted(occ.items()))

    occ_a = {c: p for p, c in a.placement}
    occ_b = {c: p for p, c in b.placement}
    start = key(a.hole, occ_a)
    goal = key(b.hole, occ_b)
    seen = {start}
    queue = deque([(a.hole, occ_a)])
    while queue:
        hole, occ = queue.popleft()
        if key(hole, occ) == goal:
            return True
        for nxt in board.neighbors(hole):
            occ2 = dict(occ)
            occ2[hole] = occ2.pop(nxt)
            k = key(nxt, occ2)
            if k not in seen:
                seen.add(k)
                queue.append((nxt, occ2))
    return False
