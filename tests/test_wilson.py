"""Wilson's theorem as the fast path of ``puzzle_holonomy``, checked
against the chain of the hole tours: every connected board of up to
five cells at every hole, the same boards with a doubled edge, the four
seven-cell theta graphs, and seeded random 2-connected boards.  Two
groups agree when they have the same order and each contains the
other's generators."""

import contextlib
import io
import json
import math
import random
from itertools import combinations, permutations

import pytest

from groupoids.cli import main
from groupoids.games import (
    DegenerateBoard,
    Puzzle,
    grid_puzzle,
    puzzle_groupoid,
    puzzle_holonomy,
)
from groupoids.holonomy import holonomy
from groupoids.permgroup import (
    DegreeMismatch,
    GiantGroup,
    Perm,
    PermGroup,
    recognize,
    schreier_sims,
)


def chain_group(board: Puzzle, hole: int) -> PermGroup:
    """The chain path: ``schreier_sims`` of every hole tour."""
    tours = holonomy(puzzle_groupoid(board), hole).generators
    return schreier_sims(tours, degree=board.piece_count)


def random_perm(m: int, rng: random.Random) -> Perm:
    images = list(range(m))
    rng.shuffle(images)
    return Perm(tuple(images))


def assert_same_group(board: Puzzle, hole: int, rng: random.Random):
    """The fast path against the chain path at one hole; returns the
    fast path's group."""
    fast = puzzle_holonomy(board, hole)
    chain = chain_group(board, hole)
    assert fast.degree == chain.degree == board.piece_count
    assert fast.order == chain.order
    assert recognize(fast) == recognize(chain)
    assert all(chain.contains(g) for g in fast.generators)
    assert all(fast.contains(g) for g in chain.generators)
    m = board.piece_count
    if m <= 4:
        probes = [Perm(p) for p in permutations(range(m))]
    else:
        probes = [random_perm(m, rng) for _ in range(12)]
    for p in probes:
        assert fast.contains(p) == chain.contains(p)
    return fast


def two_connected_by_search(board: Puzzle) -> bool:
    """At least three cells, and no cell whose removal disconnects the
    rest."""
    n = board.cell_count
    if n < 3:
        return False
    for cut in range(n):
        rest = [c for c in range(n) if c != cut]
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            u = stack.pop()
            for v in board.adjacency[u]:
                if v != cut and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) < n - 1:
            return False
    return True


def connected_boards(max_cells: int):
    for n in range(2, max_cells + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            try:
                yield Puzzle(cell_count=n, edges=edges)
            except DegenerateBoard:
                continue


def one_per_isomorphism_class(boards):
    """The first board of each isomorphism class."""
    seen = set()
    for board in boards:
        if (board.cell_count, board.edges) in seen:
            continue
        for p in permutations(range(board.cell_count)):
            seen.add((board.cell_count, tuple(sorted(
                tuple(sorted((p[a], p[b]))) for a, b in board.edges))))
        yield board


SMALL_BOARDS = list(connected_boards(5))
SMALL_CLASSES = list(one_per_isomorphism_class(SMALL_BOARDS))


def test_wilson_boards_are_the_two_connected_non_cycles():
    # every labelled board: the cut-vertex search and the cycle test
    # against removing each cell in turn
    assert len(SMALL_BOARDS) == 1 + 4 + 38 + 728
    giants = 0
    for board in SMALL_BOARDS:
        simple_cycle = all(len(set(ns)) == 2 for ns in board.adjacency)
        expect_giant = two_connected_by_search(board) and not simple_cycle
        assert (board.wilson is not None) == expect_giant, board
        giants += expect_giant
    # 10 and 238 labelled 2-connected graphs on 4 and 5 cells (OEIS
    # A013922), less 3 and 12 labelled cycles
    assert giants == (10 - 3) + (238 - 12)


def test_small_boards_at_every_hole():
    rng = random.Random(1)
    assert len(SMALL_CLASSES) == 1 + 2 + 6 + 21
    for board in SMALL_CLASSES:
        giant = board.wilson is not None
        for hole in range(board.cell_count):
            assert isinstance(assert_same_group(board, hole, rng), GiantGroup) == giant


def test_small_boards_with_a_doubled_edge():
    rng = random.Random(2)
    for board in SMALL_CLASSES:
        for extra in board.edges:
            doubled = Puzzle(cell_count=board.cell_count, edges=board.edges + (extra,))
            assert len(doubled.edges) == len(board.edges) + 1
            assert (doubled.wilson is None) == (board.wilson is None)
            for hole in range(board.cell_count):
                assert_same_group(doubled, hole, rng)


def test_doubled_edge_cycle_keeps_the_chain():
    board = Puzzle(cell_count=5, edges=((0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    group = puzzle_holonomy(board, 0)
    assert isinstance(group, PermGroup)
    assert group.order == 4
    assert recognize(group) == "cyclic(4)"


def theta_board(a: int, b: int, c: int) -> Puzzle:
    """Cells 0 and 1 joined by three paths with a, b and c inner cells."""
    edges, cell = [], 2
    for inner in (a, b, c):
        path = [0] + list(range(cell, cell + inner)) + [1]
        cell += inner
        edges += zip(path, path[1:])
    return Puzzle(cell_count=cell, edges=tuple(edges))


@pytest.mark.parametrize("paths,order,tag", [
    ((0, 1, 4), 720, "symmetric"),
    ((0, 2, 3), 720, "symmetric"),
    ((1, 1, 3), 360, "alternating"),
    ((1, 2, 2), 120, "other"),      # theta_0, Wilson's exception
])
def test_seven_cell_theta_graphs_keep_the_chain(paths, order, tag):
    board = theta_board(*paths)
    assert board.cell_count == 7
    assert two_connected_by_search(board)
    assert board.wilson is None
    rng = random.Random(3)
    for hole in range(7):
        group = assert_same_group(board, hole, rng)
        assert isinstance(group, PermGroup)
        assert (group.order, recognize(group)) == (order, tag)


def random_two_connected_board(cells: int, bipartite: bool, rng: random.Random) -> Puzzle:
    """A cycle grown by ears (paths between two used cells, chords
    included) until every cell is used, then relabelled; at least one
    ear, so never a cycle.  A bipartite board starts from an even cycle
    and takes only ears that keep its 2-colouring."""
    start = rng.randint(3, cells - 1)
    if bipartite and start % 2:
        start -= 1 if start > 3 else -1
    edges = {(i, (i + 1) % start) for i in range(start)}
    color = [i % 2 for i in range(start)]
    while len(color) < cells or len(edges) == cells:
        a, b = rng.sample(range(len(color)), 2)
        inner = rng.randint(0, min(3, cells - len(color)))
        if bipartite and (inner + color[a] + color[b]) % 2 == 0:
            continue
        if inner == 0 and ((a, b) in edges or (b, a) in edges):
            continue
        path = [a] + list(range(len(color), len(color) + inner)) + [b]
        color += [(color[a] + k) % 2 for k in range(1, inner + 1)]
        edges |= set(zip(path, path[1:]))
    label = list(range(cells))
    rng.shuffle(label)
    return Puzzle(cell_count=cells, edges=tuple((label[a], label[b]) for a, b in edges))


def test_random_two_connected_boards():
    rng = random.Random(4)
    for cells in range(8, 15):
        for bipartite in (False, True):
            board = random_two_connected_board(cells, bipartite, rng)
            assert two_connected_by_search(board)
            for hole in rng.sample(range(cells), 2):
                group = assert_same_group(board, hole, rng)
                assert isinstance(group, GiantGroup)
                assert group.alternating == bipartite


def test_board_with_a_cut_vertex_keeps_the_chain():
    rng = random.Random(5)
    block = random_two_connected_board(8, False, rng)
    # a second copy of the block on cells 7..14, sharing cell 7
    board = Puzzle(cell_count=15, edges=block.edges + tuple(
        (a + 7, b + 7) for a, b in block.edges))
    assert not two_connected_by_search(board)
    for hole in (0, 7, 14):
        assert isinstance(assert_same_group(board, hole, rng), PermGroup)


@pytest.mark.parametrize("m", range(3, 13))
def test_giant_group_alone(m):
    rng = random.Random(m)
    for alternating in (False, True):
        giant = GiantGroup(m, alternating)
        assert giant.order == math.factorial(m) // (2 if alternating else 1)
        chain = schreier_sims(giant.generators, degree=m)
        assert chain.order == giant.order
        assert len(giant.base) == m - (2 if alternating else 1)
        assert all(g.parity() == 0 for g in giant.generators) == alternating
        for _ in range(20):
            p = random_perm(m, rng)
            assert giant.contains(p) == chain.contains(p)
        with pytest.raises(DegreeMismatch):
            giant.contains(Perm.identity(m + 1))
    assert recognize(GiantGroup(m)) == "symmetric"
    assert recognize(GiantGroup(m, True)) == ("cyclic(3)" if m == 3 else "alternating")


def test_twenty_by_twenty_board_builds_no_chain(monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("the chain path ran")

    monkeypatch.setattr("groupoids.games.holonomy", no_chain)
    monkeypatch.setattr("groupoids.permgroup.schreier_sims", no_chain)
    group = puzzle_holonomy(grid_puzzle(20, 20), 0)
    assert group == GiantGroup(399, alternating=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", "puzzle", "holonomy", "--board", "20x20"])
    assert code == 0
    results = json.loads(out.getvalue())["results"]
    assert results["order"] == str(math.factorial(399) // 2)
    assert results["tag"] == "alternating"
