"""``reachable`` against the explicit state search ``reachable_bfs``.

On a board that Wilson's theorem decides, ``reachable`` answers from the
parity certificate; every other board carries both states back to hole 0
through the spanning tree's transports and sifts the residual through
the one hole-0 chain.  Both are checked at
every hole pair against the search, on each side of the theorem, and the
guards check which of the two paths a query takes.  The 3x3 board and a
3x4 board with a diagonal, too large for the search, are checked against
the chain path written out here.
"""

import random

import pytest

from groupoids import games
from groupoids.games import (
    BoardMismatch,
    LabelledState,
    Puzzle,
    grid_puzzle,
    puzzle_groupoid,
    reachable,
    reachable_bfs,
)
from groupoids.holonomy import holonomy
from groupoids.permgroup import Perm, schreier_sims


def puzzle_of(cells: int, *edges: tuple[int, int]) -> Puzzle:
    return Puzzle(cell_count=cells, edges=edges)


def with_diagonal(m: int, n: int) -> Puzzle:
    grid = grid_puzzle(m, n)
    return Puzzle(cell_count=grid.cell_count, edges=grid.edges + ((0, n + 1),))


K4 = puzzle_of(4, (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
K23 = puzzle_of(5, (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))
BOWTIE = puzzle_of(5, (0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2))
TRIANGLE_WITH_TAIL = puzzle_of(5, (0, 1), (1, 2), (2, 0), (2, 3), (3, 4))
THETA0 = puzzle_of(7, (0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1))

# (id, board, group tag of Wilson's verdict or None where the chain decides)
BOARDS = [
    ("2x3", grid_puzzle(2, 3), "A"),
    ("K2,3", K23, "A"),
    ("K4", K4, "S"),
    ("2x3+diagonal", with_diagonal(2, 3), "S"),
    ("4-cycle", grid_puzzle(2, 2), None),
    ("1x4", grid_puzzle(1, 4), None),
    ("bowtie", BOWTIE, None),
    ("triangle+tail", TRIANGLE_WITH_TAIL, None),
]


def random_state(board: Puzzle, hole: int, rng: random.Random) -> LabelledState:
    cells = [c for c in range(board.cell_count) if c != hole]
    rng.shuffle(cells)
    return LabelledState.from_mapping(hole, {str(i + 1): c for i, c in enumerate(cells)})


def shortest_path(board: Puzzle, src: int, dst: int) -> list[int]:
    """A shortest walk from src to dst, both included, by its own search."""
    parent = {src: None}
    todo = [src]
    for u in todo:
        for v in board.neighbors(u):
            if v not in parent:
                parent[v] = u
                todo.append(v)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def slid(occ: dict[int, str], walk: list[int]) -> dict[int, str]:
    """The occupancy after the hole walks along ``walk`` (its first cell
    is the hole's)."""
    occ = dict(occ)
    for here, there in zip(walk, walk[1:]):
        occ[here] = occ.pop(there)
    return occ


def slide(board: Puzzle, state: LabelledState, hole: int, rng: random.Random) -> LabelledState:
    """A random walk of the hole, then a shortest walk on to ``hole``:
    a state reachable from ``state``."""
    walk = [state.hole]
    for _ in range(3 * board.cell_count):
        walk.append(rng.choice(board.neighbors(walk[-1])))
    walk += shortest_path(board, walk[-1], hole)[1:]
    occ = slid({c: p for p, c in state.placement}, walk)
    return LabelledState.from_mapping(hole, {p: c for c, p in occ.items()})


def swapped(state: LabelledState, rng: random.Random) -> LabelledState:
    """The state with two pieces exchanged."""
    cells = dict(state.placement)
    p, q = rng.sample(sorted(cells), 2)
    cells[p], cells[q] = cells[q], cells[p]
    return LabelledState.from_mapping(state.hole, cells)


def hole_pairs(board: Puzzle):
    n = board.cell_count
    return [(a, b) for a in range(n) for b in range(n)]


def check_pair(board: Puzzle, a_hole: int, b_hole: int, rng: random.Random) -> None:
    a = random_state(board, a_hole, rng)
    moved = slide(board, a, b_hole, rng)
    assert moved.hole == b_hole
    assert reachable(board, a, moved) and reachable_bfs(board, a, moved)
    for b in (swapped(moved, rng), random_state(board, b_hole, rng)):
        assert reachable(board, a, b) == reachable_bfs(board, a, b), (a, b)


@pytest.mark.parametrize("name,puzzle,tag", BOARDS, ids=[name for name, _, _ in BOARDS])
def test_every_hole_pair_matches_the_state_search(name, puzzle, tag):
    assert (puzzle.wilson is None) == (tag is None)
    if tag is not None:
        assert puzzle.wilson[0].alternating == (tag == "A")
    rng = random.Random(name)
    for a_hole, b_hole in hole_pairs(puzzle):
        check_pair(puzzle, a_hole, b_hole, rng)


def test_theta0_sampled_hole_pairs_match_the_state_search():
    # 7! placements: a seeded sample of twelve hole pairs
    assert THETA0.wilson is None
    rng = random.Random(7)
    for a_hole, b_hole in rng.sample(hole_pairs(THETA0), 12):
        check_pair(THETA0, a_hole, b_hole, rng)


def chain_path(board: Puzzle, a: LabelledState, b: LabelledState) -> bool:
    """Transport a's pieces along a shortest hole path, then sift the
    residual through the chain of every hole tour at b's hole."""
    occ = slid({c: p for p, c in a.placement}, shortest_path(board, a.hole, b.hole))
    slots = [c for c in range(board.cell_count) if c != b.hole]
    slot_of = {c: i for i, c in enumerate(slots)}
    cell_of_b = dict(b.placement)
    residual = Perm(tuple(slot_of[cell_of_b[occ[c]]] for c in slots))
    tours = holonomy(puzzle_groupoid(board), b.hole).generators
    return schreier_sims(tours, degree=board.piece_count).contains(residual)


@pytest.mark.parametrize("puzzle,alternating", [(grid_puzzle(3, 3), True),
                                                (with_diagonal(3, 4), False)],
                         ids=["3x3", "3x4+diagonal"])
def test_certificate_matches_the_chain_path(puzzle, alternating):
    assert puzzle.wilson[0].alternating == alternating
    rng = random.Random(11)
    for a_hole, b_hole in rng.sample(hole_pairs(puzzle), 10):
        a = random_state(puzzle, a_hole, rng)
        for b in (random_state(puzzle, b_hole, rng), slide(puzzle, a, b_hole, rng)):
            assert reachable(puzzle, a, b) == chain_path(puzzle, a, b)


def count_walks(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real_bfs(*args, **kwargs)

    real_bfs = games.bfs
    monkeypatch.setattr(games, "bfs", counted)
    return calls


@pytest.mark.parametrize("puzzle", [grid_puzzle(3, 3), with_diagonal(2, 3), grid_puzzle(5, 5)],
                         ids=["3x3", "2x3+diagonal", "5x5"])
def test_wilson_board_builds_no_hole_path_and_no_chain(monkeypatch, puzzle):
    assert puzzle.wilson is not None      # the verdict, built once per board
    calls = count_walks(monkeypatch)
    rng = random.Random(5)
    for _ in range(20):
        a = random_state(puzzle, rng.randrange(puzzle.cell_count), rng)
        b = random_state(puzzle, rng.randrange(puzzle.cell_count), rng)
        assert reachable(puzzle, a, b) in (True, False)
    assert calls == []
    assert "hole0" not in vars(puzzle)


@pytest.mark.parametrize("puzzle", [grid_puzzle(2, 2), BOWTIE, THETA0],
                         ids=["2x2", "bowtie", "theta0"])
def test_other_boards_walk_no_hole_path_per_query(monkeypatch, puzzle):
    """The hole-0 group and transports, read once, answer every query:
    no search and no chain is built per query."""
    def refuse(*args, **kwargs):
        raise AssertionError("a query searched the board or built a chain")

    assert puzzle.wilson is None and puzzle.hole0.group.order > 1
    monkeypatch.setattr(games, "bfs", refuse)
    monkeypatch.setattr(games, "holonomy", refuse)
    rng = random.Random(6)
    pairs = [(a, b) for a, b in hole_pairs(puzzle) if a != b]
    for a_hole, b_hole in rng.sample(pairs, 5):
        a = random_state(puzzle, a_hole, rng)
        for b in (slide(puzzle, a, b_hole, rng), random_state(puzzle, b_hole, rng)):
            assert reachable(puzzle, a, b) == reachable_bfs(puzzle, a, b), (a, b)


@pytest.mark.parametrize("hole,placement,message", [
    (9, (("1", 1), ("2", 1), ("3", 2), ("4", 3), ("5", 4)), "no cell 9"),
    (0, (("1", 1), ("1", 1), ("2", 3), ("3", 4), ("4", 5)), "two pieces share a cell"),
    (0, (("1", 1), ("1", 2), ("2", 3), ("3", 4)), "same piece label"),
    (0, (("1", 0), ("1", 1), ("2", 2), ("3", 3), ("4", 4)), "same piece label"),
    (0, (("1", 0), ("2", 1), ("3", 2), ("4", 3), ("5", 4), ("6", 5)), "does not cover"),
    (0, (("1", 1), ("2", 2), ("3", 3), ("4", 4), ("5", 9)), "does not cover"),
    (0, (("1", 1), ("2", 2), ("3", 3), ("4", 4)), "does not cover"),
], ids=["hole-and-shared-cell", "shared-cell-and-label", "label-and-short",
        "label-and-hole-occupied", "hole-occupied", "off-board", "short"])
def test_the_first_broken_rule_names_the_error(hole, placement, message):
    with pytest.raises(BoardMismatch, match=message):
        LabelledState(hole, placement).validate(grid_puzzle(2, 3))


REPEATED = (("1", 1), ("1", 2), ("2", 3), ("3", 4), ("4", 5))
SIX_CYCLE = puzzle_of(6, (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))


@pytest.mark.parametrize("puzzle", [grid_puzzle(2, 3), SIX_CYCLE], ids=["2x3", "6-cycle"])
def test_repeated_piece_labels_are_rejected(puzzle):
    state = LabelledState(0, REPEATED)
    with pytest.raises(BoardMismatch, match="same piece label"):
        state.validate(puzzle)
    with pytest.raises(BoardMismatch, match="same piece label"):
        reachable(puzzle, state, state)
    ordered = LabelledState(0, tuple((str(c), c) for c in range(1, 6)))
    with pytest.raises(BoardMismatch, match="same piece label"):
        reachable(puzzle, ordered, state)
