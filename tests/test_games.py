import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from groupoids import games
from groupoids.corpus import simplex_boundary
from groupoids.games import (
    PUZZLE_SLOT_BUDGET,
    BoardMismatch,
    DegenerateBoard,
    LabelledState,
    Puzzle,
    fifteen_puzzle_states,
    grid_puzzle,
    ordered_state,
    puzzle_holonomy,
    reachable,
    reachable_bfs,
)
from groupoids.groupoid import Groupoid
from groupoids.holonomy import holonomy
from groupoids.homcx import TooLarge
from groupoids.permgroup import recognize


def test_game_groupoid_from_complex():
    K = simplex_boundary(3)
    g = Groupoid.from_complex(K)
    assert g.object_count == 4
    assert len(g.dual.edges) == 6
    single = Groupoid.from_complex(simplex_boundary(3))
    # identical structure to the flip groupoid: same holonomy
    assert holonomy(g).order == holonomy(single).order


def test_single_facet_game():
    from groupoids.complexes import SimplicialComplex
    g = Groupoid.from_complex(SimplicialComplex([[0, 1, 2]]))
    assert g.object_count == 1
    assert g.dual.edges == ()


def test_grid_puzzle_objects():
    assert grid_puzzle(4, 4).cell_count == 16
    assert grid_puzzle(1, 2).cell_count == 2
    assert grid_puzzle(2, 2).cell_count == 4
    with pytest.raises(DegenerateBoard):
        grid_puzzle(1, 1)


def test_puzzle_board_validation():
    with pytest.raises(DegenerateBoard):
        Puzzle(cell_count=4, edges=((0, 1), (2, 3)))  # disconnected
    with pytest.raises(DegenerateBoard):
        Puzzle(cell_count=2, edges=((0, 0),))


def test_two_by_two_tour_convention():
    # the documented 2x2 example: tour 0 -> 2 -> 3 -> 1 -> 0 cycles the
    # three pieces 1 -> 3 -> 2 -> 1
    group = puzzle_holonomy(grid_puzzle(2, 2), base_hole=0)
    assert group.order == 3
    assert recognize(group) == "cyclic(3)"
    (gen,) = [g for g in group.generators if not g.is_identity()]
    # slots are cells 1, 2, 3 in order; piece on 1 goes to 3, etc.
    assert gen.images == (2, 0, 1)


def test_fifteen_puzzle_holonomy():
    group = puzzle_holonomy(grid_puzzle(4, 4), base_hole=15)
    assert group.order == 653837184000
    assert group.order == math.factorial(15) // 2
    assert recognize(group) == "alternating"


def test_path_board_trivial():
    assert puzzle_holonomy(grid_puzzle(1, 5), base_hole=0).order == 1
    assert puzzle_holonomy(grid_puzzle(1, 2), base_hole=0).order == 1


def test_holonomy_base_independence():
    board = grid_puzzle(2, 3)
    orders = {puzzle_holonomy(board, base).order for base in range(6)}
    assert orders == {60}


def test_index_two_on_grids():
    for m, n in ((2, 3), (2, 4), (3, 3)):
        group = puzzle_holonomy(grid_puzzle(m, n), base_hole=0)
        assert group.order == math.factorial(m * n - 1) // 2


def test_fifteen_fourteen_unreachable():
    board, start, swapped = fifteen_puzzle_states()
    assert not reachable(board, start, swapped)
    assert reachable(board, start, start)


def test_three_cycle_reachable():
    board, start, _ = fifteen_puzzle_states()
    cells = dict(start.placement)
    cells["1"], cells["2"], cells["3"] = cells["2"], cells["3"], cells["1"]
    assert reachable(board, start, LabelledState.from_mapping(start.hole, cells))


def test_reachable_different_holes():
    board = grid_puzzle(2, 3)
    start = ordered_state(board, hole=0)
    # slide the hole somewhere else without rearranging relative order
    occ = {c: p for p, c in start.placement}
    path = [0, 1, 2]
    for here, there in zip(path, path[1:]):
        occ[here] = occ.pop(there)
    moved = LabelledState.from_mapping(2, {p: c for c, p in occ.items()})
    assert reachable(board, start, moved)
    assert reachable_bfs(board, start, moved)


def test_state_validation():
    board = grid_puzzle(2, 2)
    with pytest.raises(BoardMismatch):
        reachable(board, ordered_state(board),
                  LabelledState.from_mapping(0, {"1": 0, "2": 1, "3": 2}))


def random_state(board, rng, labels=None):
    cells = list(range(board.cell_count))
    rng.shuffle(cells)
    hole = cells[0]
    labels = labels or [str(i + 1) for i in range(board.cell_count - 1)]
    return LabelledState.from_mapping(hole, dict(zip(labels, cells[1:])))


@pytest.mark.parametrize("board", [
    grid_puzzle(2, 2),
    grid_puzzle(2, 3),
    grid_puzzle(1, 4),
    Puzzle(cell_count=5, edges=((0, 1), (1, 2), (2, 0), (2, 3), (3, 4))),
    Puzzle(cell_count=6, edges=((0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 0))),
])
def test_reachable_matches_bfs(board):
    rng = random.Random(board.cell_count * 7)
    for _ in range(10):
        a = random_state(board, rng)
        b = random_state(board, rng)
        assert reachable(board, a, b) == reachable_bfs(board, a, b)


def test_reachable_is_equivalence_relation():
    board = grid_puzzle(2, 3)
    rng = random.Random(99)
    states = [random_state(board, rng) for _ in range(8)]
    for s in states:
        assert reachable(board, s, s)
    for a in states:
        for b in states:
            assert reachable(board, a, b) == reachable(board, b, a)
    for a in states:
        for b in states:
            for c in states:
                if reachable(board, a, b) and reachable(board, b, c):
                    assert reachable(board, a, c)


def test_undecided_board_past_the_slot_budget_is_refused_before_building(monkeypatch):
    """A 1x2000 path holds 2000 * 1999 slots, past the budget: it is
    refused before any object tuple or flip is made."""
    def refuse(*args):
        raise AssertionError("a flip was built")

    board = grid_puzzle(1, 2000)
    assert board.wilson is None and 2000 * 1999 > PUZZLE_SLOT_BUDGET
    monkeypatch.setattr(games, "_exchange", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="2000 cells exceeds the budget"):
            puzzle_holonomy(board, 3)
        with pytest.raises(TooLarge):
            reachable(board, ordered_state(board), ordered_state(board, hole=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20         # the object tuples alone would take 32 MB
    assert "hole0" not in vars(board)


def test_slot_budget_bounds_n_times_n_minus_1(monkeypatch):
    monkeypatch.setattr(games, "PUZZLE_SLOT_BUDGET", 20)
    assert puzzle_holonomy(grid_puzzle(1, 5), 2).order == 1      # 5 * 4 slots
    assert puzzle_holonomy(grid_puzzle(2, 2), 1).order == 3
    with pytest.raises(TooLarge, match="a board of 6 cells"):
        puzzle_holonomy(grid_puzzle(1, 6), 0)
    # a board that Wilson's theorem decides builds no groupoid at all
    assert puzzle_holonomy(grid_puzzle(3, 3), 4).order == math.factorial(8) // 2


def test_puzzle_demo_prints_its_verdicts():
    script = Path(__file__).resolve().parents[1] / "scripts" / "puzzle_demo.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "4x4 swapped-pair position: unreachable" in lines
    assert "2x2 with hole fixed: 3 of 6 arrangements reachable" in lines
    assert lines[0] == "2x2: holonomy order 3 (cyclic(3)), index 2 in the full piece group"
