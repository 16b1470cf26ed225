"""``LabelledState.facts``: each state validates once and carries its parity.

``reference_validate`` and ``reference_wilson_reach`` are ``validate``
and the Wilson rule of ``reachable`` as they were before the facts were
cached on the state: every check rebuilt per call, and the parity read
from the cell permutation of the two states.  The cached path must raise
the same error, with the same message, on every malformed state, and
give the same answer on every pair.
"""

import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from groupoids import games
from groupoids.games import (
    BoardMismatch,
    LabelledState,
    Puzzle,
    grid_puzzle,
    ordered_state,
    reachable,
    reachable_bfs,
)
from groupoids.permgroup import _parity


def reference_validate(state: LabelledState, board: Puzzle) -> None:
    n, count = board.cell_count, len(state.placement)
    if not 0 <= state.hole < n:
        raise BoardMismatch(f"no cell {state.hole}")
    occupied = set(map(itemgetter(1), state.placement))
    if len(occupied) != count:
        raise BoardMismatch("two pieces share a cell")
    if len(set(map(itemgetter(0), state.placement))) != count:
        raise BoardMismatch("two cells hold the same piece label")
    occupied.add(state.hole)
    if count != n - 1 or len(occupied) != n or not occupied.issuperset(range(n)):
        raise BoardMismatch("placement does not cover the non-hole cells")


def reference_wilson_reach(board: Puzzle, a: LabelledState, b: LabelledState) -> bool:
    reference_validate(a, board)
    reference_validate(b, board)
    if list(map(itemgetter(0), a.placement)) != list(map(itemgetter(0), b.placement)):
        raise BoardMismatch("states use different piece labels")
    colours = board.wilson[1]
    if colours is None:
        return True
    images = [0] * board.cell_count
    images[a.hole] = b.hole
    for (_, here), (_, there) in zip(a.placement, b.placement):
        images[here] = there
    return _parity(images) == colours[a.hole] ^ colours[b.hole]


def outcome(check, *args):
    try:
        return check(*args)
    except BoardMismatch as e:
        return str(e)


BOARDS = (grid_puzzle(1, 4), grid_puzzle(2, 3), grid_puzzle(3, 3))


def fresh(state: LabelledState) -> LabelledState:
    """An equal state with nothing cached yet."""
    return LabelledState(state.hole, state.placement)


def pieces(count: int, cells: list[int], labels: list[str]) -> tuple:
    return tuple(zip(labels[:count], cells[:count]))


@st.composite
def malformed(draw):
    """A state near a valid one on a board of up to nine cells, broken by
    one or more of: a repeated cell, a repeated label, the hole among
    the cells, a cell off the board or below 0, too few or too many
    pieces."""
    n = draw(st.integers(2, 9))
    hole = draw(st.integers(0, n - 1))
    cells = [c for c in range(n) if c != hole]
    draw(st.randoms(use_true_random=False)).shuffle(cells)
    labels = [str(i + 1) for i in range(n + 1)]
    count = n - 1
    for fault in draw(st.lists(st.sampled_from(
            ["cell", "label", "hole", "off", "negative", "short", "long", "far-hole"]),
            max_size=3)):
        if fault == "cell" and cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(cells))
        elif fault == "label" and count > 1:
            labels[draw(st.integers(0, count - 1))] = draw(st.sampled_from(labels[:count]))
        elif fault == "hole" and cells:
            cells[draw(st.integers(0, len(cells) - 1))] = hole
        elif fault == "off" and cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.integers(n, n + 3))
        elif fault == "negative" and cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.integers(-3, -1))
        elif fault == "short":
            count = draw(st.integers(0, count))
        elif fault == "long":
            count += 1
            cells.append(draw(st.integers(-1, n + 1)))
        elif fault == "far-hole":
            hole = draw(st.sampled_from([-1, n, n + 5]))
    return LabelledState(hole, pieces(count, cells, labels))


@settings(max_examples=400, deadline=None)
@given(malformed())
def test_validate_raises_what_the_reference_raises(state):
    # one state object against every board: the facts cached on the
    # first call must serve the others
    for board in BOARDS:
        assert outcome(state.validate, board) == outcome(reference_validate, state, board)
    assert state == fresh(state) and hash(state) == hash(fresh(state))


@pytest.mark.parametrize("first", [0, 1], ids=["small-first", "large-first"])
def test_one_state_against_boards_of_two_sizes(first):
    """The facts hold no board: a state that fills the 2x3 board is
    valid there and short on the 3x3 board, in either order, and a hole
    on the 3x3 board is off the 2x3 board."""
    small, large = grid_puzzle(2, 3), grid_puzzle(3, 3)
    state = ordered_state(small)
    for board in ((small, large), (large, small))[first]:
        if board is small:
            state.validate(board)
        else:
            with pytest.raises(BoardMismatch, match="does not cover"):
                state.validate(board)
    far = ordered_state(large, hole=7)
    far.validate(large)
    with pytest.raises(BoardMismatch, match="no cell 7"):
        far.validate(small)
    far.validate(large)


def random_state(board: Puzzle, rng: random.Random) -> LabelledState:
    hole = rng.randrange(board.cell_count)
    cells = [c for c in range(board.cell_count) if c != hole]
    rng.shuffle(cells)
    return LabelledState.from_mapping(hole, {str(i + 1): c for i, c in enumerate(cells)})


def test_a_target_parity_is_computed_once_for_many_queries(monkeypatch):
    board = grid_puzzle(5, 5)
    assert board.wilson[1] is not None           # A_24: the parity decides
    calls = []

    def counted(images):
        calls.append(tuple(images))
        return _parity(images)

    monkeypatch.setattr(games, "_parity", counted)
    rng = random.Random(22)
    target = ordered_state(board)
    states = [random_state(board, rng) for _ in range(1000)]
    answers = [reachable(board, s, target) for s in states]
    sigma = tuple(c for _, c in target.placement) + (target.hole,)
    assert calls.count(sigma) == 1
    assert len(calls) == 1001                     # one per state, none per query
    assert [reachable(board, s, target) for s in states] == answers
    assert len(calls) == 1001
    assert 0 < sum(answers) < 1000


def test_labels_are_shared_by_the_states_of_a_board():
    board = grid_puzzle(3, 3)
    rng = random.Random(3)
    a, b = random_state(board, rng), random_state(board, rng)
    assert a.facts.labels is b.facts.labels


def test_states_with_other_labels_are_refused():
    board = grid_puzzle(2, 3)
    a = ordered_state(board)
    b = LabelledState(a.hole, tuple((p + "x", c) for p, c in a.placement))
    with pytest.raises(BoardMismatch, match="different piece labels"):
        reachable(board, a, b)


def test_random_pairs_on_2x3_match_the_state_search():
    board = grid_puzzle(2, 3)
    rng = random.Random(23)
    seen = set()
    for _ in range(150):
        a, b = random_state(board, rng), random_state(board, rng)
        got = reachable(board, a, b)
        assert got == reachable_bfs(board, a, b), (a, b)
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("board", [grid_puzzle(5, 5), grid_puzzle(3, 4),
                                   Puzzle(cell_count=6, edges=grid_puzzle(2, 3).edges + ((0, 4),))],
                         ids=["5x5", "3x4", "2x3+diagonal"])
def test_random_pairs_match_the_cell_permutation_parity(board):
    assert board.wilson is not None
    rng = random.Random(board.cell_count)
    states = [random_state(board, rng) for _ in range(60)]
    for a in states[:30]:
        for b in states[30:]:
            assert reachable(board, a, b) == reference_wilson_reach(board, fresh(a), fresh(b))
