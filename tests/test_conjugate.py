"""Conjugated chains: ``PermGroup.conjugate`` against sympy, and puzzle
holonomy at every hole, carried from the hole-0 chain, against a chain
built from scratch at that hole."""

import random

import pytest

from groupoids import games
from groupoids.games import Puzzle, grid_puzzle, puzzle_groupoid, puzzle_holonomy
from groupoids.holonomy import holonomy
from groupoids.permgroup import GiantGroup, Perm, _inv, _mul, schreier_sims


def random_perm(rng: random.Random, degree: int) -> tuple[int, ...]:
    images = list(range(degree))
    rng.shuffle(images)
    return tuple(images)


def small_support_perm(rng: random.Random, degree: int) -> Perm:
    """A random permutation of 2..5 points, so that the group is often
    a proper subgroup."""
    support = rng.sample(range(degree), rng.randint(2, min(5, degree)))
    images = list(range(degree))
    for a, b in zip(support, rng.sample(support, len(support))):
        images[a] = b
    return Perm(tuple(images))


def test_conjugate_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(15)
    for _ in range(30):
        degree = rng.randint(3, 14)
        gens = [small_support_perm(rng, degree) for _ in range(rng.randint(1, 4))]
        group = schreier_sims(gens, degree=degree)
        t = random_perm(rng, degree)
        t_inv = _inv(t)

        def conj(p: tuple[int, ...]) -> tuple[int, ...]:
            return _mul(_mul(t_inv, p), t)

        image = group.conjugate(t)
        want = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(conj(g.images))) for g in gens])
        assert image.order == group.order == want.order()
        assert image.base == tuple(t[b] for b in group.base)
        assert image.generators == tuple(Perm(conj(g.images)) for g in group.generators)
        inside = [tuple(range(degree))]
        for _ in range(6):
            inside.append(_mul(inside[-1], rng.choice(gens).images))
        for p in inside + [random_perm(rng, degree) for _ in range(10)]:
            member = group.contains(Perm(p))
            assert image.contains(Perm(conj(p))) == member
            assert want.contains(combinatorics.Permutation(list(conj(p)))) == member


def test_giant_conjugate_is_itself():
    giant = GiantGroup(6, alternating=True)
    assert giant.conjugate((5, 4, 3, 2, 1, 0)) is giant


def puzzle_of(cells: int, edges) -> Puzzle:
    return Puzzle(cell_count=cells, edges=tuple(edges))


def grid_edges(m: int, n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(e[0] + offset, e[1] + offset) for e in grid_puzzle(m, n).edges]


def cycle(n: int) -> Puzzle:
    return puzzle_of(n, ((i, (i + 1) % n) for i in range(n)))


THETA0 = puzzle_of(7, ((0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1)))
TWIN_3X3 = puzzle_of(17, grid_edges(3, 3) + grid_edges(3, 3, 8))     # share cell 8
GRID_3X3_TAIL = puzzle_of(11, grid_edges(3, 3) + [(8, 9), (9, 10)])
BOWTIE = puzzle_of(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)))
BOARDS = {"theta0": THETA0, "twin3x3": TWIN_3X3, "3x3+tail": GRID_3X3_TAIL,
          "8-cycle": cycle(8), "13-cycle": cycle(13), "bowtie": BOWTIE}


@pytest.mark.parametrize("board", BOARDS.values(), ids=BOARDS.keys())
def test_every_hole_matches_a_chain_built_there(board):
    assert board.wilson is None
    g = puzzle_groupoid(board)
    for hole in range(board.cell_count):
        carried = puzzle_holonomy(board, hole)
        fresh = holonomy(g, hole).group
        assert carried.order == fresh.order
        assert all(fresh.contains(p) for p in carried.generators)
        assert all(carried.contains(p) for p in fresh.generators)


@pytest.mark.parametrize("board", [THETA0, TWIN_3X3, cycle(8)], ids=["theta0", "twin3x3", "8-cycle"])
def test_group_does_not_depend_on_the_order_of_the_holes(monkeypatch, board):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[1:])
        return holonomy(*args, **kwargs)

    monkeypatch.setattr(games, "holonomy", counted)
    holes = range(board.cell_count)
    forward_board, backward_board = (puzzle_of(board.cell_count, board.edges) for _ in range(2))
    forward = {h: puzzle_holonomy(forward_board, h) for h in holes}
    assert builds == [(0,)]     # one hole-0 build per board
    backward = {h: puzzle_holonomy(backward_board, h) for h in reversed(holes)}
    assert builds == [(0,), (0,)]
    for h in holes:
        assert forward[h].generators == backward[h].generators
        assert forward[h].base == backward[h].base
