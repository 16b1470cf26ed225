"""Seeded inputs for the benchmark, built without the program.

Every generator here is plain Python over dicts and tuples, so that the
inputs (and the oracles in ``oracles.py`` that read them) do not depend
on the code under test.  Complexes come out in the program's JSON wire
format; boards as (cell count, edge list); connections as nabla tables
keyed by oriented edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product


# ---------------------------------------------------------------- complexes

@dataclass
class ComplexInput:
    """One complex file of the ladder plus what its oracles need."""

    name: str
    data: dict                      # the JSON document handed to the CLI
    coords: list | None = None      # lattice point per vertex id, if drawn in Z^d
    expect: dict = field(default_factory=dict)


def _key(bits) -> str:
    return "".join(str(b) for b in bits)


def _relabel(rng: random.Random, count: int) -> list[int]:
    perm = list(range(count))
    rng.shuffle(perm)
    return perm


def _cubical(name, cubes_by_point, k, rng, coords_by_point, expect) -> ComplexInput:
    """Intern lattice points, relabel them by a seeded permutation, and
    emit the cubical wire format."""
    index: dict = {}
    for cube in cubes_by_point:
        for point in cube.values():
            index.setdefault(point, len(index))
    perm = _relabel(rng, len(index))
    cubes = [{key: perm[index[p]] for key, p in cube.items()} for cube in cubes_by_point]
    coords = [None] * len(index)
    for point, i in index.items():
        coords[perm[i]] = coords_by_point(point)
    return ComplexInput(name, {"kind": "cubical", "dim": k, "cubes": cubes}, coords, expect)


def lattice_grid(dims: tuple[int, ...], rng: random.Random) -> ComplexInput:
    """Every unit cube of a box in Z^len(dims); holonomy is trivial."""
    k = len(dims)
    cubes = []
    for origin in product(*(range(s) for s in dims)):
        cubes.append({_key(bits): tuple(o + b for o, b in zip(origin, bits))
                      for bits in product((0, 1), repeat=k)})
    name = "grid" + "x".join(map(str, dims))
    return _cubical(name, cubes, k, rng, lambda p: p, {"order": 1, "i": 0, "nacl": 0})


def cube_skeleton(d: int, k: int, rng: random.Random) -> ComplexInput:
    """The k-faces of the d-cube, drawn in {0,1}^d."""
    cubes = []
    for free in combinations(range(d), k):
        frozen = [c for c in range(d) if c not in free]
        for fixed in product((0, 1), repeat=len(frozen)):
            cube = {}
            for sub in product((0, 1), repeat=k):
                point = [0] * d
                for c, b in zip(frozen, fixed):
                    point[c] = b
                for c, b in zip(free, sub):
                    point[c] = b
                cube[_key(sub)] = tuple(point)
            cubes.append(cube)
    return _cubical(f"skeleton{d}-{k}", cubes, k, rng, lambda p: p, {"i": 0, "nacl": 0})


def square_strip(n: int, twisted: bool, rng: random.Random) -> ComplexInput:
    """n squares glued in a cycle; a twisted strip closes with a flip.

    Transport around the strip reverses the along-strip direction once
    per square and the across-strip direction once per twist, so the
    parity invariant is (n + twists) mod 2.
    """
    a = [("a", i) for i in range(n)]
    b = [("b", i) for i in range(n)]
    cubes = [{"00": a[i], "10": a[i + 1], "01": b[i], "11": b[i + 1]} for i in range(n - 1)]
    if twisted:
        cubes.append({"00": a[n - 1], "10": b[0], "01": b[n - 1], "11": a[0]})
    else:
        cubes.append({"00": a[n - 1], "10": a[0], "01": b[n - 1], "11": b[0]})
    name = f"strip{n}{'t' if twisted else ''}"
    return _cubical(name, cubes, 2, rng, lambda p: None, {"i": (n + twisted) % 2})


def simplicial_cycle(n: int, rng: random.Random) -> ComplexInput:
    """The n-cycle as a 1-dimensional complex: holonomy Z_2 iff n is odd."""
    perm = _relabel(rng, n)
    facets = [[perm[i], perm[(i + 1) % n]] for i in range(n)]
    return ComplexInput(f"cycle{n}", {"kind": "simplicial", "facets": facets},
                        expect={"order": 2 if n % 2 else 1})


def triangulated_grid(n: int, rng: random.Random) -> ComplexInput:
    """An n x n grid with every square cut along the same diagonal.

    The colouring x + y mod 3 is rainbow on every triangle, so the
    complex is balanced and its holonomy is trivial.
    """
    perm = _relabel(rng, (n + 1) ** 2)

    def v(x, y):
        return perm[x * (n + 1) + y]

    facets = []
    for x, y in product(range(n), repeat=2):
        facets.append([v(x, y), v(x + 1, y), v(x + 1, y + 1)])
        facets.append([v(x, y), v(x, y + 1), v(x + 1, y + 1)])
    return ComplexInput(f"trigrid{n}", {"kind": "simplicial", "facets": facets},
                        expect={"order": 1})


# ------------------------------------------------------------------- boards

@dataclass(frozen=True)
class BoardInput:
    """A puzzle board graph and the base holes the board pass uses."""

    name: str
    cells: int
    edges: tuple[tuple[int, int], ...]
    holes: tuple[int, ...]
    kind: str          # "wilson", "cycle", "theta0" or "cut"


def grid_edges(m: int, n: int, offset: int = 0) -> list[tuple[int, int]]:
    edges = []
    for r, c in product(range(m), range(n)):
        v = offset + r * n + c
        if c + 1 < n:
            edges.append((v, v + 1))
        if r + 1 < m:
            edges.append((v, v + n))
    return edges


def grid_board(m: int, n: int, holes=None) -> BoardInput:
    cells = m * n
    return BoardInput(f"grid{m}x{n}", cells, tuple(grid_edges(m, n)),
                      tuple(range(cells)) if holes is None else tuple(holes), "wilson")


def diagonal_board(m: int, n: int) -> BoardInput:
    """A grid plus one diagonal in the first square: 2-connected and not
    bipartite, so Wilson's theorem gives the full symmetric group."""
    cells = m * n
    return BoardInput(f"grid{m}x{n}+diag", cells, tuple(grid_edges(m, n) + [(0, n + 1)]),
                      tuple(range(cells)), "wilson")


def cycle_board(n: int) -> BoardInput:
    return BoardInput(f"cycle{n}", n, tuple((i, (i + 1) % n) for i in range(n)),
                      tuple(range(n)), "cycle")


def theta0_board() -> BoardInput:
    """Wilson's exceptional graph: two branch vertices joined by paths
    with one, two and two inner vertices; its group has order 120."""
    edges = ((0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1))
    return BoardInput("theta0", 7, edges, tuple(range(7)), "theta0")


def twin_grid_board(m: int, n: int) -> BoardInput:
    """Two m x n grids sharing one cell (a cut vertex): not 2-connected,
    so Wilson's theorem does not apply."""
    cells = 2 * m * n - 1
    offset = m * n - 1
    edges = grid_edges(m, n) + grid_edges(m, n, offset)
    return BoardInput(f"twin{m}x{n}", cells, tuple(edges), tuple(range(cells)), "cut")


def pendant_board(m: int, n: int, tail: int) -> BoardInput:
    """An m x n grid with a path of ``tail`` cells hanging off its last cell."""
    cells = m * n + tail
    edges = grid_edges(m, n) + [(m * n - 1 + i, m * n + i) for i in range(tail)]
    return BoardInput(f"grid{m}x{n}+tail{tail}", cells, tuple(edges),
                      tuple(range(cells)), "cut")


# -------------------------------------------------------------- connections

def random_connection(n: int, rng: random.Random) -> dict:
    """A seeded random connection on the complete graph K_n.

    Each oriented edge (x, y) sends itself to (y, x) and the rest of the
    star of x to the rest of the star of y by a random bijection; the
    reverse edge carries the inverse table, so both axioms hold.
    """
    nabla = {}
    for x, y in combinations(range(n), 2):
        sx = [(x, w) for w in range(n) if w not in (x, y)]
        sy = [(y, w) for w in range(n) if w not in (x, y)]
        rng.shuffle(sy)
        table = {(x, y): (y, x)}
        table.update(zip(sx, sy))
        nabla[(x, y)] = table
        nabla[(y, x)] = {dst: src for src, dst in table.items()}
    return {"n": n, "edges": tuple(combinations(range(n), 2)), "nabla": nabla}


# ----------------------------------------------------------------- scrambles

def scramble(cells: int, rng: random.Random) -> tuple[int, dict[str, int]]:
    """A uniformly random position: a hole cell and a placement of the
    pieces "1".."cells-1" on the other cells."""
    order = list(range(cells))
    rng.shuffle(order)
    hole = order[0]
    return hole, {str(i + 1): c for i, c in enumerate(order[1:])}
