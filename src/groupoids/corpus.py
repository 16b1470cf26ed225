"""Complex generators and the seeded random corpus.

Everything here is deterministic: named constructors for the bundled
examples, and a seeded generator mixing grid subcomplexes, cube
skeletons, square strips with optional twisted gluings, and vertex
identifications.  Grid-drawn items carry their lattice coordinates so
parity colorings can be checked against the 1-skeleton.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

from .complexes import (
    ComplexError,
    CubicalComplex,
    SimplicialComplex,
    bfs,
    tree_path,
)
from .invariants import AdjacentVertices, SharedCell, quotient_identify


def cycle_complex(n: int) -> SimplicialComplex:
    """The n-cycle as a pure 1-dimensional complex."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return SimplicialComplex([[i, (i + 1) % n] for i in range(n)])


def simplex_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex: all d-subsets of its d+1 vertices."""
    return SimplicialComplex([list(c) for c in combinations(range(d + 1), d)])


def octahedron_boundary() -> SimplicialComplex:
    """Eight triangles picking one vertex from each antipodal pair.

    The dual of the cube; balanced, so its holonomy is trivial.
    """
    facets = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return SimplicialComplex(facets)


def triangle_strip(n: int) -> SimplicialComplex:
    """n triangles glued in a path; the dual graph is a tree."""
    return SimplicialComplex([[i, i + 1, i + 2] for i in range(n)])


def _intern() -> tuple[dict, "function"]:
    table: dict = {}

    def vid(key):
        if key not in table:
            table[key] = len(table)
        return table[key]

    return table, vid


def grid_patch(w: int, h: int, cells=None):
    """Unit squares of a w x h grid (or a chosen subset of cell origins).

    Returns (complex, coords) where coords[v] is the lattice point of
    vertex v.
    """
    if cells is None:
        cells = [(x, y) for x in range(w) for y in range(h)]
    table, vid = _intern()
    cubes = []
    for x, y in cells:
        cubes.append((vid((x, y)), vid((x + 1, y)), vid((x, y + 1)), vid((x + 1, y + 1))))
    K = CubicalComplex(cubes)
    coords = [None] * len(table)
    for point, v in table.items():
        coords[v] = point
    return K, coords


def cube_grid_patch(w: int, h: int, d: int, cells=None):
    """Unit 3-cubes of a w x h x d grid (or a subset)."""
    if cells is None:
        cells = [(x, y, z) for x in range(w) for y in range(h) for z in range(d)]
    table, vid = _intern()
    cubes = []
    for x, y, z in cells:
        corners = [0] * 8
        # vertices are numbered in product order, coordinate 2 fastest, which
        # is not flat corner order
        for i, j, k in product((0, 1), repeat=3):
            corners[i | j << 1 | k << 2] = vid((x + i, y + j, z + k))
        cubes.append(tuple(corners))
    K = CubicalComplex(cubes)
    coords = [None] * len(table)
    for point, v in table.items():
        coords[v] = point
    return K, coords


def single_cube(k: int) -> CubicalComplex:
    """One solid k-cube."""
    return CubicalComplex([range(1 << k)])


def cube_skeleton(d: int, k: int):
    """The k-skeleton of the d-cube as a pure k-dimensional complex.

    Returns (complex, coords) with coords in sign-vector form {-1,+1}^d.
    """
    if not 1 <= k < d:
        raise ValueError("need 1 <= k < d")
    cubes = []
    for free in combinations(range(d), k):
        frozen = [c for c in range(d) if c not in free]
        for mask in range(1 << len(frozen)):
            # vertex v of the d-cube has coordinate j equal to bit j of v
            base = sum(((mask >> i) & 1) << c for i, c in enumerate(frozen))
            cubes.append(tuple(base + sum(((sub >> i) & 1) << c for i, c in enumerate(free))
                               for sub in range(1 << k)))
    K = CubicalComplex(cubes)
    coords = [tuple(2 * ((v >> j) & 1) - 1 for j in range(d))
              for v in range(K.vertex_count)]
    return K, coords


def strip_complex(n: int, twisted: bool = False) -> CubicalComplex:
    """n unit squares glued in a cycle, optionally with one reversed
    gluing (a combinatorial Moebius band).

    Transport around the band reverses the along-strip direction once
    per square and the across-strip direction once per twist, so the
    loop's signed parity is (n + twists) mod 2.
    """
    if n < 3:
        raise ValueError("a strip cycle needs at least 3 squares")
    a = list(range(n))            # one rail
    b = list(range(n, 2 * n))     # other rail
    cubes = [(a[i], a[i + 1], b[i], b[i + 1]) for i in range(n - 1)]
    if twisted:
        cubes.append((a[n - 1], b[0], b[n - 1], a[0]))
    else:
        cubes.append((a[n - 1], a[0], b[n - 1], b[0]))
    return CubicalComplex(cubes)


def quotient_example() -> CubicalComplex:
    """A 3x3 grid patch with two opposite-parity corner vertices merged.

    Holonomy is untouched (the flip table never sees the labels), yet
    the 1-skeleton gains an odd cycle: the two invariants split.
    """
    K, coords = grid_patch(3, 3)
    u = coords.index((0, 0))
    v = coords.index((3, 0))
    return quotient_identify(K, u, v)


@dataclass(frozen=True)
class CorpusItem:
    name: str
    kind: str
    complex: CubicalComplex
    coords: list | None = None


def random_corpus(seed: int, count: int) -> list[CorpusItem]:
    """Seeded stream of small cubical complexes of mixed character."""
    rng = random.Random(seed)
    items: list[CorpusItem] = []
    while len(items) < count:
        i = len(items)
        kind = rng.choices(
            ("grid_subset", "cube3d_subset", "strip", "quotient", "cube_skeleton"),
            weights=(40, 15, 25, 10, 10))[0]
        try:
            if kind == "grid_subset":
                w, h = rng.randint(2, 4), rng.randint(2, 4)
                cells = [c for c in product(range(w), range(h)) if rng.random() < 0.6]
                if not cells:
                    continue
                K, coords = grid_patch(w, h, cells)
                items.append(CorpusItem(f"grid{w}x{h}-{i}", kind, K, coords))
            elif kind == "cube3d_subset":
                w, h, d = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
                cells = [c for c in product(range(w), range(h), range(d))
                         if rng.random() < 0.7]
                if not cells:
                    continue
                K, coords = cube_grid_patch(w, h, d, cells)
                items.append(CorpusItem(f"cubes{w}x{h}x{d}-{i}", kind, K, coords))
            elif kind == "strip":
                n = rng.randint(3, 8)
                twisted = rng.random() < 0.5
                K = strip_complex(n, twisted)
                items.append(CorpusItem(
                    f"strip{n}{'t' if twisted else ''}-{i}", kind, K))
            elif kind == "quotient":
                item = _random_quotient(rng, i)
                if item is None:
                    continue
                items.append(item)
            else:
                d, k = rng.choice(((3, 2), (4, 2), (4, 3)))
                K, coords = cube_skeleton(d, k)
                items.append(CorpusItem(f"skel{d}-{k}-{i}", kind, K, coords))
        except ComplexError:
            continue
    return items


def _random_quotient(rng: random.Random, i: int) -> CorpusItem | None:
    w, h = rng.randint(2, 3), rng.randint(2, 3)
    K, _ = grid_patch(w, h)
    adj: dict[int, set[int]] = {v: set() for v in range(K.vertex_count)}
    for a, b in K.skeleton_edges:
        adj[a].add(b)
        adj[b].add(a)
    for _attempt in range(20):
        u = rng.randrange(K.vertex_count)
        v = rng.randrange(K.vertex_count)
        # the full grid is connected, so the search always reaches v
        if u == v or len(tree_path(bfs(u, adj.__getitem__), v)) - 1 < 3:
            continue
        try:
            return CorpusItem(f"quotient{w}x{h}-{i}", "quotient",
                              quotient_identify(K, u, v))
        except (AdjacentVertices, SharedCell, ComplexError):
            continue
    return None


def bundled_dir() -> Path:
    """Directory of the bundled corpus files.

    The GROUPOID_CORPUS_DIR environment variable overrides the copy
    shipped inside the package.
    """
    override = os.environ.get("GROUPOID_CORPUS_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "corpus_data"
