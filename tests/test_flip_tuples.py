"""Flips as slot image tuples against the vertex-dict construction.

The reference below is the earlier construction, kept as it was (but
for the vertex -> corner index maps, built here per cube): every
flip a dict from vertex to vertex (``_flip_bijection``, and
``_cube_flip`` checked by ``corner_map_signed`` through
``SignedPerm.apply_index``), transports composed as dicts along the BFS
tree, and each loop re-indexed to base slots.  For every dual edge, in
both directions, ``Groupoid.vertex_map`` must equal the reference flip,
and ``holonomy`` must give the reference's generators, vertex
bijections, signed generators and tree edges.  The groupoid stores each
flip once, keyed by its dual edge, while the reference keeps both
directions as dicts, so the reverse read through ``Groupoid.flip`` is
checked against a flip built on its own.
"""

from __future__ import annotations

import math
import random
from collections import deque
from pathlib import Path

import pytest
from test_jordan import random_connection

from groupoids.complexes import CubicalComplex, SimplicialComplex
from groupoids.corpus import bundled_dir, cube_skeleton, random_corpus
from groupoids.games import Puzzle, grid_puzzle, puzzle_groupoid
from groupoids.graphconn import connection_groupoid, cycle_connection, rotation_connection
from groupoids.groupoid import Groupoid, tribar_groupoid
from groupoids.holonomy import holonomy
from groupoids.homcx import complete_graph, cycle_graph
from groupoids.permgroup import Perm, SignedPerm, _mul
from groupoids.serialize import load_complex, load_json, parse_connection

TESTS = Path(__file__).parent


# ------------------------------------------------- reference construction

class NotAdjacent(ValueError):
    """The given cells do not share the given ridge."""


def _flip_bijection(K, i: int, j: int, ridge: frozenset) -> dict[int, int]:
    if isinstance(K, SimplicialComplex):
        a, b = set(K.facets[i]), set(K.facets[j])
        extra_a, extra_b = a - ridge, b - ridge
        if not ridge <= a or not ridge <= b or len(extra_a) != 1 or len(extra_b) != 1:
            raise NotAdjacent(f"facets {i}, {j} do not share ridge {sorted(ridge)}")
        bij = {v: v for v in ridge}
        bij[next(iter(extra_a))] = next(iter(extra_b))
        return bij
    return _cube_flip(K, i, j, ridge)


def _ridge_axis(index: dict[int, int], ridge: frozenset, k: int) -> int:
    """Bitmask of the one corner coordinate that stays constant across
    the ridge, from a cube's vertex -> corner index map."""
    first = index[next(iter(ridge))]
    varying = 0
    for v in ridge:
        varying |= index[v] ^ first
    axis = ~varying & ((1 << k) - 1)
    if axis.bit_count() != 1:
        raise NotAdjacent(f"ridge {sorted(ridge)} is not a facet of the cube")
    return axis


def _cube_flip(K: CubicalComplex, i: int, j: int, ridge: frozenset) -> dict[int, int]:
    ci, cj = K.cubes[i], K.cubes[j]
    index_i, index_j = ({v: x for x, v in enumerate(c)} for c in (ci, cj))
    axis_i = _ridge_axis(index_i, ridge, K.dim)
    axis_j = _ridge_axis(index_j, ridge, K.dim)
    # fix the ridge; each corner across it in i lands across it in j
    bij = {v: v for v in ridge}
    bij.update((ci[index_i[v] ^ axis_i], cj[index_j[v] ^ axis_j]) for v in ridge)
    # defensive: the address map must be a cube symmetry
    corner_map_signed(ci, cj, bij)
    return bij


def corner_map_signed(source_corners: tuple[int, ...],
                      target_corners: tuple[int, ...],
                      bijection: dict[int, int]) -> SignedPerm:
    """Extract the signed permutation behind a corner bijection.

    The flat-index map must have the affine form y[p[i]] = x[i] xor c[p[i]];
    anything else is rejected.  Unit corner 1 << i must land one bit away
    from the image of corner 0, at bit p[i].
    """
    k = (len(source_corners) - 1).bit_length()
    target_index = {v: idx for idx, v in enumerate(target_corners)}
    addr = [target_index[bijection[v]] for v in source_corners]
    perm, signs = [], []
    for i in range(k):
        moved = addr[1 << i] ^ addr[0]
        if moved.bit_count() != 1:
            raise ValueError("corner bijection is not induced by a cube symmetry")
        perm.append(moved.bit_length() - 1)
        signs.append(-1 if addr[0] & moved else 1)
    sp = SignedPerm(Perm(tuple(perm)), tuple(signs))
    if any(sp.apply_index(idx) != a for idx, a in enumerate(addr)):
        raise ValueError("corner bijection is not induced by a cube symmetry")
    return sp


def complex_flips(K) -> dict:
    dual = K.dual
    flips = {}
    for i, j, rid in dual.edges:
        bij = _flip_bijection(K, i, j, frozenset(dual.ridges[rid]))
        flips[(i, j, rid)] = bij
        flips[(j, i, rid)] = {v: u for u, v in bij.items()}
    return flips


def puzzle_flips(board: Puzzle) -> dict:
    cells = tuple(range(board.cell_count))
    others = tuple(cells[:u] + cells[u + 1:] for u in cells)
    flips = {}
    for rid, (a, b) in enumerate(board.edges):
        for u, v in ((a, b), (b, a)):
            flips[(u, v, rid)] = dict(zip(others[u], others[u])) | {v: u}
    return flips


def connection_flips(c) -> dict:
    return {(x, y, rid): c.nabla[(x, y)]
            for rid, (a, b) in enumerate(c.graph.edges) for x, y in ((a, b), (b, a))}


_TRIBAR_STEPS = (
    SignedPerm(Perm((1, 2, 0)), (1, 1, 1)),
    SignedPerm(Perm((1, 2, 0)), (1, 1, 1)),
    SignedPerm(Perm((0, 2, 1)), (-1, 1, 1)),
)


def tribar_flips() -> dict:
    k = 3
    corners = tuple(tuple(8 * obj + idx for idx in range(1 << k)) for obj in range(3))
    step_for_edge = {
        (0, 1, 0): _TRIBAR_STEPS[0],
        (1, 2, 1): _TRIBAR_STEPS[1],
        (2, 0, 2): _TRIBAR_STEPS[2],
    }
    flips = {}
    for (src, dst, rid), sp in step_for_edge.items():
        bij = {corners[src][idx]: corners[dst][sp.apply_index(idx)] for idx in range(1 << k)}
        flips[(src, dst, rid)] = bij
        flips[(dst, src, rid)] = {v: u for u, v in bij.items()}
    return flips


def slot_perm(objects, obj: int, bijection: dict) -> Perm:
    verts = objects[obj]
    index = {v: i for i, v in enumerate(verts)}
    return Perm(tuple(index[bijection[v]] for v in verts))


def reference_holonomy(g: Groupoid, flips: dict, base: int):
    """(generators, vertex bijections, signed generators, tree edges) by
    dict transport along the BFS tree with lowest-ridge tie-breaking."""
    tree = set()
    transports = {base: {v: v for v in g.object_vertices[base]}}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for rid, v in g.dual.adjacency[u]:
            if v not in transports:
                step = flips[(u, v, rid)]
                transports[v] = {x: step[y] for x, y in transports[u].items()}
                tree.add((min(u, v), max(u, v), rid))
                queue.append(v)
    gens, bijections = [], []
    for i, j, rid in g.dual.edges:
        if i not in transports or (i, j, rid) in tree:
            continue
        flip = flips[(i, j, rid)]
        forward = transports[i]
        back = {v: u for u, v in transports[j].items()}
        loop = {x: back[flip[forward[x]]] for x in g.object_vertices[base]}
        bijections.append(loop)
        gens.append(slot_perm(g.object_vertices, base, loop))
    signed = None
    if g.corner_maps is not None:
        base_corners = g.corner_maps[base]
        signed = tuple(corner_map_signed(base_corners, base_corners, b) for b in bijections)
    return tuple(gens), tuple(bijections), signed, tuple(sorted(tree))


# ------------------------------------------------------------------ cases

def _complexes():
    out = []
    for path in sorted(bundled_dir().glob("*.json")):
        if not path.name.endswith(("-state.json", "-connection.json")):
            out.append((path.stem, load_complex(path)))
    for path in sorted((TESTS / "complexes").glob("*-scrambled.json")):
        out.append((path.stem, load_complex(path)))
    for seed in (11, 12):
        out += [(item.name, item.complex) for item in random_corpus(seed, 200)]
    return out


def _boards():
    theta0 = Puzzle(7, ((0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1)))
    boards = {
        "cycle8": Puzzle(8, tuple((i, (i + 1) % 8) for i in range(8))),
        "theta0": theta0,
        "grid2x2": grid_puzzle(2, 2),
        "doubled-edge": Puzzle(4, ((0, 1), (0, 1), (1, 2), (2, 3), (3, 0))),
        "cut-vertex": Puzzle(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2))),
        "tail": Puzzle(5, ((0, 1), (1, 2), (2, 3), (3, 0), (3, 4))),
    }
    assert all(b.wilson is None for b in boards.values())
    return list(boards.items())


def _connections():
    out = [(f"rotation-k{n}", rotation_connection(complete_graph(n))) for n in (4, 5, 6)]
    out += [("rotation-c7", rotation_connection(cycle_graph(7))), ("cycle5", cycle_connection(5))]
    for path in sorted((TESTS / "connections").glob("*-random-connection.json")):
        out.append((path.stem, parse_connection(load_json(path))))
    bundled = bundled_dir() / "k4-rotation-connection.json"
    out.append(("bundled-k4", parse_connection(load_json(bundled))))
    return out


def _groupoids():
    for name, K in _complexes():
        if isinstance(K, Groupoid):
            yield name, K, tribar_flips()
        else:
            yield name, Groupoid.from_complex(K), complex_flips(K)
    yield "tribar", tribar_groupoid(), tribar_flips()
    for name, board in _boards():
        yield name, puzzle_groupoid(board), puzzle_flips(board)
    for name, c in _connections():
        yield name, connection_groupoid(c), connection_flips(c)


CASES = list(_groupoids())


@pytest.mark.parametrize("name,g,flips", CASES, ids=[name for name, _, _ in CASES])
def test_slot_flips_match_the_dict_construction(name, g, flips):
    assert set(g.flips) == set(g.dual.edges)
    assert set(flips) == set(g.dual.edges) | {(j, i, rid) for i, j, rid in g.dual.edges}
    for i, j, rid in g.dual.edges:
        for key in ((i, j, rid), (j, i, rid)):
            assert g.vertex_map(*key) == flips[key], key
    components = g.dual.components()
    for component in components:
        for base in sorted(component)[:3]:
            r = holonomy(g, base, require_connected=False)
            gens, bijections, signed, tree = reference_holonomy(g, flips, base)
            assert r.generators == gens
            assert r.vertex_bijections == bijections
            assert r.signed_generators == signed
            assert r.tree_edges == tree
            if signed is not None:
                k = (len(g.object_vertices[base]) - 1).bit_length()
                assert r.outer_order == (1 << k) * math.factorial(k)


def test_cases_cover_every_kind():
    kinds = {type(K) for _, K in _complexes()}
    assert kinds == {SimplicialComplex, CubicalComplex, Groupoid}
    assert len(CASES) > 400


def _one_way_cases():
    """A groupoid from every constructor: bundled, scrambled, random and
    cube-skeleton complexes, boards, random connections and the tribar."""
    paths = [p for p in sorted(bundled_dir().glob("*.json"))
             if not p.name.endswith(("-state.json", "-connection.json"))]
    paths += sorted((TESTS / "complexes").glob("*-scrambled.json"))
    sources = [load_complex(p) for p in paths] + [item.complex for item in random_corpus(0, 800)]
    sources += [cube_skeleton(d, k)[0] for d in range(2, 6) for k in range(1, d)]
    for K in sources:
        yield K if isinstance(K, Groupoid) else Groupoid.from_complex(K)
    boards = dict(_boards())
    for board in (grid_puzzle(4, 4), boards["cycle8"], boards["theta0"], boards["cut-vertex"]):
        yield puzzle_groupoid(board)
    rng = random.Random(29)
    for n in range(4, 13):
        yield connection_groupoid(random_connection(n, rng))
    yield tribar_groupoid()


def test_each_flip_is_stored_once_and_its_reverse_is_its_inverse():
    count = 0
    for g in _one_way_cases():
        assert len(g.flips) == len(g.dual.edges)
        assert set(g.flips) <= set(g.dual.edges)
        for i, j, rid in g.dual.edges:
            identity = tuple(range(len(g.object_vertices[i])))
            assert _mul(g.flip(i, j, rid), g.flip(j, i, rid)) == identity
        count += 1
    assert count > 800
