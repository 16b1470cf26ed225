"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line so the criteria can be audited
from the test log (run with -s to see the lines as they happen).  All
comparisons are exact; the only tolerances anywhere are the two wall
clock budgets, asserted as stated.
"""

import functools
import math
import random
import time

import pytest
from test_flip_tuples import slot_perm

from groupoids.complexes import VertexMap
from groupoids.corpus import (
    cube_skeleton,
    cycle_complex,
    grid_patch,
    quotient_example,
    random_corpus,
    simplex_boundary,
    single_cube,
    strip_complex,
    triangle_strip,
)
from groupoids.games import (
    LabelledState,
    Puzzle,
    fifteen_puzzle_states,
    grid_puzzle,
    ordered_state,
    puzzle_holonomy,
    reachable,
    reachable_bfs,
)
from groupoids.groupoid import Groupoid, tribar_groupoid
from groupoids.holonomy import (
    closed_path_oracle,
    holonomy,
    holonomy_group,
    induced_embedding_check,
)
from groupoids.homcx import complete_graph, euler_characteristic, hom_complex, induced_swap_action
from groupoids.invariants import (
    NontrivialHolonomy,
    compare_invariants,
    i_invariant,
    lattice_parity_coloring,
    locally_strongly_connected,
    transport_coloring,
)
from groupoids.permgroup import (
    ClosureTooLarge,
    Perm,
    closure_small,
    recognize,
    schreier_sims,
)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")
        return wrapper
    return decorate


@criterion("1 fifteen-puzzle holonomy and the 15-14 problem")
def test_c1_fifteen_puzzle():
    started = time.monotonic()
    board, start, swapped = fifteen_puzzle_states()
    group = puzzle_holonomy(board, base_hole=start.hole)
    assert group.order == 653_837_184_000
    assert group.order == math.factorial(15) // 2
    assert recognize(group) == "alternating"
    assert reachable(board, start, swapped) is False
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion("2 odd cycles have order-2 holonomy, even cycles trivial")
def test_c2_cycle_holonomy():
    for n in (3, 5, 7, 9, 11):
        result = holonomy_group(cycle_complex(n))
        assert result.order == 2, n
        assert result.tag == "cyclic(2)", n
    for n in (4, 6, 8):
        result = holonomy_group(cycle_complex(n))
        assert result.order == 1, n
        assert result.tag == "trivial", n


@criterion("3 sphere Euler characteristics and free swap action")
def test_c3_hom_spheres():
    started = time.monotonic()
    expected = {3: 0, 4: 2, 5: 0, 6: 2}
    for m, chi in expected.items():
        cells = hom_complex(complete_graph(2), complete_graph(m))
        assert euler_characteristic(cells) == chi, m
        assert induced_swap_action(cells).fixed_point_free, m
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@criterion("4 parity invariant vs bipartiteness on 200 random complexes")
def test_c4_invariant_comparison():
    items = random_corpus(seed=0, count=200)
    assert len(items) == 200
    hypothesis_cases = 0
    for item in items:
        c = compare_invariants(item.complex)
        assert c.i <= c.nacl, item.name
        if c.strongly_connected and c.locally_strongly_connected:
            hypothesis_cases += 1
            assert c.equal, item.name
    assert hypothesis_cases > 50
    quotient = compare_invariants(quotient_example())
    assert (quotient.i, quotient.nacl) == (0, 1)


@criterion("5 lattice parity coloring and grid subcomplexes")
def test_c5_lattice_parity():
    bundled = [
        grid_patch(2, 2),
        grid_patch(3, 3),
        cube_skeleton(3, 2),
        cube_skeleton(4, 2),
    ]
    for K, coords in bundled:
        coloring = lattice_parity_coloring(coords)
        assert coloring.is_proper(K.skeleton_edges)
        assert i_invariant(K) == 0
    for item in random_corpus(seed=14, count=80):
        if item.kind in ("grid_subset", "cube3d_subset", "cube_skeleton"):
            assert i_invariant(item.complex) == 0, item.name
            coloring = lattice_parity_coloring(item.coords)
            assert coloring.is_proper(item.complex.skeleton_edges), item.name


@criterion("6 non-degenerate maps embed holonomy groups")
def test_c6_induced_functor():
    for n, m in ((6, 3), (9, 3), (8, 4)):
        big, small = cycle_complex(n), cycle_complex(m)
        f = VertexMap(big, small, {v: v % m for v in range(n)})
        assert induced_embedding_check(f), (n, m)
        # image group order equals the source holonomy order
        src = holonomy_group(big)
        dst_g = Groupoid.from_complex(small)
        base_verts = Groupoid.from_complex(big).object_vertices[0]
        image_set = frozenset(f(v) for v in base_verts)
        target_base = next(i for i, verts in enumerate(dst_g.object_vertices)
                           if frozenset(verts) == image_set)
        image_perms = [
            slot_perm(dst_g.object_vertices, target_base, {f(u): f(v) for u, v in bij.items()})
            for bij in src.vertex_bijections
        ]
        image_group = schreier_sims(image_perms, degree=2)
        assert image_group.order == src.order, (n, m)


@criterion("7 transport coloring on trivial-holonomy complexes")
def test_c7_transport_coloring():
    candidates = [
        ("triangle-strip", triangle_strip(5)),
        ("grid2x2", grid_patch(2, 2)[0]),
        ("grid3x3", grid_patch(3, 3)[0]),
        ("cube", single_cube(3)),
    ] + [(item.name, item.complex) for item in random_corpus(seed=2, count=40)]
    colored = 0
    for name, K in candidates:
        g = Groupoid.from_complex(K)
        if not g.dual.is_connected():
            continue
        if not locally_strongly_connected(K):
            continue
        if holonomy(g).order != 1:
            continue
        coloring = transport_coloring(K)
        assert coloring.is_rainbow(K), name
        colored += 1
    assert colored >= 10
    with pytest.raises(NontrivialHolonomy):
        transport_coloring(cycle_complex(3))


@criterion("8 impossible-triangle holonomy is cyclic of order 4")
def test_c8_tribar():
    result = holonomy(tribar_groupoid())
    assert result.order == 4
    assert result.tag == "cyclic(4)"


@criterion("9 oracle suites: chains, closed paths, state search")
def test_c9_oracles():
    # exact order agreement on 50 random generating sets
    rng = random.Random(2024)
    checked = 0
    while checked < 50:
        degree = rng.randint(3, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(tuple(images)))
        try:
            cl = closure_small(gens, degree=degree, limit=10 ** 5)
        except ClosureTooLarge:
            continue
        assert schreier_sims(gens, degree=degree).order == len(cl)
        checked += 1

    # fundamental-cycle generators equal the closed-path enumeration
    small_complexes = [
        cycle_complex(3), cycle_complex(4), cycle_complex(5), cycle_complex(6),
        cycle_complex(7), cycle_complex(8), simplex_boundary(3),
        triangle_strip(4), grid_patch(2, 2)[0],
        strip_complex(4, twisted=True), strip_complex(5),
    ]
    for K in small_complexes:
        assert len(K.facets) <= 8
        g = Groupoid.from_complex(K)
        result = holonomy(g, 0)
        oracle = closed_path_oracle(g, 0)
        degree = len(g.object_vertices[0])
        assert oracle == closure_small(result.generators, degree=degree)

    # reachability equals breadth-first search over all labelled states
    boards = [
        grid_puzzle(2, 2),
        grid_puzzle(2, 3),
        grid_puzzle(1, 4),
        Puzzle(cell_count=5, edges=((0, 1), (1, 2), (2, 0), (2, 3), (3, 4))),
        Puzzle(cell_count=6, edges=((0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 0))),
    ]
    rng = random.Random(77)
    for board in boards:
        assert board.cell_count <= 6
        labels = [str(i + 1) for i in range(board.cell_count - 1)]
        for _ in range(8):
            cells = list(range(board.cell_count))
            rng.shuffle(cells)
            a = LabelledState.from_mapping(cells[0], dict(zip(labels, cells[1:])))
            rng.shuffle(cells)
            b = LabelledState.from_mapping(cells[0], dict(zip(labels, cells[1:])))
            assert reachable(board, a, b) == reachable_bfs(board, a, b)
