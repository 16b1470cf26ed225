"""Quick self-check of the benchmark's oracles on tiny inputs.

Each oracle in ``oracles.py`` is compared with a brute-force answer:
the program's own search oracles (``reachable_bfs``, ``closure_small``,
``closed_path_oracle``) fed with the benchmark's generated inputs, or an
exhaustive search written here.  Run from the root of a checkout:

    python3 bench/selfcheck.py --seed 0

Exit code 0 when every oracle agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import product
from pathlib import Path

import inputs
import oracles

sys.path.insert(0, str(Path.cwd() / "src"))

from groupoids.games import LabelledState, Puzzle, puzzle_holonomy, reachable_bfs  # noqa: E402
from groupoids.graphconn import GraphConnection, connection_holonomy  # noqa: E402
from groupoids.groupoid import Groupoid  # noqa: E402
from groupoids.holonomy import closed_path_oracle, holonomy  # noqa: E402
from groupoids.homcx import Graph  # noqa: E402
from groupoids.permgroup import closure_small  # noqa: E402
from groupoids.serialize import parse_complex  # noqa: E402


def check_reach(rng, failures):
    """Parity rule against a full search of the 2 x 3 board's states."""
    board = inputs.grid_board(2, 3)
    puzzle = Puzzle(board.cells, board.edges)
    for _ in range(12):
        a, b = inputs.scramble(6, rng), inputs.scramble(6, rng)
        want = reachable_bfs(puzzle, LabelledState.from_mapping(*a),
                             LabelledState.from_mapping(*b))
        if oracles.reach_parity(3, a, b) != want:
            failures.append(f"reach parity disagrees with reachable_bfs on {a} -> {b}")


def check_boards(rng, failures):
    """Wilson's orders and sympy's orders against brute-force closure."""
    boards = [inputs.grid_board(2, 3), inputs.grid_board(3, 3), inputs.diagonal_board(2, 3),
              inputs.cycle_board(5), inputs.theta0_board(), inputs.twin_grid_board(2, 2),
              inputs.pendant_board(2, 2, 1)]
    for b in boards:
        failures += oracles.check_board_shape(b)
        hole = rng.randrange(b.cells)
        gens = puzzle_holonomy(Puzzle(b.cells, b.edges), hole).generators
        size = len(closure_small(gens, degree=b.cells - 1))
        want = oracles.board_expectation(b, oracles.bipartite(b.cells, b.edges))
        order = want[0] if want else oracles.group_facts(
            oracles.board_tours(b.cells, b.edges, hole), b.cells - 1)[0]
        if order != size:
            failures.append(f"{b.name} hole {hole}: oracle order {order}, closure {size}")


def check_connections(rng, failures):
    for n in (4, 5, 6):
        c = inputs.random_connection(n, rng)
        gens = connection_holonomy(GraphConnection(Graph(n, c["edges"]), c["nabla"])).generators
        order, _ = oracles.group_facts(oracles.connection_loops(n, c["edges"], c["nabla"]), n - 1)
        size = len(closure_small(gens, degree=n - 1))
        if order != size:
            failures.append(f"connection K{n}: sympy order {order}, closure {size}")


def _signed_parity(item, g, perm) -> int:
    """Sign parity of a loop at cube 0 given as a slot permutation: the
    number of flipped coordinates is the weight of the address that the
    corner at address 0 is carried to."""
    address = {v: sum(int(ch) << j for j, ch in enumerate(key))
               for key, v in item.data["cubes"][0].items()}
    verts = g.object_vertices[0]
    origin = next(i for i, v in enumerate(verts) if address[v] == 0)
    return bin(address[verts[perm.images[origin]]]).count("1") % 2


def check_complexes(rng, failures):
    """Known holonomy orders and strip parities against transport along
    every closed path (closed_path_oracle)."""
    cases = [(inputs.simplicial_cycle(5, rng), 10), (inputs.simplicial_cycle(6, rng), 12),
             (inputs.triangulated_grid(2, rng), 6), (inputs.lattice_grid((2, 2), rng), 4),
             (inputs.cube_skeleton(3, 2, rng), 4), (inputs.cube_skeleton(4, 2, rng), 4)]
    cases += [(inputs.square_strip(n, t, rng), n) for n in (3, 4) for t in (False, True)]
    for item, max_len in cases:
        K = parse_complex(item.data)
        g = Groupoid.from_complex(K)
        brute = closed_path_oracle(g, 0, max_len)
        gens = holonomy(g, 0).generators
        order, _ = oracles.group_facts([p.images for p in gens], len(g.object_vertices[0]))
        if len(brute) != item.expect.get("order", order) or len(brute) != order:
            failures.append(f"{item.name}: oracle order {item.expect.get('order', order)}, "
                            f"closed paths give {len(brute)}")
        if "i" in item.expect and item.data["kind"] == "cubical":
            parity = max(_signed_parity(item, g, p) for p in brute)
            if parity != item.expect["i"]:
                failures.append(f"{item.name}: oracle i={item.expect['i']}, "
                                f"closed paths give {parity}")


def check_bipartite(rng, failures):
    """The BFS bipartiteness test against every 2-colouring."""
    for item in (inputs.square_strip(3, False, rng), inputs.square_strip(3, True, rng),
                 inputs.square_strip(4, True, rng), inputs.lattice_grid((2, 3), rng)):
        cubes = oracles.corner_lists(item.data)
        n = 1 + max(v for c in cubes for v in c)
        edges = oracles.skeleton_edges(cubes)
        brute = any(all(colour[a] != colour[b] for a, b in edges)
                    for colour in product((0, 1), repeat=n))
        if oracles.bipartite(n, edges) != brute:
            failures.append(f"{item.name}: BFS bipartiteness disagrees with search")


def check_hom(failures):
    """The Hom(K2, Kn) f-vector formula against enumeration of pairs of
    disjoint nonempty vertex sets."""
    for n in (3, 4, 5):
        counts = [0] * (n - 1)
        for a_mask, b_mask in product(range(1, 1 << n), repeat=2):
            if a_mask & b_mask == 0:
                counts[bin(a_mask).count("1") + bin(b_mask).count("1") - 2] += 1
        got = {"fvector": counts, "cells": sum(counts),
               "euler": sum((-1) ** j * f for j, f in enumerate(counts)), "free_action": True}
        failures += oracles.check_hom(n, got)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="self-check of the benchmark's oracles")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    failures: list[str] = []
    for check in (check_reach, check_boards, check_connections, check_complexes,
                  check_bipartite):
        check(rng, failures)
    check_hom(failures)
    for line in failures:
        print(f"FAIL {line}")
    print(f"selfcheck seed {args.seed}: {'ok' if not failures else f'{len(failures)} failures'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
