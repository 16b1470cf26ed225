"""Checks of the program's verdicts, computed apart from the program.

Each function returns a list of mismatch messages (empty when the verdict
holds).  Group orders come from sympy's ``PermutationGroup``; everything
else is plain graph search and closed formulas over the benchmark's own
inputs.  Nothing here imports the package under test.
"""

from __future__ import annotations

import math
from functools import lru_cache


# ------------------------------------------------------------ permutations

def _distinct(gens, degree: int) -> tuple[tuple[int, ...], ...]:
    identity = tuple(range(degree))
    return tuple(sorted({tuple(g) for g in gens} - {identity}))


@lru_cache(maxsize=None)
def _sympy_group(distinct: tuple[tuple[int, ...], ...], degree: int):
    from sympy.combinatorics import Permutation, PermutationGroup
    if not distinct:
        return PermutationGroup([Permutation(list(range(degree)))])
    return PermutationGroup([Permutation(list(g)) for g in distinct])


def group_facts(gens, degree: int) -> tuple[int, str]:
    """(order, tag) of the group the image tuples generate, with the tag
    chosen by the program's documented rules: trivial, cyclic(k),
    symmetric, alternating (all generators even), else other."""
    distinct = _distinct(gens, degree)
    group = _sympy_group(distinct, degree)
    order = int(group.order())
    if order == 1:
        return order, "trivial"
    if group.is_cyclic:
        return order, f"cyclic({order})"
    if order == math.factorial(degree):
        return order, "symmetric"
    if degree >= 3 and 2 * order == math.factorial(degree) \
            and all(_parity(g) == 0 for g in distinct):
        return order, "alternating"
    return order, "other"


def _parity(images) -> int:
    seen = [False] * len(images)
    swaps = 0
    for i in range(len(images)):
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length:
            swaps += length - 1
    return swaps % 2


def check_group(label: str, order: int, tag: str, gens, degree: int) -> list[str]:
    """Order and tag against what sympy makes of the reported generators."""
    want = group_facts(gens, degree)
    if (order, tag) != want:
        return [f"{label}: order {order} ({tag}), sympy says {want[0]} ({want[1]})"]
    return []


def check_same_group(label: str, order: int, tag: str, gens, own_gens,
                     degree: int) -> list[str]:
    """The reported group against the group of the benchmark's own loop
    transports: the same order and tag, and every reported generator
    inside it.  When some of the loops already generate the whole
    symmetric group, so do all of them, and the rest are not needed."""
    from sympy.combinatorics import Permutation
    own = _distinct(own_gens, degree)
    for k in (8, 32, len(own)):
        loops = own[:k]
        group = _sympy_group(loops, degree)
        if k >= len(own) or group.order() == math.factorial(degree):
            break
    errors = check_group(label, order, tag, loops, degree)
    if not all(group.contains(Permutation(list(g))) for g in _distinct(gens, degree)):
        errors.append(f"{label}: a reported generator is not a loop transport")
    return errors


def tree_paths(adjacency: list[list[int]], root: int):
    """BFS tree from root; returns a function giving the tree path root -> x."""
    parent = {root: root}
    queue = [root]
    for u in queue:
        for w in adjacency[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)

    def path(x):
        out = [x]
        while out[-1] != root:
            out.append(parent[out[-1]])
        return out[::-1]

    tree = {(min(x, p), max(x, p)) for x, p in parent.items() if x != root}
    return path, tree


def adjacency(count: int, edges) -> list[list[int]]:
    """Sorted neighbour lists of a graph on vertices 0..count-1."""
    adj: list[list[int]] = [[] for _ in range(count)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return [sorted(nbrs) for nbrs in adj]


def board_tours(cells: int, edges, hole: int) -> list[tuple[int, ...]]:
    """Piece permutations of the hole tours around the fundamental cycles
    of the board, on the slots (non-hole cells in increasing order)."""
    path, tree = tree_paths(adjacency(cells, edges), hole)
    slots = [c for c in range(cells) if c != hole]
    slot = {c: i for i, c in enumerate(slots)}
    tours = []
    for a, b in edges:
        if (min(a, b), max(a, b)) in tree:
            continue
        walk = path(a) + path(b)[::-1]
        occupant = {c: c for c in slots}     # each piece named by its home cell
        for here, there in zip(walk, walk[1:]):
            occupant[here] = occupant.pop(there)
        images = [0] * len(slots)
        for cell, piece in occupant.items():
            images[slot[piece]] = slot[cell]
        tours.append(tuple(images))
    return tours


def connection_loops(n: int, edges, nabla, base: int = 0) -> list[tuple[int, ...]]:
    """Transport of the base star around the fundamental cycles of the
    graph, on star positions (neighbours in increasing order)."""
    nbrs = adjacency(n, edges)
    path, tree = tree_paths(nbrs, base)
    star = [(base, w) for w in nbrs[base]]
    position = {e: i for i, e in enumerate(star)}
    loops = []
    for a, b in edges:
        if (min(a, b), max(a, b)) in tree:
            continue
        walk = path(a) + path(b)[::-1]
        images = []
        for e in star:
            for u, v in zip(walk, walk[1:]):
                e = nabla[(u, v)][e]
            images.append(position[e])
        loops.append(tuple(images))
    return loops


# ------------------------------------------------------- cubical complexes

def corner_lists(data: dict) -> list[tuple[int, ...]]:
    """Cubes of a cubical wire document as vertex tuples by flat corner
    index (bit j of the index is coordinate j of the address)."""
    out = []
    for cube in data["cubes"]:
        corners = [0] * len(cube)
        for key, v in cube.items():
            corners[sum(int(ch) << j for j, ch in enumerate(key))] = v
        out.append(tuple(corners))
    return out


def skeleton_edges(cubes: list[tuple[int, ...]]) -> set[tuple[int, int]]:
    edges = set()
    for corners in cubes:
        k = len(corners).bit_length() - 1
        for idx in range(len(corners)):
            for j in range(k):
                if not idx >> j & 1:
                    a, b = corners[idx], corners[idx | 1 << j]
                    edges.add((min(a, b), max(a, b)))
    return edges


def bipartite(vertex_count: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    colour: dict[int, int] = {}
    for start in range(vertex_count):
        if start in colour:
            continue
        colour[start] = 0
        queue = [start]
        for u in queue:
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def _ridges(corners: tuple[int, ...]) -> list[frozenset]:
    k = len(corners).bit_length() - 1
    return [frozenset(corners[i] for i in range(len(corners)) if (i >> j & 1) == b)
            for j in range(k) for b in (0, 1)]


def _connected(nodes: list[int], linked) -> bool:
    if len(nodes) <= 1:
        return True
    seen = {nodes[0]}
    queue = [nodes[0]]
    for u in queue:
        for w in nodes:
            if w not in seen and linked(u, w):
                seen.add(w)
                queue.append(w)
    return len(seen) == len(nodes)


def connectivity(cubes: list[tuple[int, ...]]) -> tuple[bool, bool]:
    """(strongly connected, locally strongly connected) by direct search
    over shared ridges."""
    ridges = [set(_ridges(c)) for c in cubes]
    holders: dict[frozenset, list[int]] = {}
    for i, rs in enumerate(ridges):
        for r in rs:
            holders.setdefault(r, []).append(i)
    shared: dict[tuple[int, int], list[frozenset]] = {}
    for r, hs in holders.items():
        for x in range(len(hs)):
            for y in range(x + 1, len(hs)):
                shared.setdefault((hs[x], hs[y]), []).append(r)

    def linked_by(u, w, through=None):
        rs = shared.get((min(u, w), max(u, w)), ())
        return any(through is None or through in r for r in rs)

    strong = _connected(list(range(len(cubes))), linked_by)
    star: dict[int, list[int]] = {}
    for i, c in enumerate(cubes):
        for v in c:
            star.setdefault(v, []).append(i)
    local = all(_connected(cells, lambda u, w, v=v: linked_by(u, w, v))
                for v, cells in star.items())
    return strong, local


def check_invariants(name: str, cubes, coords, expect: dict, got: dict) -> list[str]:
    """Verdicts of ``invariants`` on a cubical complex, given as corner
    lists, against the benchmark's own search."""
    vertex_count = 1 + max(v for c in cubes for v in c)
    edges = skeleton_edges(cubes)
    nacl = 0 if bipartite(vertex_count, edges) else 1
    strong, local = connectivity(cubes)
    errors = []
    if coords is not None and coords[0] is not None:
        if any(sum(coords[a]) % 2 == sum(coords[b]) % 2 for a, b in edges):
            errors.append(f"{name}: lattice parity colouring is not proper")
    want = {"nacl": nacl, "strongly_connected": strong,
            "locally_strongly_connected": local}
    want.update({k: v for k, v in expect.items() if k in ("i", "nacl")})
    for key, value in want.items():
        if got.get(key) != value:
            errors.append(f"{name}: {key}={got.get(key)!r}, expected {value!r}")
    if got.get("i", 2) > got.get("nacl", -1):
        errors.append(f"{name}: i > nacl")
    if got.get("equal") != (got.get("i") == got.get("nacl")):
        errors.append(f"{name}: equal flag disagrees with i and nacl")
    if strong and local and got.get("i") != got.get("nacl"):
        errors.append(f"{name}: i != nacl under both connectivity hypotheses")
    cycle = got.get("witness_odd_cycle")
    if (cycle is None) != (nacl == 0):
        errors.append(f"{name}: odd-cycle witness present={cycle is not None} with nacl={nacl}")
    elif cycle is not None:
        closed = list(zip(cycle, cycle[1:] + cycle[:1]))
        if len(cycle) % 2 == 0 or any((min(a, b), max(a, b)) not in edges for a, b in closed):
            errors.append(f"{name}: witness {cycle} is not an odd cycle of the 1-skeleton")
    return errors


def check_holonomy(name: str, data: dict, expect: dict, got: dict) -> list[str]:
    """A ``holonomy`` report against sympy and the rung's known order."""
    if data["kind"] == "cubical":
        k = data["dim"]
        degree = 1 << k
        outer = (1 << k) * math.factorial(k)
    else:
        degree = len(data["facets"][0])
        outer = math.factorial(degree)
    gens = got.get("generators", [])
    errors = []
    if got.get("base") != 0 or got.get("outer_order") != str(outer):
        errors.append(f"{name}: base/outer order {got.get('base')}/{got.get('outer_order')}")
    if any(len(g) != degree for g in gens):
        errors.append(f"{name}: a generator has the wrong degree")
        return errors
    errors += check_group(name, int(got.get("order", -1)), got.get("tag"), gens, degree)
    if "order" in expect and got.get("order") != str(expect["order"]):
        errors.append(f"{name}: order {got.get('order')}, expected {expect['order']}")
    return errors


def check_hom(n: int, got: dict) -> list[str]:
    """Hom(K2, Kn) is an (n-2)-sphere with a free swap action:
    f_j = C(n, j+2) (2^(j+2) - 2)."""
    f = [math.comb(n, j + 2) * (2 ** (j + 2) - 2) for j in range(n - 1)]
    want = {"fvector": f, "cells": sum(f), "euler": 1 + (-1) ** n, "free_action": True}
    return [f"hom k2 k{n}: {key}={got.get(key)!r}, expected {value!r}"
            for key, value in want.items() if got.get(key) != value]


# ------------------------------------------------------------------- boards

def biconnected(cells: int, edges) -> bool:
    def connected_without(cut):
        nodes = [c for c in range(cells) if c != cut]
        adj = {c: set() for c in nodes}
        for a, b in edges:
            if cut not in (a, b):
                adj[a].add(b)
                adj[b].add(a)
        seen = {nodes[0]}
        queue = [nodes[0]]
        for u in queue:
            for w in adj[u] - seen:
                seen.add(w)
                queue.append(w)
        return len(seen) == len(nodes)
    return all(connected_without(c) for c in range(cells))


def board_expectation(board, bipartite_board: bool) -> tuple[int, str] | None:
    """(order, tag) by Wilson's theorem, or None when it does not apply."""
    pieces = board.cells - 1
    if board.kind == "cycle":
        return pieces, f"cyclic({pieces})"
    if board.kind == "theta0":
        return 120, "other"
    if board.kind == "wilson":
        if bipartite_board:
            return math.factorial(pieces) // 2, "alternating"
        return math.factorial(pieces), "symmetric"
    return None


def check_board_shape(board) -> list[str]:
    """The structural facts each board's oracle relies on."""
    degrees = [0] * board.cells
    for a, b in board.edges:
        degrees[a] += 1
        degrees[b] += 1
    two_connected = biconnected(board.cells, board.edges)
    ok = {"cycle": set(degrees) == {2} and two_connected,
          "theta0": sorted(degrees) == [2] * 5 + [3, 3] and two_connected,
          "wilson": two_connected and set(degrees) != {2},
          "cut": not two_connected}[board.kind]
    return [] if ok else [f"{board.name}: board is not of kind {board.kind}"]


def reach_parity(width: int, a: tuple[int, dict], b: tuple[int, dict]) -> bool:
    """Reachability on a 2-connected bipartite grid (group A_{n-1}):
    the cell permutation, with the hole as a piece, must have the parity
    of the hole's taxicab displacement."""
    hole_a, place_a = a
    hole_b, place_b = b
    images = [0] * (len(place_a) + 1)
    images[hole_a] = hole_b
    for piece, cell in place_a.items():
        images[cell] = place_b[piece]
    dr = abs(hole_a // width - hole_b // width)
    dc = abs(hole_a % width - hole_b % width)
    return _parity(images) == (dr + dc) % 2
