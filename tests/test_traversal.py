"""The shared breadth-first search and the code routed through it.

`bfs` and `tree_path` are checked against brute-force distances on
seeded random graphs.  `nacl` and the cubical flip are checked against
the implementations they replaced, kept here verbatim as references:
a hand-written BFS that stops at the first same-coloured edge, and a
flip that finds each cube's frozen coordinate by scanning its faces.
"""

import random
from collections import deque

import pytest

from groupoids.complexes import bfs, build_simplicial, tree_path
from groupoids.corpus import cube_skeleton, random_corpus
from groupoids.groupoid import Groupoid
from groupoids.invariants import nacl


def random_graph(rng: random.Random, n: int, p: float) -> list[list[int]]:
    """Undirected adjacency lists in a shuffled order; isolated vertices
    and several components are common at small p."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                adj[a].append(b)
                adj[b].append(a)
    for ns in adj:
        rng.shuffle(ns)
    return adj


def brute_distances(adj: list[list[int]]) -> list[list[float]]:
    n = len(adj)
    dist = [[0 if a == b else (1 if b in adj[a] else float("inf")) for b in range(n)]
            for a in range(n)]
    for m in range(n):
        for a in range(n):
            for b in range(n):
                dist[a][b] = min(dist[a][b], dist[a][m] + dist[m][b])
    return dist


GRAPHS = [random_graph(random.Random(seed), n, p)
          for seed in range(40)
          for n, p in (((seed % 9) + 1, 0.15), ((seed % 11) + 2, 0.4))]


def test_graphs_include_disconnected_and_isolated_cases():
    dists = [brute_distances(adj) for adj in GRAPHS]
    assert any(float("inf") in row for d in dists for row in d)
    assert any(not ns for adj in GRAPHS for ns in adj)


@pytest.mark.parametrize("adj", GRAPHS)
def test_bfs_matches_brute_force_distances(adj):
    dist = brute_distances(adj)
    for start in range(len(adj)):
        parent = bfs(start, adj.__getitem__)
        assert parent[start] is None
        assert set(parent) == {v for v in range(len(adj)) if dist[start][v] < float("inf")}
        visit = list(parent)
        assert visit[0] == start
        # visiting order is breadth-first
        assert [dist[start][v] for v in visit] == sorted(dist[start][v] for v in visit)
        for v in visit:
            path = tree_path(parent, v)
            assert path[0] == start and path[-1] == v
            assert len(path) - 1 == dist[start][v]
            assert all(b in adj[a] for a, b in zip(path, path[1:]))
            if v != start:
                # the parent is the first visited node listing v
                first = min((u for u in visit if v in adj[u]), key=visit.index)
                assert parent[v] == first


def test_bfs_follows_neighbour_order_on_directed_graphs():
    succ = {0: (2, 1), 1: (3,), 2: (3, 0), 3: ()}
    parent = bfs(0, succ.__getitem__)
    assert list(parent.items()) == [(0, None), (2, 0), (1, 0), (3, 2)]
    assert tree_path(parent, 3) == [0, 2, 3]
    assert bfs(3, succ.__getitem__) == {3: None}


# --- nacl against the BFS it replaced ---

def reference_nacl(K):
    """The previous nacl: one BFS per component, stopping at the first
    edge whose ends share a colour."""
    adj = {v: [] for v in range(K.vertex_count)}
    for a, b in K.skeleton_edges:
        adj[a].append(b)
        adj[b].append(a)
    color = {}
    parent = {}
    for start in range(K.vertex_count):
        if start in color:
            continue
        color[start] = 0
        parent[start] = None
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return 1, None, reference_odd_cycle(parent, u, v)
    return 0, color, None


def reference_odd_cycle(parent, u, v):
    up, vp = [u], [v]
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    while parent[vp[-1]] is not None:
        vp.append(parent[vp[-1]])
    while len(up) > 1 and len(vp) > 1 and up[-2] == vp[-2]:
        up.pop()
        vp.pop()
    return tuple(up + vp[:-1][::-1])


def random_graph_complexes(seed: int, count: int):
    """1-dimensional simplicial complexes: random graphs with dense
    vertex ids, often disconnected, some bipartite and some not."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 14)
        edges = [e for e in ((a, b) for a in range(n) for b in range(a + 1, n))
                 if rng.random() < rng.choice((0.12, 0.25, 0.5))]
        used = sorted({v for e in edges for v in e})
        if not edges:
            continue
        rename = {v: i for i, v in enumerate(rng.sample(used, len(used)))}
        out.append(build_simplicial([(rename[a], rename[b]) for a, b in edges]))
    return out


NACL_CASES = ([item.complex for seed in range(3) for item in random_corpus(seed, 40)]
              + random_graph_complexes(5, 150))


def test_nacl_cases_cover_both_values():
    values = {reference_nacl(K)[0] for K in NACL_CASES}
    assert values == {0, 1}


def test_nacl_matches_the_replaced_bfs():
    for K in NACL_CASES:
        value, color, witness = reference_nacl(K)
        got = nacl(K)
        assert got.value == value
        assert got.odd_cycle == witness
        if color is None:
            assert got.coloring is None
        else:
            assert list(got.coloring.color.items()) == list(color.items())


# --- the cubical flip against the face scan it replaced ---

class NotAdjacent(ValueError):
    """The given cube does not hold the given ridge."""


def _index_bits(idx, k):
    return tuple((idx >> j) & 1 for j in range(k))


def _addr_index(bits):
    return sum(b << j for j, b in enumerate(bits))


def reference_frozen_coordinate(K, cube, ridge):
    for free, verts in K.cube_face_lists[cube]:
        if len(free) == K.dim - 1 and verts == ridge:
            coord, = set(range(K.dim)) - set(free)
            return coord, (K.cubes[cube].index(min(verts)) >> coord) & 1
    raise NotAdjacent(f"ridge {sorted(ridge)} is not a facet of cube {cube}")


def reference_cube_flip(K, i, j, ridge):
    k = K.dim
    ci, cj = K.cubes[i], K.cubes[j]
    coord_i, bit_i = reference_frozen_coordinate(K, i, ridge)
    coord_j, bit_j = reference_frozen_coordinate(K, j, ridge)
    index_j = {v: x for x, v in enumerate(cj)}
    bij = {}
    for idx in range(1 << k):
        bits = list(_index_bits(idx, k))
        crossed = bits[coord_i] != bit_i
        bits[coord_i] = bit_i
        shared = ci[_addr_index(tuple(bits))]
        tbits = list(_index_bits(index_j[shared], k))
        if crossed:
            tbits[coord_j] = 1 - bit_j
        bij[ci[idx]] = cj[_addr_index(tuple(tbits))]
    return bij


FLIP_CASES = ([cube_skeleton(d, k)[0] for d in range(2, 7) for k in range(1, d)]
              + [item.complex for item in random_corpus(3, 60)])


def test_cube_flips_match_the_face_scan():
    for K in FLIP_CASES:
        g = Groupoid.from_complex(K)
        for i, j, rid in g.dual.edges:
            want = reference_cube_flip(K, i, j, frozenset(g.dual.ridges[rid]))
            assert g.vertex_map(i, j, rid) == want
            assert g.vertex_map(j, i, rid) == {v: u for u, v in want.items()}

