import math
import random
from itertools import permutations

import pytest
from test_flip_tuples import corner_map_signed, slot_perm

from groupoids.complexes import CubicalComplex, SimplicialComplex, _cube_symmetry
from groupoids.corpus import (
    cycle_complex,
    grid_patch,
    simplex_boundary,
    strip_complex,
    triangle_strip,
)
from groupoids.groupoid import (
    BrokenPath,
    Groupoid,
    transport,
    tribar_groupoid,
)
from groupoids.permgroup import Perm, SignedPerm


def test_flip_two_triangles():
    g = Groupoid.from_complex(SimplicialComplex([[0, 1, 2], [1, 2, 3]]))
    ((i, j, rid),) = g.dual.edges
    assert (i, j, g.dual.ridges[rid]) == (0, 1, (1, 2))
    assert g.vertex_map(0, 1, rid) == {0: 3, 1: 1, 2: 2}


def test_flip_two_edges():
    g = Groupoid.from_complex(SimplicialComplex([[0, 1], [1, 2]]))
    ((i, j, rid),) = g.dual.edges
    assert (i, j, g.dual.ridges[rid]) == (0, 1, (1,))
    assert g.vertex_map(0, 1, rid) == {0: 2, 1: 1}


def brute_force_square_flips(K, i, j, ridge):
    """Oracle: all vertex bijections of two squares that fix the ridge
    pointwise and carry faces onto faces."""
    src, dst = K.cubes[i], K.cubes[j]
    faces_i = {verts for _, verts in K.cube_face_lists[i]}
    faces_j = {verts for _, verts in K.cube_face_lists[j]}
    found = []
    rest_src = [v for v in src if v not in ridge]
    rest_dst = [v for v in dst if v not in ridge]
    for image in permutations(rest_dst):
        bij = {v: v for v in ridge}
        bij.update(dict(zip(rest_src, image)))
        if {frozenset(bij[v] for v in f) for f in faces_i} == faces_j:
            found.append(bij)
    return found


def test_flip_two_squares_matches_brute_force():
    K = CubicalComplex([(0, 2, 1, 3), (2, 4, 3, 5)])
    g = Groupoid.from_complex(K)
    ((i, j, rid),) = g.dual.edges
    assert (i, j, g.dual.ridges[rid]) == (0, 1, (2, 3))
    oracle = brute_force_square_flips(K, 0, 1, frozenset({2, 3}))
    assert len(oracle) == 1
    bijection = g.vertex_map(0, 1, rid)
    assert bijection == oracle[0]
    # the flat crossing reverses the crossing direction
    sp = corner_map_signed(K.cubes[0], K.cubes[1], bijection)
    assert sp.signs.count(-1) % 2 == 1


def cube_faces(k):
    """Every face of the k-cube as a set of flat corner indices."""
    n = 1 << k
    return {frozenset(i for i in range(n) if i & ~free == base)
            for free in range(n) for base in range(n) if not base & free}


def cube_symmetries(k):
    """The 2^k k! maps i -> (i with bit j moved to bit p[j]) xor c."""
    return [tuple(c ^ sum(((i >> j) & 1) << p[j] for j in range(k)) for i in range(1 << k))
            for p in permutations(range(k)) for c in range(1 << k)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_corner_map_signed_accepts_exactly_the_face_preserving_bijections(k):
    """Every bijection for k <= 2; for k = 3 the 48 symmetries and 2,000
    seeded others.  ``_cube_symmetry`` accepts an image of the flat corner
    indices exactly when it carries faces onto faces; the signed
    permutation it returns reproduces the image, and the accepted ones
    are distinct."""
    n = 1 << k
    rng = random.Random(k)
    if k <= 2:
        images = list(permutations(range(n)))
    else:
        images = cube_symmetries(k)
        others = set()
        while len(others) < 2000:
            image = tuple(rng.sample(range(n), n))
            if image not in images:
                others.add(image)
        images += sorted(others)
    faces = cube_faces(k)
    accepted = []
    for image in images:
        if {frozenset(image[i] for i in f) for f in faces} == faces:
            perm, signs = _cube_symmetry(image)
            sp = SignedPerm(Perm(perm), signs)
            assert [sp.apply_index(i) for i in range(n)] == list(image)
            accepted.append(sp)
        else:
            with pytest.raises(ValueError):
                _cube_symmetry(image)
    assert len(accepted) == len(set(accepted)) == n * math.factorial(k)


def test_flip_around_cube_corner_is_even():
    from groupoids.corpus import cube_skeleton
    K, _ = cube_skeleton(3, 2)
    g = Groupoid.from_complex(K)
    i, j, rid = g.dual.edges[0]
    sp = corner_map_signed(K.cubes[i], K.cubes[j], g.vertex_map(i, j, rid))
    assert sp.signs.count(-1) % 2 == 0


@pytest.mark.parametrize("K", [
    simplex_boundary(3),
    cycle_complex(5),
    grid_patch(2, 2)[0],
    strip_complex(4, twisted=True),
])
def test_flip_uniqueness_and_ridge_fixing(K):
    g = Groupoid.from_complex(K)
    # one stored flip per dual edge, keyed as the edge
    assert sorted(g.flips) == sorted(g.dual.edges)
    for i, j, rid in g.dual.edges:
        bij = g.vertex_map(i, j, rid)
        assert sorted(bij.values()) == sorted(g.object_vertices[j])
        for v in g.dual.ridges[rid]:
            assert bij[v] == v
        # the two directions invert each other
        assert g.vertex_map(j, i, rid) == {v: u for u, v in bij.items()}


def test_transport_empty_path_is_identity():
    g = Groupoid.from_complex(simplex_boundary(3))
    t = transport(g, [2])
    assert t.bijection == {v: v for v in g.object_vertices[2]}


def test_transport_fan_and_back():
    g = Groupoid.from_complex(triangle_strip(3))
    out = transport(g, [0, 1, 2])
    # by hand: {0,1,2}->{1,2,3} sends 0 to 3, then {1,2,3}->{2,3,4}
    # sends 1 to 4 and fixes the rest
    assert out.bijection == {0: 3, 1: 4, 2: 2}
    back = transport(g, [2, 1, 0])
    roundtrip = {v: back.bijection[out.bijection[v]] for v in g.object_vertices[0]}
    assert roundtrip == {v: v for v in g.object_vertices[0]}


def test_transport_matches_stepwise_flips():
    g = Groupoid.from_complex(simplex_boundary(3))
    path = [0, 1, 3, 0]
    t = transport(g, path)
    bij = {v: v for v in g.object_vertices[0]}
    for u, v in zip(path, path[1:]):
        rid = next(r for r, w in g.dual.adjacency[u] if w == v)
        step = g.vertex_map(u, v, rid)
        bij = {x: step[y] for x, y in bij.items()}
    assert t.bijection == bij
    assert t.facets == tuple(path)


def test_transport_closed_loop_lands_in_oracle():
    from groupoids.holonomy import closed_path_oracle
    g = Groupoid.from_complex(simplex_boundary(3))
    t = transport(g, [0, 1, 2, 0])
    oracle = closed_path_oracle(g, 0)
    assert slot_perm(g.object_vertices, 0, t.bijection) in oracle


def test_transport_reversal_is_inverse_on_random_paths():
    import random
    rng = random.Random(4)
    for K in (simplex_boundary(3), grid_patch(2, 2)[0], cycle_complex(6)):
        g = Groupoid.from_complex(K)
        for _ in range(10):
            path = [rng.randrange(g.object_count)]
            ridges = []
            for _ in range(rng.randint(1, 6)):
                choices = g.dual.adjacency[path[-1]]
                rid, nxt = rng.choice(choices)
                ridges.append(rid)
                path.append(nxt)
            forward = transport(g, path, ridges)
            backward = transport(g, path[::-1], ridges[::-1])
            for v in g.object_vertices[path[0]]:
                assert backward.bijection[forward.bijection[v]] == v


def test_broken_path():
    g = Groupoid.from_complex(cycle_complex(5))
    # facet 0 is {0,1} and facet 3 is {2,3}: disjoint
    with pytest.raises(BrokenPath):
        transport(g, [0, 3])
    with pytest.raises(BrokenPath):
        transport(g, [])
    # an explicit ridge id that joins the two facets in neither direction
    with pytest.raises(BrokenPath, match="no flip 0 -> 1"):
        transport(g, [0, 1], [len(g.dual.ridges)])


def test_tribar_loop_is_order_four():
    g = tribar_groupoid()
    ab = g.vertex_map(0, 1, 0)
    bc = g.vertex_map(1, 2, 1)
    ca = g.vertex_map(2, 0, 2)
    eta = {v: ca[bc[ab[v]]] for v in g.object_vertices[0]}
    power = dict(eta)
    orders = []
    for n in range(1, 6):
        orders.append(all(k == v for k, v in power.items()))
        power = {k: eta[v] for k, v in power.items()}
    # identity first at the fourth power
    assert orders == [False, False, False, True, False]
