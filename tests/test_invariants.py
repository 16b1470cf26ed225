import pytest
from hypothesis import given, settings, strategies as st

from groupoids.complexes import CubicalComplex, SimplicialComplex, z2_potential
from groupoids.corpus import (
    cube_grid_patch,
    cube_skeleton,
    cycle_complex,
    grid_patch,
    octahedron_boundary,
    quotient_example,
    random_corpus,
    simplex_boundary,
    single_cube,
    strip_complex,
    triangle_strip,
)
from groupoids.groupoid import Groupoid
from groupoids.holonomy import NotConnected, holonomy, holonomy_group
from groupoids.invariants import (
    AdjacentVertices,
    NontrivialHolonomy,
    NotLocallyConnected,
    SharedCell,
    compare_invariants,
    i_invariant,
    lattice_parity_coloring,
    locally_strongly_connected,
    nacl,
    quotient_identify,
    transport_coloring,
)


def test_nacl_examples():
    assert nacl(single_cube(3)).value == 0
    grid, _ = grid_patch(3, 3)
    assert nacl(grid).value == 0
    assert nacl(SimplicialComplex([[0, 1, 2]])).value == 1


def test_nacl_witnesses():
    grid, _ = grid_patch(2, 2)
    result = nacl(grid)
    assert result.coloring is not None
    assert result.coloring.is_proper(grid.skeleton_edges)
    odd = nacl(cycle_complex(7))
    assert odd.value == 1
    cycle = odd.odd_cycle
    assert len(cycle) % 2 == 1
    edges = set(cycle_complex(7).skeleton_edges)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert tuple(sorted((a, b))) in edges


def test_i_invariant_examples():
    assert i_invariant(single_cube(3)) == 0
    grid, _ = grid_patch(3, 3)
    assert i_invariant(grid) == 0
    assert i_invariant(strip_complex(4, twisted=True)) == 1
    assert i_invariant(strip_complex(5, twisted=False)) == 1
    assert i_invariant(strip_complex(5, twisted=True)) == 0


def test_strip_parity_law():
    # transport reverses the along-strip direction once per square and
    # the across direction once per twist
    for n in range(3, 8):
        for twisted in (False, True):
            expect = (n + (1 if twisted else 0)) % 2
            assert i_invariant(strip_complex(n, twisted)) == expect


def test_compare_invariants_grid():
    grid, _ = grid_patch(2, 3)
    c = compare_invariants(grid)
    assert (c.i, c.nacl, c.equal) == (0, 0, True)
    assert c.strongly_connected and c.locally_strongly_connected


def test_quotient_example_splits_invariants():
    K = quotient_example()
    c = compare_invariants(K)
    assert c.i == 0
    assert c.nacl == 1
    assert not c.equal
    # the equality hypotheses must fail somewhere
    assert not (c.strongly_connected and c.locally_strongly_connected)
    assert c.witness_odd_cycle is not None


def test_quotient_identify_guards():
    grid, coords = grid_patch(2, 2)
    u = coords.index((0, 0))
    with pytest.raises(AdjacentVertices):
        quotient_identify(grid, u, coords.index((1, 0)))
    with pytest.raises(SharedCell):
        quotient_identify(grid, u, coords.index((1, 1)))
    with pytest.raises(ValueError):
        quotient_identify(grid, u, u)


def test_quotient_preserves_holonomy_order():
    grid, coords = grid_patch(3, 3)
    merged = quotient_identify(grid, coords.index((0, 0)), coords.index((3, 0)))
    assert merged.vertex_count == grid.vertex_count - 1
    assert holonomy_group(merged).order == holonomy_group(grid).order
    assert i_invariant(merged) == i_invariant(grid) == 0


def test_lattice_parity_coloring_forms():
    signs = lattice_parity_coloring([(1, 1, 1), (-1, 1, 1), (-1, -1, 1)])
    assert [signs.color[i] for i in range(3)] == [0, 1, 0]
    summed = lattice_parity_coloring([(2, 3), (0, 0), (1, 0)])
    assert [summed.color[i] for i in range(3)] == [1, 0, 1]


def test_lattice_parity_proper_on_grids_and_skeleta():
    for K, coords in (grid_patch(3, 2), cube_grid_patch(2, 2, 1),
                      cube_skeleton(3, 2), cube_skeleton(4, 2)):
        coloring = lattice_parity_coloring(coords)
        assert coloring.is_proper(K.skeleton_edges)


def test_parity_flips_across_any_lattice_edge():
    K, coords = grid_patch(4, 4)
    coloring = lattice_parity_coloring(coords)
    for a, b in K.skeleton_edges:
        assert coloring.color[a] != coloring.color[b]


def test_transport_coloring_triangle():
    coloring = transport_coloring(SimplicialComplex([[0, 1, 2]]))
    assert sorted(coloring.color.values()) == [0, 1, 2]


def test_transport_coloring_strip():
    K = triangle_strip(5)
    coloring = transport_coloring(K)
    assert coloring.is_rainbow(K)
    assert set(coloring.color.values()) == {0, 1, 2}


def test_transport_coloring_octahedron_gives_dual_cube_coloring():
    # the octahedron is the dual of the cube: a rainbow coloring of its
    # triangles' vertices is a facet coloring of the cube with exactly
    # dim+1 = 3 colors, opposite facets sharing one
    K = octahedron_boundary()
    coloring = transport_coloring(K)
    assert coloring.is_rainbow(K)
    assert len(set(coloring.color.values())) == 3


def test_transport_coloring_cubical_grid():
    K, _ = grid_patch(3, 3)
    coloring = transport_coloring(K)
    assert coloring.is_rainbow(K)
    assert len(set(coloring.color.values())) == 4


def test_transport_coloring_rejections():
    with pytest.raises(NontrivialHolonomy):
        transport_coloring(cycle_complex(3))
    with pytest.raises(NontrivialHolonomy):
        transport_coloring(simplex_boundary(3))
    stars = CubicalComplex([(0, 2, 1, 3), (3, 5, 4, 6)])
    with pytest.raises((NotLocallyConnected, NotConnected)):
        transport_coloring(stars)
    disconnected = SimplicialComplex([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(NotConnected):
        transport_coloring(disconnected)


def test_locally_strongly_connected_examples():
    assert locally_strongly_connected(simplex_boundary(3))
    assert locally_strongly_connected(single_cube(3))
    two_squares = CubicalComplex([(0, 2, 1, 3), (3, 5, 4, 6)])
    assert not locally_strongly_connected(two_squares)


def test_i_le_nacl_on_random_corpus():
    for item in random_corpus(seed=3, count=60):
        c = compare_invariants(item.complex)
        assert c.i <= c.nacl, item.name
        if c.nacl == 0:
            assert c.i == 0, item.name


def test_equality_under_connectivity_hypotheses():
    checked = 0
    for item in random_corpus(seed=9, count=60):
        c = compare_invariants(item.complex)
        if c.strongly_connected and c.locally_strongly_connected:
            checked += 1
            assert c.equal, item.name
    assert checked > 10


def test_grid_subcomplexes_have_zero_parity_invariant():
    for item in random_corpus(seed=5, count=40):
        if item.kind in ("grid_subset", "cube3d_subset", "cube_skeleton"):
            assert i_invariant(item.complex) == 0, item.name


# --- the Z_2-potential engine against the holonomy path it replaced ---

def reference_i_invariant(K):
    """i as it was computed before the engine: the flip groupoid, the
    holonomy of each dual component, and the -1 signs of every loop."""
    g = Groupoid.from_complex(K)
    for component in g.dual.components():
        result = holonomy(g, min(component), require_connected=False)
        if any(s.signs.count(-1) % 2 for s in result.signed_generators):
            return 1
    return 0


def _engine_cases():
    for seed in range(6):
        for item in random_corpus(seed, 800):
            yield item.name, item.complex
    for n in range(3, 42):
        for twisted in (False, True):
            yield f"strip{n}{'t' if twisted else ''}", strip_complex(n, twisted)
    for d in range(2, 7):
        for k in range(1, d):
            yield f"skel{d}-{k}", cube_skeleton(d, k)[0]


def test_i_invariant_matches_the_holonomy_path():
    values = []
    for name, K in _engine_cases():
        values.append(i_invariant(K))
        assert values[-1] == reference_i_invariant(K), name
    assert sorted(set(values)) == [0, 1]


def _scrambled(K, data):
    """K with each cube's corners re-addressed by a drawn cube symmetry
    and its vertices renamed: the same complex under other corner orders."""
    k = K.dim
    rename = data.draw(st.permutations(range(K.vertex_count)))
    cubes = []
    for cube in K.cubes:
        axes = data.draw(st.permutations(range(k)))
        flip = data.draw(st.integers(0, (1 << k) - 1))
        cubes.append(tuple(rename[cube[sum((x >> i & 1) << a for i, a in enumerate(axes)) ^ flip]]
                           for x in range(1 << k)))
    return CubicalComplex(cubes)


_SOURCES = ([strip_complex(n, t) for n in (3, 4, 5, 6) for t in (False, True)]
            + [quotient_example(), grid_patch(3, 2)[0], cube_skeleton(4, 2)[0],
               cube_skeleton(4, 3)[0], cube_grid_patch(2, 1, 2)[0],
               CubicalComplex([(0, 1, 2, 3), (4, 5, 6, 7)])]
            + [item.complex for item in random_corpus(11, 30)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SOURCES), st.data())
def test_i_invariant_matches_the_holonomy_path_under_any_corner_order(K, data):
    scrambled = _scrambled(K, data)
    assert i_invariant(scrambled) == reference_i_invariant(scrambled) == i_invariant(K)


def test_compare_invariants_builds_no_groupoid(monkeypatch):
    def refuse(K):
        raise AssertionError("compare_invariants built a groupoid")
    monkeypatch.setattr(Groupoid, "from_complex", staticmethod(refuse))
    assert compare_invariants(strip_complex(4, twisted=True)).i == 1
    c = compare_invariants(quotient_example())
    assert (c.i, c.nacl) == (0, 1)


def _labelled(edges):
    adj = {}
    for u, v, label in edges:
        adj.setdefault(u, []).append((v, label))
        adj.setdefault(v, []).append((u, label))
    return lambda u: adj.get(u, ())


def test_z2_potential_scans_every_component_in_order():
    # {0, 1} agrees; the triangle 2-3-4 has odd label sum, first broken at (3, 4)
    parent, potential, conflict = z2_potential(
        5, _labelled([(0, 1, 1), (2, 3, 1), (2, 4, 0), (3, 4, 0)]))
    assert parent == {0: None, 1: 0, 2: None, 3: 2, 4: 2}
    assert list(potential.items()) == [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)]
    assert conflict == (3, 4)
    # with both components broken, the first one's edge is reported
    _, _, conflict = z2_potential(
        6, _labelled([(0, 1, 1), (1, 2, 0), (0, 2, 0), (3, 4, 1), (4, 5, 1), (3, 5, 1)]))
    assert conflict == (1, 2)
    # an isolated node starts its own component at potential 0
    assert z2_potential(2, _labelled([])) == ({0: None, 1: None}, {0: 0, 1: 0}, None)
