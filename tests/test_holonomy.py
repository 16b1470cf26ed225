import operator
import random

import pytest
from test_flip_tuples import slot_perm
from test_jordan import NOT_GIANT, loops_groupoid, random_connection

from groupoids.complexes import DualMultigraph, VertexMap, build_simplicial
from groupoids.corpus import (
    bundled_dir,
    cube_skeleton,
    cycle_complex,
    grid_patch,
    octahedron_boundary,
    random_corpus,
    simplex_boundary,
    single_cube,
    strip_complex,
    triangle_strip,
)
from groupoids.graphconn import connection_groupoid, cycle_connection
from groupoids.groupoid import Groupoid, transport, tribar_groupoid
from groupoids.holonomy import (
    NotConnected,
    NotNondegenerate,
    closed_path_oracle,
    holonomy,
    holonomy_group,
    induced_embedding_check,
    is_strongly_connected,
    spanning_tree,
)
from groupoids.permgroup import _inv, _mul, closure_small, jordan_giant, recognize, schreier_sims
from groupoids.serialize import load_complex, load_json, parse_connection


def test_is_strongly_connected():
    assert is_strongly_connected(simplex_boundary(3))
    two_triangles = build_simplicial([[0, 1, 2], [3, 4, 5]])
    assert not is_strongly_connected(two_triangles)
    shared_vertex = build_simplicial([[0, 1, 2], [0, 3, 4]])
    assert not is_strongly_connected(shared_vertex)


def test_single_simplex_trivial():
    r = holonomy_group(build_simplicial([[0, 1, 2]]))
    assert r.order == 1
    assert r.tag == "trivial"


@pytest.mark.parametrize("n,order", [(3, 2), (5, 2), (7, 2), (4, 1), (6, 1), (8, 1)])
def test_cycle_holonomy(n, order):
    r = holonomy_group(cycle_complex(n))
    assert r.order == order


def test_holonomy_degree_is_slot_count():
    for K in (cycle_complex(5), simplex_boundary(3), octahedron_boundary()):
        r = holonomy_group(K)
        assert r.group.degree == K.dim + 1


def test_not_connected_raises():
    K = build_simplicial([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(NotConnected):
        holonomy_group(K)


def renumbered_ridges(g: Groupoid, seed: int) -> tuple[Groupoid, list[int]]:
    """The groupoid with its ridge ids permuted by a seeded shuffle, the
    flips re-keyed to match, and the permutation (old id -> new id).  The
    spanning tree breaks ties by lowest ridge id, so this varies the tree."""
    new = list(range(len(g.dual.ridges)))
    random.Random(seed).shuffle(new)
    ridges = [()] * len(new)
    for rid, ridge in enumerate(g.dual.ridges):
        ridges[new[rid]] = ridge
    dual = DualMultigraph(g.object_count, tuple((i, j, new[rid]) for i, j, rid in g.dual.edges),
                          tuple(ridges))
    flips = {(u, v, new[rid]): flip for (u, v, rid), flip in g.flips.items()}
    return Groupoid(g.object_vertices, dual, flips, g.corner_maps), new


# each complex, and whether a BFS tree from facet 0 has a choice to make:
# it has none when every other facet is adjacent to facet 0
@pytest.mark.parametrize("K,tree_varies", [
    (cycle_complex(3), False),
    (simplex_boundary(3), False),
    (single_cube(3), False),
    (grid_patch(2, 2)[0], True),
    (strip_complex(4, twisted=True), True),
    (octahedron_boundary(), True),
], ids=[f"K{i}" for i in range(6)])
def test_order_invariant_of_base_and_tree(K, tree_varies):
    """Every base facet, and the trees of ridge ids renumbered by seeds
    1-3, give one order and recognition tag."""
    g = Groupoid.from_complex(K)
    runs = [holonomy(g, base) for base in range(g.object_count)]
    trees = {runs[0].tree_edges}
    for seed in (1, 2, 3):
        renumbered, new = renumbered_ridges(g, seed)
        runs.append(holonomy(renumbered, 0))
        old = {n: rid for rid, n in enumerate(new)}
        trees.add(tuple(sorted((i, j, old[rid]) for i, j, rid in runs[-1].tree_edges)))
    assert (len(trees) > 1) == tree_varies
    assert len({(r.order, r.tag) for r in runs}) == 1


def test_generators_recompose_from_their_paths():
    g = Groupoid.from_complex(simplex_boundary(3))
    r = holonomy(g, 0)
    tree = set(r.tree_edges)
    # rebuild each generator through the public transport API by walking
    # the recorded tree from the base
    adjacency = {}
    for i, j, rid in tree:
        adjacency.setdefault(i, []).append((j, rid))
        adjacency.setdefault(j, []).append((i, rid))
    paths = {0: ([0], [])}
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v, rid in adjacency.get(u, ()):
            if v not in paths:
                facets, ridges = paths[u]
                paths[v] = (facets + [v], ridges + [rid])
                queue.append(v)
    gen_index = 0
    for i, j, rid in g.dual.edges:
        if (min(i, j), max(i, j), rid) in tree:
            continue
        fi, ri = paths[i]
        fj, rj = paths[j]
        loop = transport(g, fi + fj[::-1], ri + [rid] + rj[::-1])
        assert slot_perm(g.object_vertices, 0, loop.bijection) == r.generators[gen_index]
        gen_index += 1
    assert gen_index == len(r.generators)


@pytest.mark.parametrize("K", [
    cycle_complex(3),
    cycle_complex(4),
    cycle_complex(6),
    simplex_boundary(3),
    triangle_strip(4),
    grid_patch(2, 2)[0],
    strip_complex(4, twisted=True),
    strip_complex(5),
])
def test_oracle_equivalence_small_complexes(K):
    g = Groupoid.from_complex(K)
    r = holonomy(g, 0)
    oracle = closed_path_oracle(g, 0)
    degree = len(g.object_vertices[0])
    assert oracle == closure_small(r.generators, degree=degree)


def test_tribar_holonomy():
    r = holonomy(tribar_groupoid())
    assert r.order == 4
    assert r.tag == "cyclic(4)"
    assert r.outer_order == 48
    assert r.is_proper_subgroup_of_outer


def test_outer_group_comparison():
    # odd cycles realize the full outer group of an edge; a single
    # simplex realizes only the identity
    r = holonomy_group(cycle_complex(3))
    assert not r.is_proper_subgroup_of_outer
    r2 = holonomy_group(build_simplicial([[0, 1, 2]]))
    assert r2.is_proper_subgroup_of_outer


def covering(n, m):
    big, small = cycle_complex(n), cycle_complex(m)
    return VertexMap(big, small, {v: v % m for v in range(n)})


@pytest.mark.parametrize("n,m", [(6, 3), (9, 3), (8, 4)])
def test_induced_embedding_on_coverings(n, m):
    assert induced_embedding_check(covering(n, m))


def test_induced_embedding_identity():
    K = simplex_boundary(3)
    ident = VertexMap(K, K, {v: v for v in range(K.vertex_count)})
    assert induced_embedding_check(ident)


def test_induced_embedding_rejects_degenerate():
    c3 = cycle_complex(3)
    k2 = build_simplicial([[0, 1]])
    collapse = VertexMap(c3, k2, {0: 0, 1: 1, 2: 0})
    with pytest.raises(NotNondegenerate):
        induced_embedding_check(collapse)


def test_image_group_order_equals_source_order():
    from groupoids.holonomy import holonomy_group
    for n, m in [(6, 3), (9, 3), (8, 4)]:
        f = covering(n, m)
        src = holonomy_group(f.source)
        assert induced_embedding_check(f)
        # embedding check already compares orders; cross-check the source
        assert src.order in (1, 2)


def _inverse_once_cases():
    for path in sorted(bundled_dir().glob("*.json")):
        if path.name.endswith("-connection.json"):
            yield path.stem, connection_groupoid(parse_connection(load_json(path)))
        elif not path.name.endswith("-state.json"):
            K = load_complex(path)
            yield path.stem, K if isinstance(K, Groupoid) else Groupoid.from_complex(K)
    for item in random_corpus(23, 200):
        yield item.name, Groupoid.from_complex(item.complex)
    yield "twisted-strip40", Groupoid.from_complex(strip_complex(40, twisted=True))
    yield "cycle400", connection_groupoid(cycle_connection(400))
    rng = random.Random(29)
    for n in (12, 16, 20, 24, 28) * 6:
        yield f"random-k{n}", connection_groupoid(random_connection(n, rng))


def test_loops_invert_each_transport_once_with_the_same_generators():
    """Each loop is transport to i, the flip, and the inverse transport of
    j; ``holonomy`` inverts each transport once however many loops end
    there.  The reference inverts it again for every loop."""
    count = 0
    for name, g in _inverse_once_cases():
        base = g.object_count // 2
        r = holonomy(g, base, require_connected=False)
        tree, to_base = spanning_tree(g, base)
        want = [_mul(_mul(to_base[i], g.flips[(i, j, rid)]), _inv(to_base[j]))
                for i, j, rid in g.dual.edges if i in to_base and (i, j, rid) not in tree]
        assert [p.images for p in r.generators] == want, name
        count += 1
    assert count >= 250


def moved_first_group(r):
    """The group as it was built when the loops were sorted, most points
    moved first, before Jordan's certificate as well as the chain."""
    degree = len(r.base_vertices)
    by_moved = sorted(r.generators, reverse=True,
                      key=lambda p: sum(map(operator.ne, p.images, range(degree))))
    return jordan_giant(by_moved, degree) or schreier_sims(by_moved, degree=degree)


def _group_cases():
    for path in sorted(bundled_dir().glob("*.json")):
        if path.name.endswith("-connection.json"):
            yield path.name, connection_groupoid(parse_connection(load_json(path)))
        elif not path.name.endswith("-state.json"):
            K = load_complex(path)
            yield path.name, K if isinstance(K, Groupoid) else Groupoid.from_complex(K)
    for item in random_corpus(seed=33, count=200):
        yield item.name, Groupoid.from_complex(item.complex)
    for name, (gens, _) in NOT_GIANT.items():
        yield name, loops_groupoid(gens)
    rng = random.Random(34)
    for n in (12, 16, 20, 24, 28) * 40:
        yield f"random-k{n}", connection_groupoid(random_connection(n, rng))


def test_jordan_reads_tree_order_with_the_moved_first_verdict():
    """``jordan_giant`` reads the loops in tree order and only the chain
    sorts them; the group keeps its type, order, tag and generators."""
    kinds = set()
    for name, g in _group_cases():
        r = holonomy(g, 0, require_connected=False)
        got, want = r.group, moved_first_group(r)
        assert type(got) is type(want), name
        assert (got.order, recognize(got), got.generators) == \
            (want.order, recognize(want), want.generators), name
        kinds.add(type(got).__name__)
    assert kinds == {"GiantGroup", "PermGroup"}
