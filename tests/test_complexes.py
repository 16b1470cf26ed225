import contextlib
import io
import json
import random
import tempfile
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from groupoids.complexes import (
    ComplexError,
    CornerCollision,
    CubicalComplex,
    DegenerateFacet,
    DominatedFacet,
    NonPure,
    SemilatticeViolation,
    SimplicialComplex,
    VertexMap,
    check_nondegenerate,
    compose_maps,
    face_poset,
    facet_adjacency,
)
from groupoids.corpus import (
    bundled_dir,
    cube_grid_patch,
    cube_skeleton,
    cycle_complex,
    grid_patch,
    octahedron_boundary,
    random_corpus,
    simplex_boundary,
    strip_complex,
    triangle_strip,
)
from groupoids.cli import main
from groupoids.games import grid_puzzle, ordered_state
from groupoids.graphconn import rotation_connection
from groupoids.groupoid import Groupoid
from groupoids.holonomy import holonomy
from groupoids.homcx import complete_graph, cycle_graph
from groupoids.invariants import compare_invariants, nacl
from groupoids.serialize import (
    ParseError,
    _corner_keys,
    complex_to_dict,
    connection_to_dict,
    load_complex,
    parse_complex,
    parse_connection,
    parse_state,
    state_to_dict,
)

TEST_COMPLEXES = Path(__file__).resolve().parent / "complexes"


def _scrambled_fixtures():
    """The cubical fixtures whose cells are relabelled by cube symmetries."""
    return [load_complex(path) for path in sorted(TEST_COMPLEXES.glob("*-scrambled.json"))]


def test_build_simplicial_examples():
    tri = SimplicialComplex([[0, 1, 2]])
    assert tri.dim == 2
    assert tri.facets == ((0, 1, 2),)
    c3 = SimplicialComplex([[0, 1], [1, 2], [2, 0]])
    assert c3.dim == 1
    assert len(c3.facets) == 3


@pytest.mark.parametrize("facets,err", [
    ([[0, 1, 2], [0, 1]], NonPure),
    ([[0, 0, 1]], DegenerateFacet),
    ([[0, 1, 2], [1, 2]], NonPure),
    ([[0, 1, 2], [0, 1, 2]], DominatedFacet),
    ([], ComplexError),
])
def test_build_simplicial_rejects(facets, err):
    with pytest.raises(err):
        SimplicialComplex(facets)


def test_sparse_vertex_ids_rejected():
    with pytest.raises(ComplexError):
        SimplicialComplex([[0, 2]])


def test_face_poset_counts():
    assert len(face_poset(SimplicialComplex([[0, 1, 2]])).elements) == 7
    square = CubicalComplex([(0, 2, 1, 3)])
    assert len(face_poset(square).elements) == 9
    assert len(face_poset(simplex_boundary(3)).elements) == 14


def test_face_poset_depth_and_maximal_ranks():
    for K in (simplex_boundary(3), cycle_complex(5), grid_patch(2, 2)[0]):
        poset = face_poset(K)
        assert poset.depth == K.dim
        for elem in poset.maximal_elements():
            assert poset.rank[elem] == K.dim


def test_face_poset_cover_ranks():
    poset = face_poset(simplex_boundary(3))
    for lo, hi in poset.covers:
        assert poset.rank[hi] == poset.rank[lo] + 1


def brute_force_covers(K):
    """Oracle: a is covered by b when a is a proper subset of b one rank down."""
    faces = K.faces
    return {(a, b) for a in faces for b in faces if a < b and faces[b] == faces[a] + 1}


COVER_CASES = ([cube_skeleton(d, k)[0] for d in range(2, 6) for k in range(1, d)]
               + [load_complex(path) for path in sorted(TEST_COMPLEXES.glob("*-scrambled.json"))]
               + [item.complex for item in random_corpus(5, 60)])


def test_cubical_face_poset_covers_match_brute_force():
    for K in COVER_CASES:
        poset = face_poset(K)
        assert set(poset.elements) == set(K.faces)
        assert len(set(poset.covers)) == len(poset.covers)
        assert set(poset.covers) == brute_force_covers(K)


def test_build_cubical_examples():
    square = CubicalComplex([(0, 2, 1, 3)])
    assert square.dim == 2
    assert len(square.cubes) == 1
    grid, _ = grid_patch(2, 2)
    assert grid.vertex_count == 9
    assert len(grid.cubes) == 4
    assert len(grid.skeleton_edges) == 12


def test_build_cubical_rejects():
    with pytest.raises(CornerCollision):
        CubicalComplex([(0, 2, 1, 0)])
    # two squares meeting in two diagonal vertices
    with pytest.raises(SemilatticeViolation):
        CubicalComplex([(0, 2, 1, 3), (3, 5, 4, 0)])
    with pytest.raises(NonPure):
        CubicalComplex([(0, 2, 1, 3), (0, 1)])


def test_cubical_downset_counts_cube():
    # below a k-cell: C(k, j) * 2^(k-j) faces of dimension j
    from groupoids.corpus import single_cube
    K = single_cube(3)
    poset = face_poset(K)
    top = next(e for e in poset.elements if poset.rank[e] == 3)
    down = poset.down_set(top)
    for j in range(4):
        count = sum(1 for e in down if poset.rank[e] == j)
        assert count == comb(3, j) * 2 ** (3 - j)


def test_facet_adjacency_examples():
    bd3 = simplex_boundary(3)
    dual = facet_adjacency(bd3)
    assert dual.node_count == 4
    assert len(dual.edges) == 6
    from groupoids.corpus import single_cube
    dual_cube = facet_adjacency(single_cube(3))
    assert dual_cube.node_count == 1
    assert dual_cube.edges == ()
    # dimension 1: the ridge is a vertex; one dual edge per facet pair
    # per shared vertex, so the three edges at vertex 0 contribute C(3,2)
    tree = SimplicialComplex([[0, 1], [1, 2], [2, 0], [0, 3]])
    dual_tree = facet_adjacency(tree)
    assert len(dual_tree.edges) == 5
    for i, j, rid in dual_tree.edges:
        assert len(dual_tree.ridges[rid]) == 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_boundary_simplex_edge_count(d):
    dual = facet_adjacency(simplex_boundary(d + 1))
    assert len(dual.edges) == comb(d + 2, 2)


def test_ridge_edges_are_codim_one_faces():
    grid, _ = grid_patch(2, 2)
    dual = facet_adjacency(grid)
    for i, j, rid in dual.edges:
        ridge = frozenset(dual.ridges[rid])
        assert grid.faces[ridge] == grid.dim - 1
        assert ridge <= frozenset(grid.cubes[i])
        assert ridge <= frozenset(grid.cubes[j])


def test_check_nondegenerate_examples():
    c3 = cycle_complex(3)
    ident = VertexMap(c3, c3, {v: v for v in range(3)})
    assert check_nondegenerate(ident)
    c6 = cycle_complex(6)
    cover = VertexMap(c6, c3, {v: v % 3 for v in range(6)})
    assert check_nondegenerate(cover)
    k2 = SimplicialComplex([[0, 1]])
    collapse = VertexMap(c3, k2, {0: 0, 1: 1, 2: 0})
    report = check_nondegenerate(collapse)
    assert not report
    assert report.witness == (0, 2)


def test_check_nondegenerate_cubical_inclusion():
    small, small_coords = grid_patch(1, 1)
    big, big_coords = grid_patch(2, 2)
    where = {tuple(c): v for v, c in enumerate(big_coords)}
    inclusion = VertexMap(small, big, {
        v: where[tuple(small_coords[v])] for v in range(small.vertex_count)
    })
    assert check_nondegenerate(inclusion)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=11))
def test_nondegenerate_composition_closed(a, b, rot):
    # rotations and coverings of cycles compose to non-degenerate maps
    n = 3 * a * b
    mid = 3 * b
    big, middle, small = cycle_complex(n), cycle_complex(mid), cycle_complex(3)
    f = VertexMap(big, middle, {v: (v + rot) % mid for v in range(n)})
    g = VertexMap(middle, small, {v: v % 3 for v in range(mid)})
    assert check_nondegenerate(f)
    assert check_nondegenerate(g)
    assert check_nondegenerate(compose_maps(f, g))


def test_vertex_map_must_be_total():
    c3 = cycle_complex(3)
    with pytest.raises(ComplexError):
        VertexMap(c3, c3, {0: 0, 1: 1})


def test_cubical_face_structure_consistency_enforced():
    # a square face glued to the same vertex set with mismatched edges
    # must be rejected: the shared cell would have two face structures
    base = tuple(range(8))
    twisted_top = tuple(range(4, 12))
    # sanity: straight stacking is fine
    CubicalComplex([base, twisted_top])
    twisted_top_bad = list(twisted_top)
    # swap two corners on the shared square: its edges now run diagonally
    twisted_top_bad[2], twisted_top_bad[3] = 7, 6
    # the shared vertex set {4,5,6,7} carries two edge structures
    with pytest.raises(SemilatticeViolation):
        CubicalComplex([base, twisted_top_bad])


# --- The near-linear build against the pairwise rules it replaced ---

def _old_cube_faces(corners, k):
    """The per-cube face enumeration that the shared face template replaced."""
    coords = range(k)
    for r in range(k + 1):
        for free in combinations(coords, r):
            frozen = [c for c in coords if c not in free]
            for mask in range(1 << len(frozen)):
                fixed = {c: (mask >> i) & 1 for i, c in enumerate(frozen)}
                verts = []
                for sub in range(1 << r):
                    bits = [0] * k
                    for c, b in fixed.items():
                        bits[c] = b
                    for i, c in enumerate(free):
                        bits[c] = (sub >> i) & 1
                    verts.append(corners[sum(b << j for j, b in enumerate(bits))])
                yield free, fixed, frozenset(verts)


def _old_cubical_verdict(cubes, k):
    """Exception type (or None) of the all-pairs validation of corner tuples."""
    try:
        for c in cubes:
            if len(set(c)) != len(c):
                raise CornerCollision
        used = {v for c in cubes for v in c}
        if used != set(range(max(used) + 1)):
            raise ComplexError
        if len({frozenset(c) for c in cubes}) != len(cubes):
            raise SemilatticeViolation
        facesets = [{verts for _, _, verts in _old_cube_faces(c, k)} for c in cubes]
        owners = {}
        for c, fset in enumerate(facesets):
            for verts in fset:
                owners.setdefault(verts, []).append(c)
        for a, b in combinations(owners, 2):
            inter = a & b
            if inter and any(inter not in facesets[c] for c in owners[a] + owners[b]):
                raise SemilatticeViolation
        for c in cubes:
            by_dim = {}
            for free, _, verts in _old_cube_faces(c, k):
                by_dim.setdefault(len(free), set()).add(verts)
            if any(len(by_dim[j]) != comb(k, j) << (k - j) for j in range(k + 1)):
                raise SemilatticeViolation
    except ComplexError as e:
        return type(e)
    return None


def _new_cubical_verdict(cubes, k):
    try:
        CubicalComplex(cubes)
    except ComplexError as e:
        return type(e)
    return None


def _mutate(rng, cubes):
    """Merge, swap or borrow corners, then relabel vertices densely."""
    cubes = [list(c) for c in cubes]
    for _ in range(rng.randint(1, 2)):
        cell = rng.choice(cubes)
        i, j = rng.sample(range(len(cell)), 2)
        how = rng.randrange(3)
        if how == 0:  # merge two vertices of the complex everywhere
            u, w = cell[i], rng.choice(rng.choice(cubes))
            cubes = [[w if v == u else v for v in c] for c in cubes]
        elif how == 1:  # swap two corners of one cell
            cell[i], cell[j] = cell[j], cell[i]
        else:  # borrow a corner from another cell
            cell[i] = rng.choice(rng.choice(cubes))
    dense = {v: n for n, v in enumerate(sorted({v for c in cubes for v in c}))}
    return [tuple(dense[v] for v in c) for c in cubes]


def test_semilattice_check_matches_pairwise_rule():
    rng = random.Random(20061)
    bases = [grid_patch(w, h)[0] for w in (1, 2, 3) for h in (1, 2, 3)]
    bases += [cube_grid_patch(w, h, 1)[0] for w, h in ((2, 1), (2, 2))]
    bases += [cube_skeleton(d, k)[0] for d, k in ((3, 1), (3, 2), (4, 2), (4, 3))]
    bases += [strip_complex(n, t) for n in (3, 4, 5) for t in (False, True)]
    # shared faces matched by non-trivial cube symmetries, up to k = 4
    bases += [cube_skeleton(5, 4)[0]] + _scrambled_fixtures()
    verdicts = {}
    for K in bases:
        assert _old_cubical_verdict(K.cubes, K.dim) is None
        for _ in range(90 if K.dim < 4 else 40):
            cubes = _mutate(rng, K.cubes)
            old = _old_cubical_verdict(cubes, K.dim)
            assert _new_cubical_verdict(cubes, K.dim) == old, cubes
            verdicts[old] = verdicts.get(old, 0) + 1
    # the mutations reach every rejection as well as valid complexes
    assert set(verdicts) == {None, CornerCollision, SemilatticeViolation}
    assert verdicts[SemilatticeViolation] >= 400


def _stacked_cubes(k):
    """Two k-cubes sharing the face where the first has bit k-1 set and
    the second has it clear, as corner tuples."""
    half = 1 << (k - 1)
    return [tuple(range(2 * half)), tuple(range(half, 3 * half))]


def _twisted_shared_face(k, i, j):
    """The stack with corners i and j of the shared face swapped in the
    second cube: the face keeps its vertex set, but its edges disagree."""
    first, second = _stacked_cubes(k)
    second = list(second)
    second[i], second[j] = second[j], second[i]
    return [first, tuple(second)]


def _opposite_corners_only(k):
    """A second k-cube meeting the first only in corners 0 and 3, the
    opposite corners of a square face of both."""
    n = 1 << k
    fresh = iter(range(n, 2 * n - 2))
    return [tuple(range(n)), tuple(i if i in (0, 3) else next(fresh) for i in range(n))]


@pytest.mark.parametrize("k,cubes", [
    (3, _twisted_shared_face(3, 2, 3)),
    (4, _twisted_shared_face(4, 2, 3)),
    # the unit corners still match; corner 3 breaks affinity
    (4, _twisted_shared_face(4, 3, 5)),
    (3, _opposite_corners_only(3)),
    (4, _opposite_corners_only(4)),
], ids=["twisted-k3", "twisted-k4", "non-affine-k4", "opposite-corners-k3",
        "opposite-corners-k4"])
def test_cubical_face_structure_consistency_enforced_twins(k, cubes):
    assert _new_cubical_verdict(_stacked_cubes(k), k) is None
    assert _old_cubical_verdict(cubes, k) is SemilatticeViolation
    assert _new_cubical_verdict(cubes, k) is SemilatticeViolation


def _face_guard_complexes():
    return [item.complex for item in random_corpus(13, 200)] + _scrambled_fixtures()


def test_build_flips_holonomy_and_invariants_never_list_all_faces():
    for K in _face_guard_complexes():
        K = parse_complex(complex_to_dict(K))
        g = Groupoid.from_complex(K)
        assert not {"cube_face_lists", "faces"} & K.__dict__.keys()
        holonomy(g, 0, require_connected=False)
        compare_invariants(K)
        assert not {"cube_face_lists", "faces"} & K.__dict__.keys()


def test_ridges_and_edges_match_the_face_lists():
    for K in _face_guard_complexes():
        edges, ridges = K.skeleton_edges, facet_adjacency(K).ridges
        by_dim = {}
        for fs, d in K.faces.items():
            by_dim.setdefault(d, []).append(tuple(sorted(fs)))
        assert edges == tuple(sorted(by_dim[1]))
        assert ridges == tuple(sorted(by_dim[K.dim - 1]))


def test_nacl_on_a_simplex_boundary_never_lists_all_faces():
    K = simplex_boundary(4)
    nacl(K)
    assert "faces" not in K.__dict__
    assert K.skeleton_edges == tuple(combinations(range(5), 2))


def test_simplicial_skeleton_edges_match_the_face_dict():
    complexes = [K for path in sorted(bundled_dir().glob("*.json"))
                 if not path.name.endswith(("-state.json", "-connection.json"))
                 and isinstance(K := load_complex(path), SimplicialComplex)]
    assert len(complexes) >= 10
    complexes += [simplex_boundary(d) for d in (1, 2, 4)] + [SimplicialComplex([[0], [1], [2]])]
    for K in complexes:
        edges = [tuple(sorted(fs)) for fs, d in K.faces.items() if d == 1]
        assert K.skeleton_edges == tuple(sorted(edges))


def _old_simplicial_checks(facets):
    raw = [tuple(f) for f in facets]
    for f in raw:
        if len(set(f)) != len(f):
            raise DegenerateFacet(f"repeated vertex in facet {f}")
    sizes = {len(f) for f in raw}
    if len(sizes) != 1:
        raise NonPure(f"mixed facet sizes {sorted(sizes)}")
    sets = [frozenset(f) for f in raw]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a <= b:
                raise DominatedFacet(f"facet {raw[i]} contained in {raw[j]}")
    used = set().union(*sets)
    n = max(used) + 1
    if used != set(range(n)):
        missing = sorted(set(range(n)) - used)
        raise ComplexError(f"vertex ids must be dense 0..{n - 1}; missing {missing}")


def test_duplicate_facet_check_matches_dominated_loop():
    rng = random.Random(20062)
    seen = set()
    for _ in range(2000):
        d = rng.randint(1, 3)
        facets = [rng.sample(range(d + 3), d + 1) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.2:
            facets.insert(rng.randrange(len(facets)), rng.sample(range(d + 3), d))
        verdicts = []
        for build in (_old_simplicial_checks, SimplicialComplex):
            try:
                build(facets)
                verdicts.append(None)
            except ComplexError as e:
                verdicts.append((type(e), str(e)))
        assert verdicts[0] == verdicts[1], facets
        seen.add(verdicts[0] and verdicts[0][0])
    assert seen == {None, DominatedFacet, NonPure, ComplexError}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_face_template_matches_per_cube_faces(k):
    corners = tuple(random.Random(k).sample(range(1 << k), 1 << k))
    K = CubicalComplex([corners])
    assert list(K.cube_face_lists[0]) == [(free, verts) for free, _, verts
                                          in _old_cube_faces(corners, k)]


@pytest.mark.parametrize("cubes", [
    [(0, True)],
    [(0, 1.0)],
    [(0, "1")],
    [(0, 1, 2)],
    [()],
    [(0,)],
])
def test_build_cubical_rejects_bad_input(cubes):
    with pytest.raises(ComplexError):
        CubicalComplex(cubes)


@pytest.mark.parametrize("cubes", [
    [{"0": 0, "1": True}],
    [{"0": 0, "1": 1.0}],
    [{"0": 0, "1": "1"}],
    [[0, 1]],
    [{}],
    [{"0": 0, "2": 1}],
])
def test_parse_complex_refuses_bad_cubes(cubes):
    with pytest.raises(ParseError, match="^invalid cubical complex: "):
        parse_complex({"kind": "cubical", "cubes": cubes})


@pytest.mark.parametrize("facets", [[[0, True]], [[0, 1.0]], [["a", "b"]], [[0, None]]])
def test_build_simplicial_rejects_non_integer_ids(facets):
    with pytest.raises(ComplexError, match="is not an integer"):
        SimplicialComplex(facets)


_json_scalars = st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9) | st.text("01a", max_size=3)
_json = st.recursive(_json_scalars, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text("01a", max_size=3), inner, max_size=4),
                     max_leaves=12)
_vertex = st.integers(0, 7) | _json_scalars
_complexes = st.one_of(
    st.fixed_dictionaries({"kind": st.just("simplicial"),
                           "facets": st.lists(st.lists(_vertex, max_size=4), max_size=5) | _json}),
    st.fixed_dictionaries({"kind": st.just("cubical"),
                           "cubes": st.lists(st.dictionaries(st.text("01", max_size=3), _vertex,
                                                             max_size=8) | _json, max_size=4)
                           | _json},
                          optional={"dim": _json_scalars}),
    st.fixed_dictionaries({"kind": _json_scalars}, optional={"name": _json_scalars}),
    _json,
)


@given(_complexes)
def test_parse_complex_raises_only_input_errors(obj):
    try:
        parse_complex(obj)
    except (ParseError, ComplexError):
        pass


# --- corner keys against the mapping parser that cube construction once ran ---

def _reference_cubical(cubes):
    """The corner-key parsing of cube construction from when it took
    corner-address maps, verbatim; the flat tuples it made go on through
    the checks that did not change."""
    normalized = []
    k = None
    for cube in cubes:
        if not isinstance(cube, Mapping) or not cube:
            raise ComplexError(f"cube {cube!r} is not a non-empty map of corner addresses")
        entries = {}
        for key, v in cube.items():
            bits = tuple("01".find(ch) for ch in key) if isinstance(key, str) else tuple(key)
            if any(b not in (0, 1) for b in bits):
                raise ComplexError(f"bad corner address {key!r}")
            if not isinstance(v, int) or isinstance(v, bool):
                raise ComplexError(f"vertex id {v!r} is not an integer")
            entries[bits] = v
        if k is None:
            k = len(next(iter(entries)))
            if k < 1:
                raise ComplexError("cube dimension must be at least 1")
        if {len(b) for b in entries} != {k}:
            raise NonPure("mixed cube dimensions")
        if len(entries) != 1 << k:
            raise ComplexError(f"cube needs all {1 << k} corners")
        corners = [0] * (1 << k)
        for bits, v in entries.items():
            corners[sum(b << j for j, b in enumerate(bits))] = v
        if len(set(corners)) != len(corners):
            raise CornerCollision(f"repeated vertex in cube {cube}")
        normalized.append(tuple(corners))
    if k is None:
        raise ComplexError("cube list is empty")
    return CubicalComplex(normalized)


def _parse_outcome(parse, cubes):
    """The complex, or the error's cause type and message; a corner
    collision's message printed the input map and now prints the tuple."""
    try:
        return parse(cubes)
    except ParseError as e:
        cause = type(e.__cause__)
        return cause, None if cause is CornerCollision else str(e)


def _reference_parse(cubes):
    try:
        return _reference_cubical(cubes)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid cubical complex: {e}") from e


_KEY_SOURCES = [grid_patch(2, 2)[0], strip_complex(3, True), cube_skeleton(3, 2)[0],
                cube_grid_patch(1, 2, 1)[0], cube_skeleton(2, 1)[0]]


@st.composite
def _cube_lists(draw):
    """Arbitrary corner-key maps, or a valid complex's maps after a few
    edits: two corners swapped, one set to a drawn vertex, dropped, or
    moved to a drawn key."""
    if draw(st.booleans()):
        return draw(st.lists(st.dictionaries(st.text("01a", max_size=3), _vertex, max_size=8)
                             | st.lists(_vertex, max_size=4), max_size=4))
    cubes = complex_to_dict(draw(st.sampled_from(_KEY_SOURCES)))["cubes"]
    for _ in range(draw(st.integers(0, 3))):
        cube = draw(st.sampled_from(cubes))
        if not cube:
            break
        key = draw(st.sampled_from(sorted(cube)))
        other = draw(st.sampled_from(sorted(cube)) | st.text("01a", max_size=3))
        edit = draw(st.sampled_from(("swap", "set", "drop", "move")))
        if edit == "swap" and other in cube:
            cube[key], cube[other] = cube[other], cube[key]
        elif edit == "set":
            cube[key] = draw(st.integers(0, 12) | _vertex)
        elif edit == "drop":
            del cube[key]
        else:
            cube[other] = cube.pop(key)
    return cubes


@settings(max_examples=400, deadline=None)
@given(_cube_lists())
def test_parse_complex_matches_the_mapping_parser(cubes):
    got = _parse_outcome(lambda c: parse_complex({"kind": "cubical", "cubes": c}), cubes)
    assert got == _parse_outcome(_reference_parse, cubes)


def test_parse_complex_checks_the_declared_dim_on_every_cube():
    square = {"00": 0, "10": 1, "01": 2, "11": 3}
    with pytest.raises(ParseError, match="^corner keys do not match the declared dim$"):
        parse_complex({"kind": "cubical", "dim": 2, "cubes": [square, {"0": 3, "1": 4}]})
    with pytest.raises(ParseError, match="^invalid cubical complex: mixed cube dimensions$"):
        parse_complex({"kind": "cubical", "cubes": [square, {"0": 3, "1": 4}]})


# --- each constructor runs every check, and the parser reports the same ---

def test_the_constructors_derive_what_the_cells_fix():
    # vertex_count and dim are read off the cells, so a mismatch cannot be passed in
    with pytest.raises(TypeError):
        CubicalComplex(vertex_count=3, dim=2, cubes=((0, 1, 2, 0),))
    with pytest.raises(TypeError):
        SimplicialComplex(vertex_count=2, facets=((0, 0, 5), (3, 1)))
    with pytest.raises(CornerCollision, match=r"^repeated vertex in cube \(0, 1, 2, 0\)$"):
        CubicalComplex(((0, 1, 2, 0),))
    with pytest.raises(DegenerateFacet, match=r"^repeated vertex in facet \(0, 0, 5\)$"):
        SimplicialComplex(((0, 0, 5), (3, 1)))
    K = CubicalComplex(iter([(0, 1, 2, 3), (2, 3, 4, 5)]))
    assert (K.vertex_count, K.dim, K.cubes) == (6, 2, ((0, 1, 2, 3), (2, 3, 4, 5)))


def test_cube_construction_stops_at_the_first_faulty_cube():
    read = []

    def cubes():
        for cube in [(0, 1, 2, 3), (2, 3, 4, 2), (4, 5, 6, 7)]:
            read.append(cube)
            yield cube

    with pytest.raises(CornerCollision):
        CubicalComplex(cubes())
    assert len(read) == 2


_CUBE_FAULTS = {   # fault -> (exception type, message pattern)
    "bool id": (ComplexError, "^vertex id (True|False) is not an integer$"),
    "corner count": (ComplexError, "corners, not a power of two above 1$"),
    "mixed sizes": (NonPure, "^mixed cube dimensions$"),
    "repeated corner": (CornerCollision, "^repeated vertex in cube "),
    "id gap": (ComplexError, "^vertex ids must be dense "),
    "repeated vertex set": (SemilatticeViolation, "^two cells share all their vertices$"),
}


def _shift_ids_from(cells, v):
    return [[w + (w >= v) for w in cell] for cell in cells]


@st.composite
def _faulty_cubes(draw, fault):
    """A valid k-complex's flat cubes with one fault of the given kind, and k."""
    K = draw(st.sampled_from(_KEY_SOURCES))
    cubes = [list(c) for c in K.cubes]
    c = draw(st.integers(0, len(cubes) - 1))
    x, y = draw(st.permutations(range(len(cubes[c]))))[:2]
    if fault == "bool id":
        cubes[c][x] = draw(st.booleans())
    elif fault == "corner count":
        size = draw(st.sampled_from([s for s in range(len(cubes[c])) if s < 2 or s & (s - 1)]))
        cubes[c] = cubes[c][:size]
    elif fault == "mixed sizes":
        cubes[c] += range(K.vertex_count, K.vertex_count + len(cubes[c]))
    elif fault == "repeated corner":
        cubes[c][x] = cubes[c][y]
    elif fault == "id gap":
        cubes = _shift_ids_from(cubes, draw(st.integers(0, K.vertex_count - 1)))
    else:
        cubes.insert(draw(st.integers(0, len(cubes))), cubes[c][::-1])
    return [tuple(cube) for cube in cubes], K.dim


def _corner_map(cube, k):
    """A flat cube's JSON corner-key map, for a cube cut from or doubled
    from a k-cube: a cut cube keeps the keys of its first corners."""
    return dict(zip(_corner_keys(max(k, (len(cube) - 1).bit_length())), cube))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_CUBE_FAULTS)), st.data())
def test_a_faulty_cube_list_raises_alike_through_the_constructor_and_the_parser(fault, data):
    cubes, k = data.draw(_faulty_cubes(fault))
    err, pattern = _CUBE_FAULTS[fault]
    with pytest.raises(err, match=pattern) as built:
        CubicalComplex(cubes)
    assert type(built.value) is err
    with pytest.raises(ParseError) as parsed:
        parse_complex({"kind": "cubical", "cubes": [_corner_map(c, k) for c in cubes]})
    assert type(parsed.value.__cause__) is err
    # corner keys name all 2^k corners of a k-cube, so a count that is not
    # a power of two has no JSON form: the parser reports the missing corners
    if fault != "corner count":
        assert str(parsed.value) == f"invalid cubical complex: {built.value}"


_FACET_FAULTS = {   # fault -> (exception type, message pattern)
    "degenerate": (DegenerateFacet, "^repeated vertex in facet "),
    "impure": (NonPure, "^mixed facet sizes "),
    "dominated": (DominatedFacet, " contained in "),
    "id gap": (ComplexError, "^vertex ids must be dense "),
}
_FACET_SOURCES = [cycle_complex(5), simplex_boundary(3), octahedron_boundary(), triangle_strip(4)]


@st.composite
def _faulty_facets(draw, fault):
    """A valid complex's facets with one fault of the given kind."""
    K = draw(st.sampled_from(_FACET_SOURCES))
    facets = [list(f) for f in K.facets]
    i = draw(st.integers(0, len(facets) - 1))
    x, y = draw(st.permutations(range(len(facets[i]))))[:2]
    if fault == "degenerate":
        facets[i][x] = facets[i][y]
    elif fault == "impure":
        del facets[i][x]
    elif fault == "dominated":
        facets.insert(draw(st.integers(0, len(facets))), facets[i][::-1])
    else:
        facets = _shift_ids_from(facets, draw(st.integers(0, K.vertex_count - 1)))
    return facets


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_FACET_FAULTS)), st.data())
def test_a_faulty_facet_list_raises_alike_through_the_constructor_and_the_parser(fault, data):
    facets = data.draw(_faulty_facets(fault))
    err, pattern = _FACET_FAULTS[fault]
    with pytest.raises(err, match=pattern) as built:
        SimplicialComplex(facets)
    assert type(built.value) is err
    with pytest.raises(ParseError) as parsed:
        parse_complex({"kind": "simplicial", "facets": facets})
    assert type(parsed.value.__cause__) is err
    assert str(parsed.value) == f"invalid simplicial complex: {built.value}"


_oriented = (st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(lambda e: f"{e[0]},{e[1]}")
             | st.text("01,a", max_size=4))
_valid_connections = [connection_to_dict(rotation_connection(graph))
                      for graph in (cycle_graph(3), cycle_graph(5), complete_graph(4))]


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, (*path, key))


@st.composite
def _mutated(draw, valid):
    """A valid input file with one entry replaced by arbitrary JSON."""
    obj = json.loads(json.dumps(draw(st.sampled_from(valid))))
    *path, last = draw(st.sampled_from(list(_json_paths(obj))[1:]))
    parent = obj
    for key in path:
        parent = parent[key]
    parent[last] = draw(_json)
    return obj


_connections = st.one_of(
    st.fixed_dictionaries({
        "edges": st.lists(st.lists(_vertex, max_size=3), max_size=6) | _json,
        "nabla": st.dictionaries(_oriented, st.dictionaries(_oriented, _oriented | _json_scalars,
                                                            max_size=4) | _json, max_size=6)
        | _json}),
    st.sampled_from(_valid_connections),
    _mutated(_valid_connections),
    _json,
)


@settings(max_examples=300)
@given(_connections)
def test_parse_connection_raises_only_input_errors(obj):
    try:
        parse_connection(obj)
    except ParseError:
        pass


def _run_cli(files, argv) -> tuple[int, str]:
    """Run the CLI in-process on JSON files written from ``files``; each
    ``{}`` in argv is replaced by the next file's path.  Returns the exit
    code and standard error."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, obj in enumerate(files):
            paths.append(f"{tmp}/input{i}.json")
            with open(paths[-1], "w") as f:
                json.dump(obj, f)
        argv = [paths.pop(0) if arg == "{}" else arg for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err, allowed=(0, 2)):
    """An exit code of the contract, no traceback, and a one-line message
    on exit 2."""
    assert code in allowed
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=300)
@given(_connections, st.integers(-1, 4))
def test_connection_command_exits_0_or_2_without_traceback(obj, base):
    assert_clean_exit(*_run_cli([obj], ["connection", "{}", "--base", str(base)]))


_valid_complexes = [json.loads((bundled_dir() / name).read_text()) for name in (
    "c3.json", "square.json", "cube.json", "grid2x2.json", "twisted-strip.json",
    "tetrahedron-boundary.json", "tribar.json")]
_fuzzed_complexes = _complexes | st.sampled_from(_valid_complexes) | _mutated(_valid_complexes)


@settings(max_examples=300)
@given(_fuzzed_complexes, st.sampled_from(["holonomy", "invariants"]), st.integers(-1, 3))
def test_complex_commands_exit_0_or_2_without_traceback(obj, command, base):
    argv = [command, "{}"] + (["--base", str(base)] if command == "holonomy" else [])
    assert_clean_exit(*_run_cli([obj], argv))


_valid_states = [state_to_dict(ordered_state(grid_puzzle(2, 2), hole)) for hole in (0, 3)]
_states = st.one_of(
    st.fixed_dictionaries({"hole": _vertex,
                           "placement": st.dictionaries(st.text("123a", max_size=2), _vertex,
                                                        max_size=5) | _json}),
    st.fixed_dictionaries({"hole": _vertex,   # a piece on every cell
                           "placement": st.just({str(c + 1): c for c in range(4)})}),
    st.sampled_from(_valid_states),
    _mutated(_valid_states),
    _json,
)


@settings(max_examples=300)
@given(_states)
def test_parse_state_raises_only_input_errors(obj):
    try:
        parse_state(obj)
    except ParseError:
        pass


@settings(max_examples=300)
@given(_states, _states, st.sampled_from(["2x2", "1x4", "2x3"]))
def test_puzzle_reach_command_exits_0_or_2_without_traceback(a, b, board):
    assert_clean_exit(*_run_cli([a, b], ["puzzle", "reach", "--board", board,
                                         "--from", "{}", "--to", "{}"]))


@settings(max_examples=20, deadline=None)
@given(st.integers(-3, 3), st.integers(-1, 3), st.integers(-2, 4))
def test_puzzle_holonomy_and_corpus_exit_codes(seed, count, base):
    """Only a swept property can exit 1, and only the corpus sweeps."""
    assert_clean_exit(*_run_cli([], ["puzzle", "holonomy", "--board", "2x3",
                                     "--base", str(base)]))
    assert_clean_exit(*_run_cli([], ["corpus", "--seed", str(seed), "--count", str(count)]),
                      allowed=(0, 1, 2))
