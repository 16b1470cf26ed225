"""Flips read off the dual graph's ridge positions.

`_dual_multigraph` records, for each dual edge, the position of the
shared ridge in each of its two facets, and `Groupoid.from_complex`
reads every flip from those positions.  The reference below is the
earlier construction, kept as it was: ridges as frozensets, and each
flip rebuilt per dual edge from the ridge's vertices (the one vertex off
a simplex's ridge by a set difference; a cube's ridge corners by index
scans and their one shared coordinate).  It must give equal edges,
ridges and flips on every complex below.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_, or_
from pathlib import Path

import pytest

from groupoids.complexes import (
    CubicalComplex,
    DualMultigraph,
    SemilatticeViolation,
    SimplicialComplex,
    _cube_symmetry,
    _faces_of_dim,
    build_cubical,
)
from groupoids.corpus import bundled_dir, cube_skeleton, random_corpus
from groupoids.groupoid import Groupoid, _exchange
from groupoids.permgroup import _inv, _mul
from groupoids.serialize import load_complex

TESTS = Path(__file__).parent


# ------------------------------------------------- reference construction

class NotARidge(ValueError):
    """The given cells do not share the given ridge."""


def reference_facet_ridges(K):
    if isinstance(K, SimplicialComplex):
        return [[frozenset(f) - {v} for v in f] for f in K.facets]
    ridges = _faces_of_dim(K.dim, K.dim - 1)
    return [[frozenset([c[i] for i in idxs]) for idxs in ridges] for c in K.cubes]


def reference_dual(K):
    per_facet = reference_facet_ridges(K)
    all_ridges = sorted({r for lst in per_facet for r in lst}, key=lambda fs: sorted(fs))
    ridge_id = {r: i for i, r in enumerate(all_ridges)}
    holders: dict[int, list[int]] = {}
    for f, lst in enumerate(per_facet):
        for r in lst:
            holders.setdefault(ridge_id[r], []).append(f)
    edges = []
    for rid, fs in holders.items():
        for a, b in combinations(sorted(fs), 2):
            edges.append((a, b, rid))
    return DualMultigraph(node_count=len(K.facets), edges=tuple(sorted(edges)),
                          ridges=tuple(tuple(sorted(r)) for r in all_ridges))


def reference_extra_slot(facet, ridge):
    extra = set(facet).difference(ridge)
    if len(extra) != 1 or len(facet) != len(ridge) + 1:
        raise NotARidge(f"{list(ridge)} is not a ridge of facet {list(facet)}")
    return facet.index(extra.pop())


def reference_ridge_corners(cube, ridge):
    corners = [cube.index(v) for v in ridge]
    axis = ~(reduce(or_, corners, 0) ^ reduce(and_, corners, -1)) & (len(cube) - 1)
    if 2 * len(corners) != len(cube) or axis.bit_count() != 1:
        raise NotARidge("ridge is not a facet of the cube")
    return corners, axis


def reference_cube_flip(K, i, j, ridge):
    xs, axis_i = reference_ridge_corners(K.cubes[i], ridge)
    ys, axis_j = reference_ridge_corners(K.cubes[j], ridge)
    addr = [0] * len(K.cubes[i])
    for x, y in zip(xs, ys):
        addr[x] = y
        addr[x ^ axis_i] = y ^ axis_j
    _cube_symmetry(addr)
    return addr


def reference_flips(K, dual):
    flips = {}
    if isinstance(K, SimplicialComplex):
        objects = K.facets
        for i, j, rid in dual.edges:
            pa, pb = (reference_extra_slot(objects[x], dual.ridges[rid]) for x in (i, j))
            flips[(i, j, rid)] = _exchange(len(objects[i]), pa, pb)
            flips[(j, i, rid)] = _exchange(len(objects[i]), pb, pa)
        return flips
    order = [tuple(sorted(range(len(c)), key=c.__getitem__)) for c in K.cubes]
    slots = [_inv(o) for o in order]
    for i, j, rid in dual.edges:
        flip = _mul(_mul(order[i], reference_cube_flip(K, i, j, dual.ridges[rid])), slots[j])
        flips[(i, j, rid)] = flip
        flips[(j, i, rid)] = _inv(flip)
    return flips


# ------------------------------------------------------------------ cases

def _complexes():
    out = []
    for path in sorted(bundled_dir().glob("*.json")):
        if not path.name.endswith(("-state.json", "-connection.json")):
            K = load_complex(path)
            if not isinstance(K, Groupoid):
                out.append((path.stem, K))
    out += [(path.stem, load_complex(path))
            for path in sorted((TESTS / "complexes").glob("*-scrambled.json"))]
    out += [(f"skeleton-{d}-{k}", cube_skeleton(d, k)[0])
            for d in range(2, 7) for k in range(1, d)]
    return out


CASES = _complexes()


def test_cases_cover_every_source():
    names = [name for name, _ in CASES]
    assert sum(name.endswith("-scrambled") for name in names) == 3
    assert {type(K) for _, K in CASES} == {SimplicialComplex, CubicalComplex}
    assert "skeleton-6-5" in names


def _assert_matches_reference(K):
    want = reference_dual(K)
    assert K.dual == want  # node count, edges and ridges
    assert Groupoid.from_complex(K).flips == reference_flips(K, want)


@pytest.mark.parametrize("name,K", CASES, ids=[name for name, _ in CASES])
def test_dual_and_flips_match_the_per_edge_rebuild(name, K):
    _assert_matches_reference(K)


def test_random_corpus_matches_the_per_edge_rebuild():
    items = random_corpus(24, 2000)
    assert len(items) == 2000
    for item in items:
        _assert_matches_reference(item.complex)


def _ridge_at(K, facet: int, p: int) -> tuple[int, ...]:
    """Ridge p of a facet, as `_facet_ridges` numbers them."""
    if isinstance(K, SimplicialComplex):
        f = K.facets[facet]
        return f[:p] + f[p + 1:]
    return tuple(sorted(K.cubes[facet][x] for x in _faces_of_dim(K.dim, K.dim - 1)[p]))


@pytest.mark.parametrize("name,K", CASES, ids=[name for name, _ in CASES])
def test_positions_name_the_shared_ridge_in_both_facets(name, K):
    dual = K.dual
    assert len(dual.positions) == len(dual.edges)
    for (i, j, rid), (pa, pb) in zip(dual.edges, dual.positions):
        assert _ridge_at(K, i, pa) == dual.ridges[rid]
        assert _ridge_at(K, j, pb) == dual.ridges[rid]


def test_positions_stay_out_of_equality_and_repr():
    K, _ = cube_skeleton(3, 2)
    bare = DualMultigraph(K.dual.node_count, K.dual.edges, K.dual.ridges)
    assert bare.positions == ()
    assert bare == K.dual and hash(bare) == hash(K.dual)
    assert repr(bare) == repr(K.dual)
    assert "positions" not in repr(K.dual)


def test_a_twisted_shared_square_fails_the_cube_symmetry_check():
    """Two cubes can share a square whose corners pair by vertex into no
    cube symmetry; no complex holds them, built by `build_cubical` or
    not, so no flip has to refuse them."""
    first = tuple(range(8))
    second = [4 + i for i in range(8)]
    second[2], second[3] = 7, 6
    with pytest.raises(SemilatticeViolation, match="not a common face"):
        CubicalComplex(vertex_count=12, dim=3, cubes=(first, tuple(second)))
    with pytest.raises(SemilatticeViolation, match="not a common face"):
        build_cubical([first, second])
