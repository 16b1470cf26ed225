"""Validated combinatorial ground objects.

Ranked posets, pure simplicial complexes, cubical complexes given by
corner-address maps, vertex maps between complexes, and the dual
multigraph of facet adjacencies, plus the breadth-first search that the
package's graph walks share.  Construction validates everything up
front; afterwards all values are immutable and safe to share.

Vertex identifiers are dense integers 0..n-1 throughout.  A k-cube is a
map from corner addresses {0,1}^k to vertices, given and stored as the
flat tuple of its 2^k vertices: entry x is the corner whose coordinate
j is bit j of x.  Only :mod:`serialize` reads and writes corner keys.
Faces arise by freezing coordinates, which pins the whole face lattice
without any geometric embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence


class ComplexError(ValueError):
    """Invalid complex construction."""


class NonPure(ComplexError):
    """Mixed facet dimensions."""


class DegenerateFacet(ComplexError):
    """A facet repeats a vertex."""


class DominatedFacet(ComplexError):
    """A facet is contained in another."""


class CornerCollision(ComplexError):
    """A cube maps two corners to one vertex."""


class SemilatticeViolation(ComplexError):
    """Two closed cells meet in something other than a single common face."""


def bfs(start, neighbours) -> dict:
    """Breadth-first search from ``start``.

    Returns every reached node, in visiting order, mapped to the node it
    was first reached from; ``start`` maps to None.  ``neighbours(u)``
    lists the nodes next to u, and its order decides the parents.
    """
    parent = {start: None}
    order = [start]
    for u in order:
        for v in neighbours(u):
            if v not in parent:
                parent[v] = u
                order.append(v)
    return parent


def tree_path(parent: dict, v) -> list:
    """The path from the root of a ``bfs`` tree down to ``v``."""
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


@dataclass(frozen=True)
class RankedPoset:
    """A finite poset given by its covering relation and a rank function.

    Ranks strictly increase by exactly one along covers, which also
    forces acyclicity.
    """

    elements: tuple
    rank: dict
    covers: tuple[tuple, ...]  # (lower, upper) pairs

    def __post_init__(self):
        elems = set(self.elements)
        for lo, hi in self.covers:
            if lo not in elems or hi not in elems:
                raise ComplexError("cover endpoint not an element")
            if self.rank[hi] != self.rank[lo] + 1:
                raise ComplexError("cover must raise rank by exactly 1")

    @property
    def depth(self) -> int:
        return max(self.rank.values()) if self.rank else 0

    @cached_property
    def lower_covers(self) -> dict:
        out: dict = {e: [] for e in self.elements}
        for lo, hi in self.covers:
            out[hi].append(lo)
        return out

    def down_set(self, x) -> set:
        """All elements <= x."""
        return set(bfs(x, self.lower_covers.__getitem__))

    def maximal_elements(self) -> tuple:
        uppers = {lo for lo, _ in self.covers}
        return tuple(e for e in self.elements if e not in uppers)


def _check_dense_vertices(vertices: set[int]) -> int:
    if not vertices:
        raise ComplexError("complex has no vertices")
    n = max(vertices) + 1
    if vertices != set(range(n)):
        missing = sorted(set(range(n)) - vertices)
        raise ComplexError(f"vertex ids must be dense 0..{n - 1}; missing {missing}")
    return n


@dataclass(frozen=True)
class SimplicialComplex:
    """A pure simplicial complex listed by its facets."""

    vertex_count: int
    facets: tuple[tuple[int, ...], ...]  # sorted tuples, sorted (see `build_simplicial`)

    @property
    def dim(self) -> int:
        return len(self.facets[0]) - 1

    @cached_property
    def faces(self) -> dict[frozenset, int]:
        """Every face (as a frozenset) mapped to its dimension."""
        out: dict[frozenset, int] = {}
        for facet in self.facets:
            for size in range(1, len(facet) + 1):
                for sub in combinations(facet, size):
                    out[frozenset(sub)] = size - 1
        return out

    @cached_property
    def skeleton_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of the vertex-edge graph (the 1-skeleton)."""
        # facets are sorted, so each vertex pair comes out sorted
        return tuple(sorted({e for f in self.facets for e in combinations(f, 2)}))

    @cached_property
    def dual(self) -> DualMultigraph:
        """The facet-adjacency multigraph, built once per complex."""
        return _dual_multigraph(self)


def _vertex_id(v) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ComplexError(f"vertex id {v!r} is not an integer")
    return v


def build_simplicial(facets: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Validate and build a pure simplicial complex.

    Vertex ids must be ints (not bools).  Impure, degenerate, or
    dominated input aborts construction; silent repair would hide
    modeling errors.
    """
    raw = [tuple(_vertex_id(v) for v in f) for f in facets]
    if not raw:
        raise ComplexError("facet list is empty")
    for f in raw:
        if len(set(f)) != len(f):
            raise DegenerateFacet(f"repeated vertex in facet {f}")
    sizes = {len(f) for f in raw}
    if len(sizes) != 1:
        raise NonPure(f"mixed facet sizes {sorted(sizes)}")
    # All facets have one size, so a facet inside another is a repeat of it.
    sets = [frozenset(f) for f in raw]
    first: dict[frozenset, int] = {}
    repeats = [(i, j) for j, s in enumerate(sets) if (i := first.setdefault(s, j)) != j]
    if repeats:
        i, j = min(repeats)
        raise DominatedFacet(f"facet {raw[i]} contained in {raw[j]}")
    n = _check_dense_vertices(set().union(*sets))
    canon = tuple(sorted(tuple(sorted(f)) for f in raw))
    return SimplicialComplex(vertex_count=n, facets=canon)


@lru_cache(maxsize=None)
def _face_template(k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every face of the k-cube as (free_coords, corner indices).

    free_coords is a sorted tuple of coordinates left to vary; the corner
    indices are the flat indices of the face's corners.  Built and
    count-checked once per k and shared by every k-cube.
    """
    coords = range(k)
    out = []
    for r in range(k + 1):
        for free in combinations(coords, r):
            frozen = [c for c in coords if c not in free]
            span = [0]
            for c in free:
                span += [s | 1 << c for s in span]
            for mask in range(1 << len(frozen)):
                base = sum(((mask >> i) & 1) << c for i, c in enumerate(frozen))
                out.append((free, tuple(base | s for s in span)))
    _check_cube_poset_counts(out, k)
    return tuple(out)


@lru_cache(maxsize=None)
def _faces_of_dim(k: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Corner indices of every r-dimensional face of the k-cube."""
    return tuple(idxs for free, idxs in _face_template(k) if len(free) == r)


def _cube_symmetry(addr: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The signed permutation (perm, signs) whose action on flat corner
    indices is ``addr``, or ValueError when there is none.  Unit corner
    1 << i must land one bit away from ``addr[0]``, at bit perm[i], with
    sign -1 when ``addr[0]`` has that bit; the map is then affine exactly
    when every corner x has addr[x] == addr[x & (x-1)] ^ addr[x & -x] ^ addr[0].
    """
    c = addr[0]
    perm, signs, seen = [], [], 0
    for i in range(len(addr).bit_length() - 1):
        moved = addr[1 << i] ^ c
        if moved.bit_count() != 1 or moved & seen:
            raise ValueError("corner bijection is not induced by a cube symmetry")
        seen |= moved
        perm.append(moved.bit_length() - 1)
        signs.append(-1 if c & moved else 1)
    for x in range(3, len(addr)):
        if addr[x] != addr[x & (x - 1)] ^ addr[x & -x] ^ c:
            raise ValueError("corner bijection is not induced by a cube symmetry")
    return tuple(perm), tuple(signs)


@dataclass(frozen=True)
class CubicalComplex:
    """A pure cubical complex: each top cell is a corner-address map.

    Construction runs `_check_semilattice`, so every complex's cells
    meet in common faces, matched by cube symmetries.
    """

    vertex_count: int
    dim: int
    cubes: tuple[tuple[int, ...], ...]  # cubes[c][flat corner index] = vertex

    def __post_init__(self):
        _check_semilattice(self)

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        return self.cubes

    @cached_property
    def cube_face_lists(self) -> tuple[tuple, ...]:
        """Per cube, (free_coords, vertex frozenset) for every face, read
        off the shared face template of its dimension.  Built on first
        use; validation, the dual graph and the skeleton never need it."""
        template = _face_template(self.dim)
        return tuple(
            tuple((free, frozenset([c[i] for i in idxs])) for free, idxs in template)
            for c in self.cubes)

    @cached_property
    def faces(self) -> dict[frozenset, int]:
        out: dict[frozenset, int] = {}
        for flist in self.cube_face_lists:
            for free, verts in flist:
                out[verts] = len(free)
        return out

    @cached_property
    def skeleton_edges(self) -> tuple[tuple[int, int], ...]:
        edges = _faces_of_dim(self.dim, 1)
        return tuple(sorted({tuple(sorted((c[a], c[b]))) for c in self.cubes for a, b in edges}))

    @cached_property
    def dual(self) -> DualMultigraph:
        """The facet-adjacency multigraph, built once per complex."""
        return _dual_multigraph(self)


def build_cubical(cubes: Iterable[Sequence[int]]) -> CubicalComplex:
    """Validate and build a cubical complex from flat corner tuples.

    Each cube lists its 2^k vertex ids in flat-corner order: entry x is
    the corner whose coordinate j is bit j of x.  Vertex ids must be
    ints (not bools), and every cube needs the same 2^k corners, k >= 1.
    Every cell must meet every face of the complex in one of its own
    faces, checked as: any two cells that share a vertex meet in one
    common face with the same face structure on both sides (see
    `_check_semilattice`).  This is a deliberately stronger, checkable
    stand-in for the semilattice condition, standard for regular CW
    complexes.  Validation costs O(2^k) per pair of cubes that share a
    vertex, so it is linear in the number of cubes for bounded vertex
    degree and cube dimension; the 3^k faces of each cube are not listed.
    """
    normalized: list[tuple[int, ...]] = []
    for cube in cubes:
        corners = tuple(map(_vertex_id, cube))
        size = len(corners)
        if size < 2 or size & (size - 1):
            raise ComplexError(f"cube {corners} has {size} corners, not a power of two above 1")
        if normalized and size != len(normalized[0]):
            raise NonPure("mixed cube dimensions")
        if len(set(corners)) != size:
            raise CornerCollision(f"repeated vertex in cube {corners}")
        normalized.append(corners)
    if not normalized:
        raise ComplexError("cube list is empty")

    n = _check_dense_vertices({v for c in normalized for v in c})

    vertex_sets = [frozenset(c) for c in normalized]
    if len(set(vertex_sets)) != len(vertex_sets):
        raise SemilatticeViolation("two cells share all their vertices")

    k = len(normalized[0]).bit_length() - 1
    _face_template(k)  # count-checks the k-cube's face lattice, once per k
    return CubicalComplex(vertex_count=n, dim=k, cubes=tuple(normalized))


def _check_semilattice(K: CubicalComplex) -> None:
    """Any two cells that share a vertex must meet in one common face,
    with the same face structure on both sides.

    A vertex -> cubes index visits each pair of cubes C, D that share a
    vertex once.  Their shared vertices, as corner index pairs (x in C,
    y in D), must fill a subcube on each side: as many pairs as
    2^(number of bits that vary among the x), and likewise among the y.
    The map x -> y between the two subcubes must be a cube isomorphism
    (`_cube_symmetry` on the corners' indices within the face).  That costs O(2^k)
    per pair of cubes that share a vertex.

    This is the rule that each cell meets each face of the complex in
    one of its own faces.  Taking the face to be a whole cube D, C & D
    is a face of C and, symmetrically, of D.  The faces of D inside
    C & D must then be faces of C, so the bijection sends edges to edges
    and is an automorphism of the hypercube graph, that is a signed
    permutation.  Conversely, for a face b of D, b & C = b & (C & D) is
    empty or, as the meet of two faces of D, a face of D inside the
    shared face, which the isomorphism makes a face of C.
    """
    at: dict[int, list[tuple[int, int]]] = {}  # vertex -> (earlier cube, corner index)
    for c, corners in enumerate(K.cubes):
        meets: dict[int, list[tuple[int, int]]] = {}
        for x, v in enumerate(corners):
            for d, y in at.get(v, ()):
                meets.setdefault(d, []).append((x, y))
            at.setdefault(v, []).append((c, x))
        for d, pairs in meets.items():
            if not _meet_is_common_face(pairs):
                raise SemilatticeViolation(
                    f"cells {sorted(K.cubes[d])} and {sorted(corners)} meet in "
                    f"{sorted(corners[x] for x, _ in pairs)}, which is not a common face")


def _meet_is_common_face(pairs: list[tuple[int, int]]) -> bool:
    """Do the corner index pairs (x, y) of two cubes' shared vertices
    fill a subcube of each cube, matched by a cube isomorphism?"""
    ox = oy = 0
    ax = ay = -1
    for x, y in pairs:
        ox, ax, oy, ay = ox | x, ax & x, oy | y, ay & y
    # the bits that vary among a face's corners are its free coordinates
    fx, fy = ox ^ ax, oy ^ ay
    n = len(pairs)
    if n != 1 << fx.bit_count() or n != 1 << fy.bit_count():
        return False
    if n <= 2:  # any bijection of a vertex or an edge is a cube isomorphism
        return True
    # dropping a face's fixed bits keeps its corners in order, so a
    # corner's index within the face is its rank among the face's corners
    rank = {y: i for i, y in enumerate(sorted(y for _, y in pairs))}
    addr = [rank[y] for _, y in sorted(pairs)]
    try:
        _cube_symmetry(addr)
    except ValueError:
        return False
    return True


def _check_cube_poset_counts(template, k: int) -> None:
    """Below a k-cell the derived poset must count like a cube's face
    lattice: C(k, j) * 2^(k-j) faces of dimension j.

    Checked once per k on the face template's corner-index sets.  Once
    `CornerCollision` has passed, a cube's corners are distinct, so
    distinct index sets map to distinct vertex sets and every k-cube
    counts exactly as the template does.
    """
    by_dim: dict[int, set[frozenset]] = {}
    for free, idxs in template:
        by_dim.setdefault(len(free), set()).add(frozenset(idxs))
    for j in range(k + 1):
        expect = comb(k, j) * (1 << (k - j))
        if len(by_dim.get(j, ())) != expect:
            raise SemilatticeViolation(
                f"cell has {len(by_dim.get(j, ()))} faces of dim {j}, expected {expect}")


def face_poset(K: SimplicialComplex | CubicalComplex) -> RankedPoset:
    """The face poset: elements are faces, rank is dimension, covers are
    codimension-1 containments."""
    faces = K.faces
    elements = tuple(sorted(faces, key=lambda fs: (faces[fs], sorted(fs))))
    rank = {fs: faces[fs] for fs in elements}
    covers = set()
    if isinstance(K, SimplicialComplex):
        for fs in elements:
            if len(fs) > 1:
                for v in fs:
                    covers.add((fs - {v}, fs))
    else:
        # a face's facets are the halves of its corners with bit c at 0 or 1
        template = _face_template(K.dim)
        for corners, flist in zip(K.cubes, K.cube_face_lists):
            for (free, idxs), (_, verts) in zip(template, flist):
                for bit in (1 << c for c in free):
                    for half in (0, bit):
                        covers.add((frozenset([corners[i] for i in idxs if i & bit == half]),
                                    verts))
    return RankedPoset(elements=elements, rank=rank, covers=tuple(sorted(
        covers, key=lambda p: (rank[p[1]], sorted(p[1]), sorted(p[0])))))


@dataclass(frozen=True)
class DualMultigraph:
    """Facet-adjacency multigraph: one edge per shared ridge per pair.

    Parallel edges are kept apart by ridge id; collapsing them would
    lose holonomy (which ridge is crossed matters).
    """

    node_count: int
    edges: tuple[tuple[int, int, int], ...]  # (facet_i, facet_j, ridge_id), i < j
    ridges: tuple[tuple[int, ...], ...]      # ridge_id -> sorted vertex tuple
    # edge e's ridge is ridge positions[e][0] of facet_i and positions[e][1]
    # of facet_j (see `_facet_ridges`); empty when no complex built the graph
    positions: tuple[tuple[int, int], ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """node -> ((ridge_id, neighbor), ...) sorted by lowest ridge id."""
        out: dict[int, list[tuple[int, int]]] = {i: [] for i in range(self.node_count)}
        for i, j, r in self.edges:
            out[i].append((r, j))
            out[j].append((r, i))
        return {i: tuple(sorted(v)) for i, v in out.items()}

    def components(self) -> list[list[int]]:
        """Each component's nodes in visiting order, by least node."""
        comps: list[list[int]] = []
        seen: set[int] = set()
        for start in range(self.node_count):
            if start not in seen:
                comps.append(list(bfs(start, lambda u: (v for _, v in self.adjacency[u]))))
                seen.update(comps[-1])
        return comps

    def is_connected(self) -> bool:
        return self.node_count <= 1 or len(self.components()) == 1


def _facet_ridges(K: SimplicialComplex | CubicalComplex) -> list[list[tuple[int, ...]]]:
    """Per facet, its codimension-1 faces as sorted vertex tuples.  Ridge
    p of a simplex drops its slot p; ridge p of a cube is the p-th ridge
    of ``_faces_of_dim(k, k - 1)``."""
    if isinstance(K, SimplicialComplex):
        return [[f[:p] + f[p + 1:] for p in range(len(f))] for f in K.facets]
    ridges = _faces_of_dim(K.dim, K.dim - 1)
    return [[tuple(sorted([c[i] for i in idxs])) for idxs in ridges] for c in K.cubes]


def facet_adjacency(K: SimplicialComplex | CubicalComplex) -> DualMultigraph:
    """One dual edge per unordered facet pair per shared ridge; cached on K."""
    return K.dual


def _dual_multigraph(K: SimplicialComplex | CubicalComplex) -> DualMultigraph:
    per_facet = _facet_ridges(K)
    all_ridges = sorted({r for lst in per_facet for r in lst})
    ridge_id = {r: i for i, r in enumerate(all_ridges)}
    holders: dict[int, list[tuple[int, int]]] = {}  # ridge id -> (facet, position)
    for f, lst in enumerate(per_facet):
        for p, r in enumerate(lst):
            holders.setdefault(ridge_id[r], []).append((f, p))
    # holders list facets in increasing order, so a < b
    edges = sorted((a, b, rid, pa, pb) for rid, fs in holders.items()
                   for (a, pa), (b, pb) in combinations(fs, 2))
    return DualMultigraph(
        node_count=len(K.facets),
        edges=tuple(e[:3] for e in edges),
        ridges=tuple(all_ridges),
        positions=tuple(e[3:] for e in edges),
    )


@dataclass(frozen=True)
class VertexMap:
    """A total map of vertices between two complexes."""

    source: SimplicialComplex | CubicalComplex
    target: SimplicialComplex | CubicalComplex
    assignment: dict[int, int]

    def __post_init__(self):
        missing = set(range(self.source.vertex_count)) - set(self.assignment)
        if missing:
            raise ComplexError(f"assignment not total; missing {sorted(missing)}")

    def __call__(self, v: int) -> int:
        return self.assignment[v]


@dataclass(frozen=True)
class NondegeneracyResult:
    ok: bool
    witness: tuple[int, ...] | None = None  # offending face, if any

    def __bool__(self) -> bool:
        return self.ok


def check_nondegenerate(f: VertexMap) -> NondegeneracyResult:
    """Does f restrict to an isomorphism on every cell's face lattice?

    Equivalently: every face maps injectively onto a face of equal
    dimension of the target.  On failure the witness is the first face
    that degenerates or misses.
    """
    src, dst = f.source, f.target
    if isinstance(src, SimplicialComplex) != isinstance(dst, SimplicialComplex):
        raise ComplexError("source and target must be complexes of the same kind")
    if isinstance(src, SimplicialComplex):
        for facet in src.facets:
            image = [f(v) for v in facet]
            if len(set(image)) != len(image):
                return NondegeneracyResult(False, facet)
            if frozenset(image) not in dst.faces:
                return NondegeneracyResult(False, facet)
        return NondegeneracyResult(True)
    for c, flist in enumerate(src.cube_face_lists):
        corners = src.cubes[c]
        image = [f(v) for v in corners]
        if len(set(image)) != len(image):
            return NondegeneracyResult(False, tuple(sorted(corners)))
        for _, verts in flist:
            img = frozenset(f(v) for v in verts)
            if img not in dst.faces or dst.faces[img] != src.faces[verts]:
                return NondegeneracyResult(False, tuple(sorted(verts)))
    return NondegeneracyResult(True)


def compose_maps(f: VertexMap, g: VertexMap) -> VertexMap:
    """The composite map applying f first, then g."""
    if f.target is not g.source and f.target != g.source:
        raise ComplexError("maps are not composable")
    return VertexMap(source=f.source, target=g.target,
                     assignment={v: g(f(v)) for v in f.assignment})
