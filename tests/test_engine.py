"""One holonomy engine: puzzles and connections as groupoids, checked
against the brute-force closed-path oracle, plus the shared dual graph,
the odd-cycle witness check and the stdlib-only rule."""

import ast
import sys
from pathlib import Path

import pytest

from groupoids.complexes import facet_adjacency
from groupoids.corpus import grid_patch, simplex_boundary
from groupoids.games import Puzzle, grid_puzzle, puzzle_groupoid, puzzle_holonomy
from groupoids.graphconn import (
    connection_groupoid,
    connection_holonomy,
    cycle_connection,
    rotation_connection,
)
from groupoids.groupoid import Groupoid
from groupoids.holonomy import closed_path_oracle
from groupoids.homcx import complete_graph
from groupoids.invariants import InconsistentExtension, _odd_cycle
from groupoids.permgroup import closure_small

SRC = Path(__file__).resolve().parents[1] / "src" / "groupoids"


def cycle_board(n: int) -> Puzzle:
    return Puzzle(cell_count=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


BOARDS = [grid_puzzle(2, 2)] + [cycle_board(n) for n in (3, 4, 5, 6)]


@pytest.mark.parametrize("board", BOARDS, ids=lambda b: f"{b.cell_count}cells")
def test_puzzle_holonomy_matches_oracle(board):
    g = puzzle_groupoid(board)
    for hole in range(board.cell_count):
        group = puzzle_holonomy(board, hole)
        want = closed_path_oracle(g, hole, max_len=board.cell_count)
        assert closure_small(group.generators, degree=group.degree) == want


# Each connection with a walk length that covers its fundamental loops:
# the whole cycle, or a triangle through the base on K4.
CONNECTIONS = [(cycle_connection(n), n) for n in (3, 4, 5, 6)] + \
              [(rotation_connection(complete_graph(4)), 3)]


@pytest.mark.parametrize("c,max_len", CONNECTIONS,
                         ids=[f"cycle{n}" for n in (3, 4, 5, 6)] + ["k4-rotation"])
def test_connection_holonomy_matches_oracle(c, max_len):
    g = connection_groupoid(c)
    for base in range(c.graph.vertex_count):
        group = connection_holonomy(c, base)
        want = closed_path_oracle(g, base, max_len=max_len)
        assert closure_small(group.generators, degree=group.degree) == want


def test_puzzle_groupoid_flip_moves_one_piece():
    g = puzzle_groupoid(grid_puzzle(2, 2))
    assert g.object_vertices[0] == (1, 2, 3)
    assert g.vertex_map(0, 1, 0) == {1: 0, 2: 2, 3: 3}
    assert g.vertex_map(1, 0, 0) == {0: 1, 2: 2, 3: 3}


def test_dual_graph_is_built_once_per_complex():
    for K in (simplex_boundary(3), grid_patch(3, 3)[0]):
        assert facet_adjacency(K) is facet_adjacency(K)
        assert Groupoid.from_complex(K).dual is facet_adjacency(K)


def test_odd_cycle_rejects_an_even_witness():
    parent = {0: None, 1: 0, 2: 0, 3: 1}
    with pytest.raises(InconsistentExtension):
        _odd_cycle(parent, 3, 2)


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "__future__" or top in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"


def _nodes_by_owner(path: Path):
    """Every AST node of a module with the dotted name of the innermost
    def or class around it ("" at module level)."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            yield name, child
            yield from walk(child, name)
    yield from walk(ast.parse(path.read_text(), filename=str(path)), "")


def test_graph_walks_go_through_the_shared_bfs():
    """Hand-written queue and stack searches stay where they must: the
    spanning tree composes transports as it walks, the cut-vertex test is
    a lowpoint DFS, and the oracles stay independent of the code they
    check.  Every other walk calls complexes.bfs."""
    deque_users, worklists = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _nodes_by_owner(path):
            where = f"{path.stem}.{owner}"
            if isinstance(node, ast.Name) and node.id == "deque" \
                    or isinstance(node, ast.Attribute) and node.attr == "deque":
                deque_users.add(where)
            if isinstance(node, ast.alias) and node.name == "deque":
                assert node.asname is None, f"{where} renames deque"
            # `while todo:` popping from todo is a worklist search
            if isinstance(node, ast.While) and isinstance(node.test, ast.Name) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("pop", "popleft")
                    and isinstance(n.func.value, ast.Name) and n.func.value.id == node.test.id
                    for n in ast.walk(node)):
                worklists.add(where)
    assert deque_users == {"holonomy.spanning_tree", "games.reachable_bfs"}
    assert worklists == {"holonomy.spanning_tree", "holonomy.closed_path_oracle",
                         "games._has_cut_vertex", "games.reachable_bfs"}


# Unbounded caches kept on purpose: none can grow with the inputs.
UNBOUNDED_CACHES = {
    "complexes._face_template": "keyed by the cube dimension k",
    "complexes._faces_of_dim": "keyed by the cube dimension k and a face dimension",
    "cli.build_parser": "takes no arguments: one parser per process",
}


def _is_unbounded_cache(node: ast.AST) -> bool:
    """A reference to ``functools.cache``, or an ``lru_cache(maxsize=None)`` call."""
    if isinstance(node, ast.Name) and node.id == "cache" \
            or isinstance(node, ast.Attribute) and node.attr == "cache":
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "lru_cache":
        return False
    maxsize = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in maxsize)


def test_no_unbounded_cache_outside_the_allowlist():
    """A cache with no size bound, keyed by boards, complexes or groups,
    holds every input a process ever sees; keep such results on the
    object they belong to.  Each unbounded cache left is on the allowlist
    with the reason its keys stay few."""
    found = {f"{path.stem}.{owner}" for path in sorted(SRC.glob("*.py"))
             for owner, node in _nodes_by_owner(path) if _is_unbounded_cache(node)}
    assert found == set(UNBOUNDED_CACHES)


# Paper API kept on purpose, though only the tests call it.
PAPER_API = {
    "face_poset": "the face poset, the paper's definition of a complex's cells",
    "compose_maps": "composition of vertex maps, the morphisms between complexes",
    "is_strongly_connected": "the connectivity hypothesis of the holonomy theorems",
    "holonomy_group": "the holonomy of a complex in one call",
    "induced_embedding_check": "a non-degenerate map embeds the holonomy groups",
    "is_face": "the face relation of the hom complex",
    "restriction_map": "restriction of a hom-complex cell to one edge",
    "lattice_parity_coloring": "the 2-colouring of a cubical lattice embedding",
    "transport_coloring": "the rainbow colouring by transport under trivial holonomy",
    "transport": "transport along a facet walk; the holonomy engine composes flips inline",
}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a tree names: variables, attributes and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _unused_public_names(allowed) -> list[str]:
    """Public top-level functions and classes that no other package
    module, bench or script names, nor code of their own module that is
    itself in use (module-level statements, or a used def, transitively).
    ``__init__.py`` and the tests do not count."""
    root = SRC.parents[1]
    outside = set().union(*(_names(ast.parse(path.read_text()))
                            for folder in ("bench", "scripts")
                            for path in (root / folder).glob("*.py")))
    modules = {path.stem: ast.parse(path.read_text())
               for path in SRC.glob("*.py") if path.name != "__init__.py"}
    unused = []
    for stem, tree in sorted(modules.items()):
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        used = outside.union(allowed, *(_names(t) for s, t in modules.items() if s != stem),
                             *(_names(node) for node in tree.body if node not in defs.values()))
        grown = None
        while grown != used:
            grown, used = used, used.union(*(_names(defs[n]) for n in defs.keys() & used))
        unused += [f"{stem}.{n}" for n in defs if not n.startswith("_") and n not in used]
    return unused


def test_public_api_is_used_outside_the_tests():
    """A public function or class that only the tests call is dead code;
    delete it, or add it to PAPER_API with the reason it stays."""
    assert _unused_public_names(set(PAPER_API)) == []
    # each allowlisted name exists and still needs its entry
    assert set(PAPER_API) <= {n.rpartition(".")[2] for n in _unused_public_names(set())}
