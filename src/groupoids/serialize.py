"""JSON wire formats.

Complexes:  {"kind": "simplicial", "facets": [[0,1,2], ...]}
            {"kind": "cubical", "dim": k, "cubes": [{"00": 0, ...}, ...]}
            {"kind": "builtin", "name": "tribar"}
Corner keys are binary strings of length k; character j is coordinate j.
Only this module reads or writes them: a parsed cube is the flat tuple of
its corners, entry x being the corner whose coordinate j is bit j of x.

Puzzle states:  {"hole": 15, "placement": {"1": 0, ...}}
Connections:    {"edges": [[x, y], ...], "nabla": {"x,y": {"x,z": "y,w"}}}
Permutations serialize as image arrays, signed permutations as
{"perm": [...], "signs": [1, -1, ...]}; group orders as decimal strings
since they outgrow fixed-width integers quickly.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from decimal import Decimal
from pathlib import Path

from .complexes import (
    ComplexError,
    CubicalComplex,
    NonPure,
    SimplicialComplex,
    _vertex_id,
    build_cubical,
    build_simplicial,
)
from .games import LabelledState
from .graphconn import GraphConnection
from .groupoid import Groupoid, tribar_groupoid
from .holonomy import HolonomyResult
from .homcx import Graph
from .permgroup import Perm, SignedPerm


class ParseError(ValueError):
    """Malformed or invalid input file."""


def _object(pairs: list) -> dict:
    """A JSON object, refused when it names one key twice: the last entry
    would win silently."""
    out = dict(pairs)
    if len(out) != len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"duplicate key {key!r}")
    return out


def load_json(path: str | Path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e


def parse_complex(obj) -> SimplicialComplex | CubicalComplex | Groupoid:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("complex object needs a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "simplicial":
            return build_simplicial(obj["facets"])
        if kind == "cubical":
            cubes = obj["cubes"]
            k = obj.get("dim")
            if k is not None and type(k) is not int:   # bool is an int subclass
                raise ParseError(f"cubical dim {k!r} is not an integer")
            return build_cubical(_flat_cubes(cubes, k))
        if kind == "builtin":
            if obj.get("name") == "tribar":
                return tribar_groupoid()
            raise ParseError(f"unknown builtin {obj.get('name')!r}")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid {kind} complex: {e}") from e
    raise ParseError(f"unknown complex kind {kind!r}")


def _corner_keys(k: int) -> list[str]:
    """The corner keys of a k-cube in flat corner order: character j of
    corner x's key is bit j of x."""
    return ["".join(str(x >> j & 1) for j in range(k)) for x in range(1 << k)]


def _flat_cubes(cubes, dim: int | None):
    """Each cube's corner-key map as a flat corner tuple, checked cube by
    cube as `build_cubical` consumes them.  Every cube's keys must have
    the declared ``dim``; without one, the first key sets it."""
    k, corner_keys = dim, None
    for cube in cubes:
        if not isinstance(cube, dict) or not cube:
            raise ComplexError(f"cube {cube!r} is not a non-empty map of corner addresses")
        if dim is not None and any(len(key) != dim for key in cube):
            raise ParseError("corner keys do not match the declared dim")
        # keys and vertex ids are checked entry by entry, so that a cube's
        # first fault in key order is the one reported
        for key, v in cube.items():
            # "01".find sends any character but 0 and 1 to -1
            if -1 in map("01".find, key):
                raise ComplexError(f"bad corner address {key!r}")
            _vertex_id(v)
        if k is None:
            k = len(next(iter(cube)))
        if k < 1:
            raise ComplexError("cube dimension must be at least 1")
        if any(len(key) != k for key in cube):
            raise NonPure("mixed cube dimensions")
        if len(cube) != 1 << k:
            raise ComplexError(f"cube needs all {1 << k} corners")
        corner_keys = corner_keys or _corner_keys(k)
        yield tuple(cube[key] for key in corner_keys)


def complex_to_dict(K) -> dict:
    if isinstance(K, SimplicialComplex):
        return {"kind": "simplicial", "facets": [list(f) for f in K.facets]}
    if isinstance(K, CubicalComplex):
        keys = _corner_keys(K.dim)
        return {"kind": "cubical", "dim": K.dim, "cubes": [dict(zip(keys, c)) for c in K.cubes]}
    if isinstance(K, Groupoid):
        return {"kind": "builtin", "name": "tribar"}
    raise TypeError(f"cannot serialize {type(K).__name__}")


def load_complex(path: str | Path):
    return parse_complex(load_json(path))


def _integer(value, what: str) -> int:
    if type(value) is not int:   # bool is an int subclass
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def parse_state(obj) -> LabelledState:
    try:
        hole, placement = obj["hole"], obj["placement"]
        for cell in (hole, *placement.values()):
            _integer(cell, "cell")
        return LabelledState.from_mapping(hole, placement)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid puzzle state: {e}") from e


def state_to_dict(s: LabelledState) -> dict:
    return {"hole": s.hole, "placement": {p: c for p, c in s.placement}}


def _oriented(text: str) -> tuple[int, int]:
    # canonical decimals only, so that no two keys name one edge
    match = isinstance(text, str) and re.fullmatch(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)", text)
    if not match:
        raise ValueError(f"oriented edge {text!r} is not a string 'x,y'")
    return int(match[1]), int(match[2])


def parse_connection(obj) -> GraphConnection:
    try:
        edges = [tuple(_integer(v, "vertex") for v in e) for e in obj["edges"]]
        if not edges:
            raise ValueError("the connection has no edges")
        n = len({v for e in edges for v in e})
        if any(not 0 <= v < n for e in edges for v in e):
            raise ValueError(f"vertex ids are not 0..{n - 1}")
        graph = Graph(n, tuple(edges))
        tables = obj["nabla"]
        if not isinstance(tables, dict) or not all(isinstance(t, dict) for t in tables.values()):
            raise ValueError("nabla must map each oriented edge to an object")
        nabla = {
            _oriented(edge): {_oriented(k): _oriented(v) for k, v in table.items()}
            for edge, table in tables.items()
        }
        return GraphConnection(graph, nabla)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid connection: {e}") from e


def connection_to_dict(c: GraphConnection) -> dict:
    return {
        "edges": [list(e) for e in c.graph.edges],
        "nabla": {
            f"{x},{y}": {f"{a},{b}": f"{p},{q}" for (a, b), (p, q) in table.items()}
            for (x, y), table in c.nabla.items()
        },
    }


def order_text(n: int) -> str:
    """The exact decimal digits of a group order.  ``str`` refuses ints
    past the interpreter's digit limit (4,300 digits, reached by 1599!/2
    on the 40x40 board); building a ``Decimal`` from an int is exact,
    and its digits have no such limit."""
    return str(Decimal(n))


def perm_to_list(p: Perm) -> list[int]:
    return list(p.images)


def signed_perm_to_dict(s: SignedPerm) -> dict:
    return {"perm": list(s.perm.images), "signs": list(s.signs)}


def holonomy_to_dict(r: HolonomyResult) -> dict:
    out = {
        "base": r.base,
        "order": order_text(r.order),
        "tag": r.tag,
        "generators": [perm_to_list(g) for g in r.generators],
        "outer_order": order_text(r.outer_order),
    }
    if r.signed_generators is not None:
        out["signed_generators"] = [signed_perm_to_dict(s) for s in r.signed_generators]
    return out
