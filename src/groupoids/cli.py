"""Command-line front end.

Exit codes: 0 when the requested quantity was computed, 1 when a swept
invariant or property was violated, 2 on input errors.  JSON reports
are byte-stable for fixed inputs and seeds; wall-clock timing goes to
stderr so it never perturbs the report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from .complexes import ComplexError, CubicalComplex
from .corpus import bundled_dir, random_corpus
from .games import BoardMismatch, DegenerateBoard, grid_puzzle, puzzle_holonomy, reachable
from .groupoid import Groupoid
from .holonomy import NoSuchObject, NotConnected, holonomy
from .homcx import (
    HOM_BUDGET,
    TooLarge,
    check_budget,
    f_vector,
    hom_complex,
    induced_swap_action,
    parse_graph_name,
)
from .invariants import compare_invariants
from .graphconn import InvalidConnection, InvalidTable, NotRegular, connection_holonomy
from .permgroup import recognize
from .serialize import (
    ParseError,
    complex_to_dict,
    holonomy_to_dict,
    load_complex,
    load_json,
    order_text,
    parse_complex,
    parse_connection,
    parse_state,
)

INPUT_ERROR_TYPES = (ParseError, ComplexError, NotConnected, NoSuchObject,
                     DegenerateBoard, BoardMismatch, NotRegular, InvalidConnection,
                     TooLarge, ValueError, OSError)


def _digest(path: str | None) -> str | None:
    if path is None:
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines(report["results"]):
            print(line)


def cmd_holonomy(args) -> int:
    K = load_complex(args.input)
    g = K if isinstance(K, Groupoid) else Groupoid.from_complex(K)
    result = holonomy(g, args.base)
    report = {
        "command": "holonomy",
        "input": _digest(args.input),
        "results": holonomy_to_dict(result),
    }
    _emit(report, args.format, lambda r: [
        f"base facet {r['base']}",
        f"holonomy order {r['order']} ({r['tag']})",
        f"outer symmetry order {r['outer_order']}",
        f"generators {r['generators']}",
    ])
    return 0


def cmd_invariants(args) -> int:
    K = load_complex(args.input)
    if not isinstance(K, CubicalComplex):
        raise ParseError("invariants need a cubical complex")
    c = compare_invariants(K)
    results = {
        "i": c.i,
        "nacl": c.nacl,
        "equal": c.equal,
        "strongly_connected": c.strongly_connected,
        "locally_strongly_connected": c.locally_strongly_connected,
        "witness_odd_cycle": list(c.witness_odd_cycle) if c.witness_odd_cycle else None,
    }
    report = {"command": "invariants", "input": _digest(args.input), "results": results}
    _emit(report, args.format, lambda r: [
        f"i={r['i']} nacl={r['nacl']} equal={r['equal']}",
        f"strongly connected: {r['strongly_connected']}",
        f"locally strongly connected: {r['locally_strongly_connected']}",
        f"odd cycle witness: {r['witness_odd_cycle']}",
    ])
    return 0


def _board(spec: str):
    try:
        m, n = spec.lower().split("x")
        m, n = int(m), int(n)
        if m < 1 or n < 1:
            raise ValueError("the dimensions must be positive")
        return grid_puzzle(m, n)
    except (ValueError, DegenerateBoard) as e:
        raise ParseError(f"bad board {spec!r}: {e}") from e


def cmd_puzzle(args) -> int:
    board = _board(args.board)
    if args.action == "reach":
        a = parse_state(load_json(args.src))
        b = parse_state(load_json(args.dst))
        ok = reachable(board, a, b)
        results = {"board": args.board, "reachable": ok}
        report = {"command": "puzzle reach",
                  "input": [_digest(args.src), _digest(args.dst)],
                  "results": results}
        _emit(report, args.format,
              lambda r: ["reachable" if r["reachable"] else "unreachable"])
        return 0
    group = puzzle_holonomy(board, args.base)
    results = {
        "board": args.board,
        "base_hole": args.base,
        "order": order_text(group.order),
        "tag": recognize(group),
    }
    report = {"command": "puzzle holonomy", "input": None, "results": results}
    _emit(report, args.format, lambda r: [
        f"holonomy order {r['order']} ({r['tag']}) at hole {r['base_hole']}",
    ])
    return 0


def cmd_hom(args) -> int:
    (g_family, g), (h_family, h) = parse_graph_name(args.g), parse_graph_name(args.h)
    check_budget(g, h)    # before any edge list is built, which takes
    if max(g, h) ** 2 > HOM_BUDGET:    # time and memory quadratic in n
        raise TooLarge(f"a graph on {max(g, h)} vertices exceeds the enumeration budget")
    cells = hom_complex(g_family(g), h_family(h))
    default = "fvector,euler,free-action" if g == 2 else "fvector,euler"
    wanted = (args.report or default).split(",")
    results: dict = {"g": args.g, "h": args.h, "cells": len(cells)}
    fvector = f_vector(cells)   # counted once for both reports
    for item in wanted:
        if item == "fvector":
            results["fvector"] = list(fvector)
        elif item == "euler":
            results["euler"] = sum(fvector[::2]) - sum(fvector[1::2])
        elif item == "free-action":
            if g != 2:
                raise ParseError("free-action report needs --g k2")
            results["free_action"] = induced_swap_action(cells).fixed_point_free
        else:
            raise ParseError(f"unknown report item {item!r}")
    report = {"command": "hom", "input": None, "results": results}
    _emit(report, args.format, lambda r: [
        f"{key}: {value}" for key, value in r.items()])
    return 0


def cmd_connection(args) -> int:
    c = parse_connection(load_json(args.input))
    try:
        group = connection_holonomy(c, args.base)
        results: dict = {"valid": True, "witness": None,
                         "order": order_text(group.order), "tag": recognize(group)}
    except InvalidTable as e:
        results = {"valid": False, "witness": str(e)}
    report = {"command": "connection", "input": _digest(args.input), "results": results}
    _emit(report, args.format, lambda r: [
        f"valid: {r['valid']}" + (f" ({r['witness']})" if r["witness"] else ""),
        *([f"holonomy order {r['order']} ({r['tag']})"] if r.get("order") else []),
    ])
    return 0


def cmd_corpus(args) -> int:
    if args.count < 0:
        raise ParseError(f"--count must be at least 0, not {args.count}")
    items = random_corpus(args.seed, args.count)
    le_held = 0
    eq_total = 0
    eq_held = 0
    failures = []
    for item in items:
        c = compare_invariants(item.complex)
        if c.i <= c.nacl:
            le_held += 1
        else:
            failures.append(f"{item.name}: i={c.i} > nacl={c.nacl}")
        if c.strongly_connected and c.locally_strongly_connected:
            eq_total += 1
            if c.equal:
                eq_held += 1
            else:
                failures.append(f"{item.name}: i={c.i} != nacl={c.nacl} under hypotheses")
    roundtrip_ok = 0
    roundtrip_total = 0
    for path in sorted(bundled_dir().glob("*.json")):
        if path.name.endswith("-state.json") or path.name.endswith("-connection.json"):
            continue
        roundtrip_total += 1
        K = load_complex(path)
        again = parse_complex(complex_to_dict(K))
        if complex_to_dict(again) == complex_to_dict(K):
            roundtrip_ok += 1
        else:
            failures.append(f"{path.name}: round trip changed the complex")
    results = {
        "seed": args.seed,
        "count": args.count,
        "i_le_nacl": f"{le_held}/{len(items)}",
        "equality_under_hypotheses": f"{eq_held}/{eq_total}",
        "bundled_roundtrip": f"{roundtrip_ok}/{roundtrip_total}",
        "failures": failures,
    }
    report = {"command": "corpus", "input": None, "results": results}
    _emit(report, args.format, lambda r: [
        f"I<=NaCl held {r['i_le_nacl']}",
        f"I=NaCl under connectivity hypotheses held {r['equality_under_hypotheses']}",
        f"bundled corpus round trip {r['bundled_roundtrip']}",
        *(f"FAIL {line}" for line in r["failures"]),
    ])
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoids",
        description="holonomy, transport, and obstruction invariants for "
                    "complexes, puzzles, and graphs")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("holonomy", help="holonomy group of a complex file")
    p.add_argument("input")
    p.add_argument("--base", type=int, default=0)
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("invariants", help="parity and bipartiteness invariants")
    p.add_argument("input")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("puzzle", help="sliding-puzzle reachability and holonomy")
    psub = p.add_subparsers(dest="action", required=True)
    pr = psub.add_parser("reach")
    pr.add_argument("--board", required=True)
    pr.add_argument("--from", dest="src", required=True)
    pr.add_argument("--to", dest="dst", required=True)
    pr.set_defaults(func=cmd_puzzle, action="reach")
    ph = psub.add_parser("holonomy")
    ph.add_argument("--board", required=True)
    ph.add_argument("--base", type=int, default=0)
    ph.set_defaults(func=cmd_puzzle, action="holonomy")

    p = sub.add_parser("hom", help="cell complex of multivalued graph maps")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--report", default=None,
                   help="comma list: fvector,euler,free-action")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("connection", help="validate a graph connection file")
    p.add_argument("input")
    p.add_argument("--base", type=int, default=0)
    p.set_defaults(func=cmd_connection)

    p = sub.add_parser("corpus", help="seeded random sweep of the invariants")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = args.func(args)
    except INPUT_ERROR_TYPES as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
