"""The two workloads: inputs, the timed operations, and their checks.

Importing this module imports the package under test, so ``run.py``
imports it inside the set-up timer.  Each workload is a closed loop
with one caller.  Its timed phase is made of passes over *parts*;
a part is a fixed list of operations.  The classes below each make
one or two parts; ``make`` joins them into the workloads ``complexes``
(ladder, corpus) and ``chains`` (boards, connections, reach).
``run(part)`` makes one pass and returns its time and one record per
operation, ``run(part, tracer)`` makes the same pass with spans around
the public calls, and ``verify`` checks every record against the
oracles.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import time
from pathlib import Path

import inputs
import oracles
from groupoids import cli
from groupoids.complexes import facet_adjacency
from groupoids.corpus import random_corpus
from groupoids.games import LabelledState, Puzzle, puzzle_holonomy, reachable
from groupoids.graphconn import GraphConnection, connection_holonomy, validate_connection
from groupoids.groupoid import Groupoid
from groupoids.holonomy import holonomy
from groupoids.homcx import Graph, euler_characteristic, f_vector, graph_by_name, \
    hom_complex, induced_swap_action
from groupoids.invariants import compare_invariants, i_invariant, \
    locally_strongly_connected, nacl
from groupoids.permgroup import Perm, recognize, schreier_sims
from groupoids.serialize import holonomy_to_dict, load_json, parse_complex


def _attempt(fn, *args):
    """Run one operation; an exception fails that operation only."""
    try:
        return fn(*args)
    except Exception as e:  # one failed operation must not end the run
        return FailedOp(f"{type(e).__name__}: {e}")


class FailedOp:
    def __init__(self, message: str):
        self.message = message


def _pass(part, tracer, ops, plain, traced):
    """One timed pass over ``ops`` (argument tuples): ``plain(*op)``
    untraced, or ``traced(*op, tracer)`` as an operation of its own.
    Returns the pass time and the records."""
    start = time.perf_counter()
    if tracer is None:
        out = [_attempt(plain, *op) for op in ops]
    else:
        out = []
        for op in ops:
            tracer.begin_op(part)
            out.append(_attempt(traced, *op, tracer))
    return time.perf_counter() - start, out


def _images(group) -> tuple[tuple[int, ...], ...]:
    return tuple(g.images for g in group.generators)


class Workload:
    parts: tuple[str, ...] = ()
    # Parts whose passes each run in a fresh process, because a pass in
    # the same process would find its results in the program's caches.
    fresh: frozenset[str] = frozenset()

    def __init__(self):
        self.counts: dict[str, dict[str, float]] = {}

    def count(self, part: str, name: str, value: float) -> None:
        per_part = self.counts.setdefault(part, {})
        per_part[name] = per_part.get(name, 0) + value

    def close(self) -> None:
        pass

    def _count_holonomy(self, part, results):
        for r in results:
            ident = tuple(range(r.group.degree))
            self.count(part, "holonomy.generators", len(r.generators))
            self.count(part, "holonomy.distinct",
                       len({g.images for g in r.generators} - {ident}))
            self.count(part, "permgroup.base_len", len(r.group.base))

    def _traced_compare(self, K, tr, parent, part):
        """compare_invariants(K) as one span, then each public call it
        makes re-run by itself as a child span."""
        c, cs = tr.call("invariants.compare", compare_invariants, K, parent=parent)
        tr.call("invariants.nacl", nacl, K, parent=cs)
        _, i_span = tr.call("invariants.i", i_invariant, K, parent=cs)
        g, gs = tr.call("groupoid.flips", Groupoid.from_complex, K, parent=i_span)
        dual, _ = tr.call("complexes.dual", facet_adjacency, K, parent=gs)
        results = []
        for component in g.dual.components():
            r, hs = tr.call("holonomy.loops", holonomy, g, min(component),
                            require_connected=False, parent=i_span)
            tr.call("permgroup.chain", schreier_sims, r.generators,
                    degree=len(g.object_vertices[0]), parent=hs)
            results.append(r)
            if any(sum(s == -1 for s in sp.signs) % 2 for sp in r.signed_generators):
                break
        tr.call("complexes.dual", facet_adjacency, K, parent=cs)
        _, ls = tr.call("invariants.local", locally_strongly_connected, K, parent=cs)
        tr.call("complexes.dual", facet_adjacency, K, parent=ls)
        self._count_holonomy(part, results)
        return c, dual

    def compare_to_first(self, samples, label) -> tuple[int, list[str]]:
        """Operations of later passes must return what the first did."""
        bad, errors = 0, []
        for sample in samples[1:]:
            for i, (first, rec) in enumerate(zip(samples[0], sample)):
                if not isinstance(rec, FailedOp) and rec != first:
                    bad += 1
                    errors.append(f"{label} op {i}: result changed between passes")
        return bad, errors


# ---------------------------------------------------------------- CLI ladder

def _run_cli(argv):
    """One CLI call in this process; its JSON report, or an error when the
    call exits with another code than 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


class ComplexLadder(Workload):
    """Part *ladder*: the holonomy, invariants and hom subcommands on a
    fixed ladder."""

    parts = ("ladder",)

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = random.Random(seed)
        rungs = [
            (inputs.lattice_grid((8, 8), rng), ("holonomy", "invariants")),
            (inputs.lattice_grid((16, 16), rng), ("holonomy", "invariants")),
            (inputs.lattice_grid((20, 20), rng), ("holonomy", "invariants")),
            (inputs.lattice_grid((3, 3, 3), rng), ("holonomy", "invariants")),
            (inputs.lattice_grid((4, 4, 4), rng), ("holonomy", "invariants")),
            (inputs.cube_skeleton(4, 2, rng), ("holonomy", "invariants")),
            (inputs.cube_skeleton(5, 2, rng), ("holonomy",)),
            (inputs.cube_skeleton(5, 3, rng), ("holonomy", "invariants")),
            (inputs.cube_skeleton(5, 4, rng), ("holonomy",)),
            (inputs.square_strip(40, False, rng), ("holonomy", "invariants")),
            (inputs.square_strip(40, True, rng), ("holonomy", "invariants")),
            (inputs.square_strip(41, False, rng), ("holonomy", "invariants")),
            (inputs.square_strip(41, True, rng), ("holonomy", "invariants")),
            (inputs.simplicial_cycle(301, rng), ("holonomy",)),
            (inputs.simplicial_cycle(400, rng), ("holonomy",)),
            (inputs.triangulated_grid(10, rng), ("holonomy",)),
            (inputs.triangulated_grid(20, rng), ("holonomy",)),
        ]
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.ops = []   # (argv, complex input or hom n)
        for item, commands in rungs:
            path = workdir / f"{item.name}.json"
            path.write_text(json.dumps(item.data))
            for command in commands:
                self.ops.append((["--format", "json", command, str(path)], item))
        for n in (6, 7, 8, 9):
            self.ops.append((["--format", "json", "hom", "--g", "k2", "--h", f"k{n}",
                              "--report", "fvector,euler,free-action"], n))
        rng.shuffle(self.ops)

    def close(self) -> None:
        for path in self.workdir.glob("*.json"):
            path.unlink()
        self.workdir.rmdir()

    def warm_up(self) -> None:
        self.run("ladder")

    def run(self, part, tracer=None):
        return _pass(part, tracer, self.ops, lambda argv, _: _run_cli(argv), self._traced)

    def _traced(self, argv, item, tr):
        rec, root = tr.call("cli.self", _run_cli, argv)
        command = argv[2]
        if command == "hom":
            cells, _ = tr.call("homcx.cells", hom_complex, graph_by_name("k2"),
                               graph_by_name(f"k{item}"), parent=root)
            fv, _ = tr.call("homcx.report", f_vector, cells, parent=root)
            chi, _ = tr.call("homcx.report", euler_characteristic, cells, parent=root)
            swap, _ = tr.call("homcx.report", induced_swap_action, cells, parent=root)
            results = {"g": "k2", "h": f"k{item}", "cells": len(cells), "fvector": list(fv),
                       "euler": chi, "free_action": swap.fixed_point_free}
            tr.call("serialize.emit", _dumps, results, parent=root)
            self.count("ladder", "homcx.cells", len(cells))
            return rec
        data, _ = tr.call("serialize.load", load_json, argv[3], parent=root)
        K, _ = tr.call("complexes.build", parse_complex, data, parent=root)
        if command == "holonomy":
            g, gs = tr.call("groupoid.flips", Groupoid.from_complex, K, parent=root)
            dual, _ = tr.call("complexes.dual", facet_adjacency, K, parent=gs)
            r, hs = tr.call("holonomy.loops", holonomy, g, 0, parent=root)
            tr.call("permgroup.chain", schreier_sims, r.generators,
                    degree=len(g.object_vertices[0]), parent=hs)
            d, es = tr.call("serialize.emit", holonomy_to_dict, r, parent=root)
            tr.call("permgroup.recognize", recognize, r.group, parent=es)
            tr.call("serialize.emit", _dumps, d, parent=root)
            self._count_holonomy("ladder", [r])
        else:
            c, dual = self._traced_compare(K, tr, root, "ladder")
            results = {"i": c.i, "nacl": c.nacl, "equal": c.equal,
                       "strongly_connected": c.strongly_connected,
                       "locally_strongly_connected": c.locally_strongly_connected,
                       "witness_odd_cycle": c.witness_odd_cycle}
            tr.call("serialize.emit", _dumps, results, parent=root)
        self.count("ladder", "complexes.faces", len(K.faces))
        self.count("ladder", "complexes.dual_edges", len(dual.edges))
        return rec

    def verify(self, part, samples):
        first = samples[0]
        bad, errors = self.compare_to_first(samples, "ladder")
        for (argv, item), rec in zip(self.ops, first):
            if isinstance(rec, FailedOp):
                continue
            label = " ".join(argv[2:3] + [getattr(item, "name", f"k2->k{item}")])
            try:
                report = json.loads(rec)["results"]
            except (ValueError, KeyError):
                report = None
            if report is None:
                problems = [f"{label}: no JSON report"]
            elif argv[2] == "hom":
                problems = oracles.check_hom(item, report)
            elif argv[2] == "holonomy":
                problems = oracles.check_holonomy(item.name, item.data, item.expect, report)
            else:
                problems = oracles.check_invariants(
                    item.name, oracles.corner_lists(item.data), item.coords,
                    item.expect, report)
            if problems:
                bad += len(samples)
                errors += problems
        return bad, errors


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


# -------------------------------------------------------------- corpus sweep

class CorpusSweep(Workload):
    """Part *corpus*: ``groupoids corpus`` as library calls, generate,
    then compare."""

    parts = ("corpus",)
    COUNT = 800

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self.items = None

    def warm_up(self) -> None:
        self.run("corpus")
        self.items = None

    @staticmethod
    def _verdict(K):
        c = compare_invariants(K)
        return (c.i, c.nacl, c.equal, c.strongly_connected,
                c.locally_strongly_connected, c.witness_odd_cycle)

    def run(self, part, tracer=None):
        start = time.perf_counter()
        if tracer is None:
            items = random_corpus(self.seed, self.COUNT)
            out = [_attempt(self._verdict, item.complex) for item in items]
        else:
            tracer.begin_op(part)
            items, _ = tracer.call("corpus.generate", random_corpus, self.seed, self.COUNT)
            self.count(part, "corpus.items", len(items))
            out = []
            for item in items:
                tracer.begin_op(part)
                out.append(_attempt(self._traced_verdict, item.complex, tracer))
        seconds = time.perf_counter() - start
        if self.items is None:
            self.items = items
        return seconds, out

    def _traced_verdict(self, K, tr):
        c, dual = self._traced_compare(K, tr, -1, "corpus")
        self.count("corpus", "complexes.dual_edges", len(dual.edges))
        return (c.i, c.nacl, c.equal, c.strongly_connected,
                c.locally_strongly_connected, c.witness_odd_cycle)

    def verify(self, part, samples):
        bad, errors = self.compare_to_first(samples, "corpus")
        for item, rec in zip(self.items, samples[0]):
            if isinstance(rec, FailedOp):
                continue
            keys = ("i", "nacl", "equal", "strongly_connected",
                    "locally_strongly_connected", "witness_odd_cycle")
            got = dict(zip(keys, rec))
            if got["witness_odd_cycle"] is not None:
                got["witness_odd_cycle"] = list(got["witness_odd_cycle"])
            problems = oracles.check_invariants(item.name, list(item.complex.cubes),
                                                None, {}, got)
            if problems:
                bad += len(samples)
                errors += problems
        return bad, errors


# --------------------------------------------------------------- chain ladder

def _board(b: inputs.BoardInput) -> Puzzle:
    return Puzzle(cell_count=b.cells, edges=b.edges)


def _connection(c: dict) -> GraphConnection:
    return GraphConnection(Graph(c["n"], c["edges"]), c["nabla"])


def _group_record(group):
    return str(group.order), recognize(group), _images(group)


class ChainLadder(Workload):
    """Parts *boards* and *connections*: cold holonomy chains of puzzle
    boards, each (board, base hole) pair once per process, and of seeded
    random connections on complete graphs.

    The cost of a chain varies with the random connection, so each
    connection pass takes the next of several seeded sets, made before
    the pass starts: the median pass of a run spreads over several draws,
    not one.
    """

    parts = ("boards", "connections")
    fresh = frozenset({"boards"})
    CONNECTION_SIZES = (12, 16, 20, 24, 28)
    CONNECTION_SETS = 6

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        rng = random.Random(seed)
        self.boards = [
            inputs.grid_board(2, 3), inputs.grid_board(3, 3), inputs.grid_board(3, 4),
            inputs.grid_board(4, 4, holes=range(0, 16, 2)),
            inputs.grid_board(4, 5, holes=(0, 9, 19)), inputs.grid_board(5, 5, holes=(0, 24)),
            inputs.diagonal_board(3, 3),
            dataclasses.replace(inputs.diagonal_board(4, 4), holes=tuple(range(0, 16, 3))),
            inputs.cycle_board(8), inputs.cycle_board(13), inputs.theta0_board(),
            dataclasses.replace(inputs.twin_grid_board(3, 3), holes=tuple(range(0, 17, 3))),
            inputs.pendant_board(3, 3, 2),
        ]
        puzzles = [_board(b) for b in self.boards]
        self.pairs = [(i, h) for i, b in enumerate(self.boards) for h in b.holes]
        rng.shuffle(self.pairs)
        self.board_ops = [(puzzles[i], h) for i, h in self.pairs]
        self.connection_passes = 0
        # warm-up inputs the timed passes never use, so no pass hits a cache
        self.warm_board = _board(inputs.grid_board(3, 5))
        self.warm_connection = _connection(inputs.random_connection(14, rng))

    def warm_up(self) -> None:
        for hole in (0, 7, 14):
            recognize(puzzle_holonomy(self.warm_board, hole))
        recognize(connection_holonomy(self.warm_connection))

    def run(self, part, tracer=None):
        if part == "boards":
            return _pass(part, tracer, self.board_ops,
                         lambda puzzle, hole: _group_record(puzzle_holonomy(puzzle, hole)),
                         self._traced_board)
        ops = [(_connection(c),) for c in self.connection_set(self.connection_passes)]
        self.connection_passes += 1
        return _pass(part, tracer, ops,
                     lambda c: _group_record(connection_holonomy(c)), self._traced_connection)

    def connection_set(self, index: int) -> list[dict]:
        """The seeded random connections of pass ``index``."""
        rng = random.Random(f"{self.seed}:{index % self.CONNECTION_SETS}")
        return [inputs.random_connection(n, rng) for n in self.CONNECTION_SIZES]

    def _traced_chain(self, part, group, tr, parent):
        tr.call("permgroup.chain", schreier_sims, group.generators,
                degree=group.degree, parent=parent)
        tag, _ = tr.call("permgroup.recognize", recognize, group)
        self.count(part, "permgroup.base_len", len(group.base))
        return str(group.order), tag, _images(group)

    def _traced_board(self, puzzle, hole, tr):
        group, ps = tr.call("games.tours", puzzle_holonomy, puzzle, hole)
        self.count("boards", "games.tours", len(group.generators))
        return self._traced_chain("boards", group, tr, ps)

    def _traced_connection(self, c, tr):
        group, cs = tr.call("graphconn.loops", connection_holonomy, c)
        tr.call("graphconn.validate", validate_connection, c, parent=cs)
        return self._traced_chain("connections", group, tr, cs)

    def verify(self, part, samples):
        if part == "connections":
            bad, errors = 0, []
            for k, sample in enumerate(samples):
                for c, rec in zip(self.connection_set(k), sample):
                    if isinstance(rec, FailedOp):
                        continue
                    order, tag, gens = rec
                    own = oracles.connection_loops(c["n"], c["edges"], c["nabla"])
                    problems = oracles.check_same_group(f"connection K{c['n']}", int(order),
                                                        tag, gens, own, c["n"] - 1)
                    if problems:
                        bad += 1
                        errors += problems
            return bad, errors
        shape = [e for b in self.boards for e in oracles.check_board_shape(b)]
        if shape:
            raise RuntimeError(f"the board oracles do not apply: {shape}")
        bad, errors = self.compare_to_first(samples, "boards")
        for (i, hole), rec in zip(self.pairs, samples[0]):
            if isinstance(rec, FailedOp):
                continue
            b = self.boards[i]
            order, tag, gens = rec
            label = f"{b.name} hole {hole}"
            want = oracles.board_expectation(b, oracles.bipartite(b.cells, b.edges))
            if want is None:
                own = oracles.board_tours(b.cells, b.edges, hole)
                problems = oracles.check_same_group(label, int(order), tag, gens, own,
                                                    b.cells - 1)
            elif (int(order), tag) != want:
                problems = [f"{label}: order {order} ({tag}), Wilson says {want[0]} ({want[1]})"]
            else:
                problems = []
            if problems:
                bad += len(samples)
                errors += problems
        return bad, errors


# ---------------------------------------------------------------- puzzle reach

class PuzzleReach(Workload):
    """Part *reach*: seeded scrambles of one board against its solved
    state; the board's single chain is built during set-up."""

    parts = ("reach",)
    SIDE = 5
    QUERIES = 1000

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        cells = self.SIDE * self.SIDE
        grid = inputs.grid_board(self.SIDE, self.SIDE)
        self.adjacency = oracles.adjacency(cells, grid.edges)
        self.board = _board(grid)
        self.solved = (cells - 1, {str(c + 1): c for c in range(cells - 1)})
        self.target = LabelledState.from_mapping(*self.solved)
        self.scrambles = [inputs.scramble(cells, rng) for _ in range(self.QUERIES)]
        self.ops = [(LabelledState.from_mapping(h, p), (h, p)) for h, p in self.scrambles]
        self.group = puzzle_holonomy(self.board, self.target.hole)

    def warm_up(self) -> None:
        for _ in range(3):
            self.run("reach")

    def run(self, part, tracer=None):
        board, target = self.board, self.target
        return _pass(part, tracer, self.ops,
                     lambda state, _: reachable(board, state, target), self._traced_reach)

    def _traced_reach(self, state, scramble, tr):
        ok, rs = tr.call("games.transport", reachable, self.board, state, self.target)
        member, _ = tr.call("permgroup.contains", self.group.contains,
                            self._residual(*scramble), parent=rs)
        return ok if member == ok else ("contains disagrees with reachable", ok)

    def _residual(self, hole, placement) -> Perm:
        """Carry the pieces along a shortest hole path to the solved hole
        and read off the piece permutation on the remaining slots."""
        goal = self.solved[0]
        walk = oracles.tree_paths(self.adjacency, hole)[0](goal)
        occupant = {c: p for p, c in placement.items()}
        for here, there in zip(walk, walk[1:]):
            occupant[here] = occupant.pop(there)
        return Perm(tuple(self.solved[1][occupant[c]] for c in range(goal)))

    def verify(self, part, samples):
        bad, errors = 0, []
        want = [oracles.reach_parity(self.SIDE, s, self.solved) for s in self.scrambles]
        for sample in samples:
            for i, rec in enumerate(sample):
                if not isinstance(rec, FailedOp) and rec != want[i]:
                    bad += 1
                    if len(errors) < 5:
                        errors.append(f"scramble {i}: reachable={rec}, parity says {want[i]}")
        return bad, errors


class Combined(Workload):
    """Members run as the parts of one workload; each part keeps its own
    passes, median and checks."""

    def __init__(self, members: list[Workload]):
        super().__init__()
        self.members = members
        self.owner = {part: m for m in members for part in m.parts}
        self.parts = tuple(self.owner)
        self.fresh = frozenset().union(*(m.fresh for m in members))
        for m in members:
            m.counts = self.counts

    def close(self) -> None:
        for m in self.members:
            m.close()

    def warm_up(self) -> None:
        for m in self.members:
            m.warm_up()

    def run(self, part, tracer=None):
        return self.owner[part].run(part, tracer)

    def verify(self, part, samples):
        return self.owner[part].verify(part, samples)


def make(name: str, seed: int, workdir: Path, part: str | None = None) -> Workload:
    """The workload ``name``; with ``part``, only the member that makes
    that part (a fresh process for one pass needs no more)."""
    if name == "complexes":
        kinds = [(ComplexLadder, seed, workdir), (CorpusSweep, seed)]
    elif name == "chains":
        kinds = [(ChainLadder, seed), (PuzzleReach, seed)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Combined([kind(*args) for kind, *args in kinds
                     if part is None or part in kind.parts])
