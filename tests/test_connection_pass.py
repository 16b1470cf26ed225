"""The one-pass connection validator against the two-pass validator it
replaced.

``reference_validate`` is the earlier ``validate_connection``, kept
verbatim: it compares each table's keys and values with the stars as
sets and checks the inverse item by item, over every oriented edge.
The one-pass validator must return the same verdict and the same
witness on every seeded mutation of a connection, and on a valid
connection its slot flips must be the tables themselves.
"""

import random
import re
from collections import Counter

from test_flip_tuples import connection_flips
from test_jordan import random_connection

from groupoids.graphconn import (
    ConnectionReport,
    GraphConnection,
    connection_groupoid,
    rotation_connection,
    star,
    validate_connection,
)
from groupoids.homcx import complete_graph


def reference_validate(c: GraphConnection) -> ConnectionReport:
    """Check both axioms and bijectivity on every oriented edge."""
    _ = c.regularity  # raises NotRegular on irregular graphs
    oriented = [(x, y) for x, y in c.graph.edges] + \
               [(y, x) for x, y in c.graph.edges]
    for e in oriented:
        if e not in c.nabla:
            return ConnectionReport(False, f"missing table for edge {e}")
    stars = [{(x, w) for w in ws} for x, ws in enumerate(c.graph.adjacency)]
    for x, y in oriented:
        table = c.nabla[(x, y)]
        if table.keys() != stars[x]:
            return ConnectionReport(False, f"table domain wrong at {(x, y)}")
        if set(table.values()) != stars[y]:
            return ConnectionReport(False, f"table image wrong at {(x, y)}")
        if table[(x, y)] != (y, x):
            return ConnectionReport(
                False, f"edge {(x, y)} must cross to {(y, x)}")
        back = c.nabla[(y, x)]
        for src, dst in table.items():
            if back.get(dst) != src:
                return ConnectionReport(
                    False, f"tables at {(x, y)} and {(y, x)} are not inverse")
    return ConnectionReport(True)


def _any_edge(rng, n):
    """An oriented edge of K_n that may belong to any star."""
    return tuple(rng.sample(range(n), 2))


def _drop_table(nabla, rng, n):
    nabla.pop(rng.choice(list(nabla)))


def _drop_key(nabla, rng, n):
    table = nabla[rng.choice(list(nabla))]
    if table:
        table.pop(rng.choice(list(table)))


def _add_key(nabla, rng, n):
    nabla[rng.choice(list(nabla))][_any_edge(rng, n)] = _any_edge(rng, n)


def _swap_values(nabla, rng, n):
    table = nabla[rng.choice(list(nabla))]
    if len(table) > 1:
        a, b = rng.sample(list(table), 2)
        table[a], table[b] = table[b], table[a]


def _foreign_value(nabla, rng, n):
    """A value of None, of another star, or repeated from the same table."""
    table = nabla[rng.choice(list(nabla))]
    if table:
        value = rng.choice([None, _any_edge(rng, n), rng.choice(list(table.values()))])
        table[rng.choice(list(table))] = value


def _invert_table(nabla, rng, n):
    edge = rng.choice(list(nabla))
    nabla[edge] = {dst: src for src, dst in nabla[edge].items()}


EDITS = (_drop_table, _drop_key, _add_key, _swap_values, _foreign_value, _invert_table)


def _mutants(seed: int, count: int):
    """Seeded connections on K3 to K8, each with one to three edits."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(3, 9)
        c = random_connection(n, rng) if rng.random() < 0.8 else rotation_connection(complete_graph(n))
        nabla = {k: dict(v) for k, v in c.nabla.items()}
        for _ in range(rng.randrange(1, 4)):
            rng.choice(EDITS)(nabla, rng, n)
        yield GraphConnection(c.graph, nabla)


def _witness_kind(witness: str | None) -> str:
    if witness is None:
        return "valid"
    # a domain witness on a reversed edge (y, x), y > x, comes from the closing length check
    domain = re.fullmatch(r"table domain wrong at \((\d+), (\d+)\)", witness)
    if domain:
        return "reverse domain" if int(domain[1]) > int(domain[2]) else "domain"
    return next(k for k in ("missing", "image", "cross", "inverse") if k in witness)


def _assert_flips_are_the_tables(c: GraphConnection, flips) -> None:
    stars = [star(c.graph, x) for x in range(c.graph.vertex_count)]
    tables = connection_flips(c)
    for rid, (a, b) in enumerate(c.graph.edges):
        for x, y in ((a, b), (b, a)):
            t = flips[(x, y)]
            assert dict(zip(stars[x], (stars[y][s] for s in t))) == tables[(x, y, rid)]


def test_witnesses_match_the_two_pass_validator():
    kinds = Counter()
    for c in _mutants(16, 6000):
        report = validate_connection(c)
        want = reference_validate(c)
        assert (report.ok, report.witness) == (want.ok, want.witness)
        kinds[_witness_kind(report.witness)] += 1
        if report:
            _assert_flips_are_the_tables(c, report.flips)
    assert set(kinds) == {"valid", "missing", "domain", "reverse domain", "image", "cross",
                          "inverse"}, kinds


def test_valid_connections_read_their_tables_as_flips():
    rng = random.Random(17)
    for n in [*range(2, 12), 16, 20]:
        for c in (random_connection(n, rng), rotation_connection(complete_graph(n))):
            report = validate_connection(c)
            assert report.ok and reference_validate(c).ok
            _assert_flips_are_the_tables(c, report.flips)
            g = connection_groupoid(c)
            assert {(x, y): g.flips[(x, y, rid)] for x, y, rid in g.flips} == report.flips
