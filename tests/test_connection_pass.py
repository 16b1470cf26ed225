"""The one-pass connection validator against the two validators before it.

``reference_validate`` is the two-pass ``validate_connection``, kept
verbatim: it compares each table's keys and values with the stars as
sets and checks the inverse item by item, over every oriented edge.
The one-pass validator must return the same verdict and the same
witness on every seeded mutation of a connection, and on a valid
connection its slot flips must be the tables themselves.

``item_reference_validate`` is the one-pass validator as it was before
its tables were read in two batched lookups, kept verbatim: it reads
every table item by item.  The batched reads must give the same
verdict, witness and flips, or raise the same exception type, on
mutations that put None, an int, a foreign oriented edge or a list in
a forward or a reversed table.  Both references keep a flip for each
oriented edge; the report keeps one per edge of ``graph.edges``, whose
reverse is its inverse, so their flips are compared along those edges.
"""

import random
import re
from collections import Counter

import pytest

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
from groupoids.permgroup import _inv, _mul


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


def item_reference_validate(c: GraphConnection) -> ConnectionReport:
    """Check both axioms and bijectivity on every oriented edge, and read
    each table as a slot tuple on the way."""
    d = c.regularity  # raises NotRegular on irregular graphs
    nabla, edges = c.nabla, c.graph.edges
    for e in [*edges, *((y, x) for x, y in edges)]:
        if e not in nabla:
            return ConnectionReport(False, f"missing table for edge {e}")
    stars = [star(c.graph, x) for x in range(c.graph.vertex_count)]
    index = [dict(zip(edges_x, range(d))) for edges_x in stars]  # star edge -> its slot
    identity, flips = tuple(range(d)), {}
    for x, y in edges:
        table = nabla[(x, y)]
        # a missing key, a None value and a value off the star of y all read as None
        t = tuple(map(index[y].get, map(table.get, stars[x])))
        if len(table) != d or None in t and not all(map(table.__contains__, stars[x])):
            return ConnectionReport(False, f"table domain wrong at {(x, y)}")
        if None in t or len(set(t)) != d:
            return ConnectionReport(False, f"table image wrong at {(x, y)}")
        if table[(x, y)] != (y, x):
            return ConnectionReport(False, f"edge {(x, y)} must cross to {(y, x)}")
        back = tuple(map(index[x].get, map(nabla[(y, x)].get, stars[y])))
        if _mul(t, back) != identity:
            return ConnectionReport(False, f"tables at {(x, y)} and {(y, x)} are not inverse")
        flips[(x, y)], flips[(y, x)] = t, back
    for x, y in edges:
        if len(nabla[(y, x)]) != d:
            return ConnectionReport(False, f"table domain wrong at {(y, x)}")
    return ConnectionReport(True, flips=flips)


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
    """One flip per edge (a, b) of ``graph.edges``: it reads as the table of
    (a, b), and its inverse as the table of (b, a)."""
    stars = [star(c.graph, x) for x in range(c.graph.vertex_count)]
    tables = connection_flips(c)
    assert len(flips) == len(c.graph.edges)
    for rid, (a, b) in enumerate(c.graph.edges):
        for x, y, t in ((a, b, flips[rid]), (b, a, _inv(flips[rid]))):
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
            assert g.dual.edges == tuple((*e, rid) for rid, e in enumerate(c.graph.edges))
            assert g.flips == dict(zip(g.dual.edges, report.flips))


def _outcome(validate, c: GraphConnection):
    """(ok, witness, flips), or the type of the exception raised."""
    try:
        report = validate(c)
    except Exception as e:  # the type of any exception is the outcome
        return type(e)
    return report.ok, report.witness, report.flips


def _reference_outcome(c: GraphConnection):
    """The outcome of ``item_reference_validate``, its flips read along
    ``graph.edges`` once each reverse is checked to be the inverse."""
    got = _outcome(item_reference_validate, c)
    if isinstance(got, type) or got[2] is None:
        return got
    ok, witness, flips = got
    assert all(flips[(y, x)] == _inv(flips[(x, y)]) for x, y in c.graph.edges)
    return ok, witness, tuple(flips[e] for e in c.graph.edges)


def _bad_value(rng, n):
    """None, an int, an oriented edge of any star, or a list (unhashable)."""
    return rng.choice([None, rng.randrange(-2, n + 2), _any_edge(rng, n), list(_any_edge(rng, n))])


def _set_value(nabla, edge, rng, n):
    table = nabla.get(edge)  # an earlier edit may have dropped it
    if table:
        table[rng.choice(list(table))] = _bad_value(rng, n)


def _value_mutants(seed: int, count: int):
    """Seeded connections on K2 to K8 with one to three bad values, each
    in the forward table of an edge of ``graph.edges`` or in its
    reversed table, some after one of the edits of ``_mutants``."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 9)
        c = random_connection(n, rng) if rng.random() < 0.8 else rotation_connection(complete_graph(n))
        nabla = {k: dict(v) for k, v in c.nabla.items()}
        if rng.random() < 0.2:
            rng.choice(EDITS)(nabla, rng, n)  # first: some edits cannot take a list value
        for _ in range(rng.randrange(1, 4)):
            x, y = rng.choice(c.graph.edges)
            _set_value(nabla, (x, y) if rng.random() < 0.5 else (y, x), rng, n)
        yield GraphConnection(c.graph, nabla)


def test_batched_reads_match_the_item_by_item_validator():
    outcomes = Counter()
    for c in _value_mutants(17, 6000):
        got = _outcome(validate_connection, c)
        assert got == _reference_outcome(c)
        outcomes[got if isinstance(got, type) else _witness_kind(got[1])] += 1
    assert {TypeError, "valid", "domain", "image", "cross", "inverse"} <= set(outcomes), outcomes


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("value", [None, 7, (2, 3), [1, 2]], ids=["none", "int", "foreign", "list"])
def test_each_bad_value_matches_the_item_by_item_validator(value, reverse):
    for n in (2, 3, 4, 6):
        for x, y in complete_graph(n).edges:
            c = rotation_connection(complete_graph(n))
            nabla = {k: dict(v) for k, v in c.nabla.items()}
            edge = (y, x) if reverse else (x, y)
            for key in nabla[edge]:
                bad = GraphConnection(c.graph, {**nabla, edge: {**nabla[edge], key: value}})
                want = _reference_outcome(bad)
                assert _outcome(validate_connection, bad) == want
                assert (want is TypeError) == isinstance(value, list)


def test_an_image_error_is_found_before_an_unhashable_reversed_value():
    """The reversed table is read only after (x, y) passes its domain,
    image and crossing: a list in the table of (1, 0) must not hide the
    repeated value in the table of (0, 1)."""
    c = rotation_connection(complete_graph(4))
    nabla = {k: dict(v) for k, v in c.nabla.items()}
    nabla[(0, 1)][(0, 2)] = nabla[(0, 1)][(0, 3)]
    nabla[(1, 0)][(1, 2)] = [0, 2]
    bad = GraphConnection(c.graph, nabla)
    assert _reference_outcome(bad) == (False, "table image wrong at (0, 1)", None)
    assert _outcome(validate_connection, bad) == (False, "table image wrong at (0, 1)", None)
    nabla[(0, 1)] = dict(c.nabla[(0, 1)])
    assert _outcome(validate_connection, GraphConnection(c.graph, nabla)) is TypeError


def test_single_slot_stars_read_one_key():
    """K2: every star holds one edge, and each table is read through the
    one-key path of the two reads."""
    c = rotation_connection(complete_graph(2))
    report = validate_connection(c)
    assert report.flips == ((0,),)
    assert report.stars == (((0, 1),), ((1, 0),))
    for value in (None, (1, 1), (0, 1), [1, 0]):
        for edge in ((0, 1), (1, 0)):
            nabla = {**c.nabla, edge: {edge: value}}
            bad = GraphConnection(c.graph, nabla)
            assert _outcome(validate_connection, bad) == _reference_outcome(bad)


def test_the_report_carries_the_stars_it_read():
    rng = random.Random(18)
    for n in (3, 5, 9):
        c = random_connection(n, rng)
        report = validate_connection(c)
        assert report.stars == tuple(star(c.graph, x) for x in range(n))
        assert connection_groupoid(c).object_vertices == report.stars
        assert validate_connection(GraphConnection(c.graph, {})).stars is None
