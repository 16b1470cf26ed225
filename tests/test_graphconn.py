import json
import random
import re
from pathlib import Path

import pytest

from groupoids import cli, graphconn
from groupoids.graphconn import (
    GraphConnection,
    InvalidConnection,
    InvalidTable,
    NotRegular,
    connection_holonomy,
    cycle_connection,
    rotation_connection,
    star,
    validate_connection,
)
from groupoids.homcx import Graph, complete_graph, cycle_graph, path_graph
from groupoids.permgroup import recognize
from groupoids.serialize import connection_to_dict


def test_cycle_connection_forced_and_valid():
    c = cycle_connection(4)
    assert validate_connection(c)
    # with two-element stars the whole table is forced
    assert c.nabla[(0, 1)][(0, 1)] == (1, 0)
    assert c.nabla[(0, 1)][(0, 3)] == (1, 2)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_cycle_connection_always_validates(n):
    assert validate_connection(cycle_connection(n))


def forced_cycle_connection(n):
    """Reference: on a cycle the crossed edge goes to its reversal and the
    other star element to the other one."""
    graph = cycle_graph(n)
    nabla = {}
    for x, y in [(a, b) for a, b in graph.edges] + [(b, a) for a, b in graph.edges]:
        other_x = next(e for e in star(graph, x) if e != (x, y))
        other_y = next(e for e in star(graph, y) if e != (y, x))
        nabla[(x, y)] = {(x, y): (y, x), other_x: other_y}
    return GraphConnection(graph, nabla)


def test_cycle_connection_is_the_forced_table():
    for n in range(3, 40):
        want = forced_cycle_connection(n)
        assert cycle_connection(n).nabla == want.nabla
        assert (json.dumps(connection_to_dict(cycle_connection(n)))
                == json.dumps(connection_to_dict(want)))


def test_axiom_violation_witnessed():
    c = cycle_connection(4)
    nabla = {k: dict(v) for k, v in c.nabla.items()}
    nabla[(0, 1)][(0, 1)] = (1, 2)
    nabla[(0, 1)][(0, 3)] = (1, 0)
    report = validate_connection(GraphConnection(c.graph, nabla))
    assert not report
    assert "(0, 1)" in report.witness


def test_not_regular():
    with pytest.raises(NotRegular):
        validate_connection(rotation_connection(path_graph(4)))


def test_k4_rotation_connection():
    c = rotation_connection(complete_graph(4))
    assert validate_connection(c)
    group = connection_holonomy(c, 0)
    assert group.degree == 3
    assert group.order == 3


def test_cycle_holonomies():
    # odd cycles swap the two star slots, even cycles do not
    assert connection_holonomy(cycle_connection(3)).order == 2
    assert recognize(connection_holonomy(cycle_connection(3))) == "cyclic(2)"
    assert connection_holonomy(cycle_connection(4)).order == 1
    assert connection_holonomy(cycle_connection(5)).order == 2
    assert connection_holonomy(cycle_connection(6)).order == 1


def test_smallest_regular_tree_is_trivial():
    # the one-edge graph is the only regular tree; no cycles, no holonomy
    c = rotation_connection(complete_graph(2))
    assert validate_connection(c)
    assert connection_holonomy(c).order == 1


def test_holonomy_base_independence():
    for build in (lambda: cycle_connection(5),
                  lambda: rotation_connection(complete_graph(4))):
        c = build()
        n = c.graph.vertex_count
        orders = {connection_holonomy(c, base).order for base in range(n)}
        assert len(orders) == 1


def test_holonomy_degree_equals_regularity():
    c = rotation_connection(complete_graph(5))
    assert connection_holonomy(c).degree == 4


def test_fuzzed_perturbations_rejected():
    rng = random.Random(12)
    c = rotation_connection(complete_graph(4))
    oriented = list(c.nabla)
    rejected = 0
    for _ in range(20):
        nabla = {k: dict(v) for k, v in c.nabla.items()}
        edge = rng.choice(oriented)
        keys = list(nabla[edge])
        a, b = rng.sample(keys, 2)
        nabla[edge][a], nabla[edge][b] = nabla[edge][b], nabla[edge][a]
        if not validate_connection(GraphConnection(c.graph, nabla)):
            rejected += 1
    assert rejected == 20


def test_invalid_connection_raises_on_holonomy():
    c = cycle_connection(4)
    nabla = {k: dict(v) for k, v in c.nabla.items()}
    nabla[(0, 1)][(0, 1)] = (1, 2)
    nabla[(0, 1)][(0, 3)] = (1, 0)
    with pytest.raises(InvalidConnection):
        connection_holonomy(GraphConnection(c.graph, nabla))


def test_star_ordering():
    g = complete_graph(4)
    assert star(g, 2) == ((2, 0), (2, 1), (2, 3))


def _swap(table, a, b):
    table[a], table[b] = table[b], table[a]


# One broken rotation connection on K4 per witness; each edit breaks
# only the check that reports it.
BROKEN = {
    "missing table for edge (2, 3)": lambda nabla: nabla.pop((2, 3)),
    "table domain wrong at (0, 1)": lambda nabla: nabla[(0, 1)].pop((0, 2)),
    "table image wrong at (0, 1)": lambda nabla: nabla[(0, 1)].update(
        {(0, 2): nabla[(0, 1)][(0, 3)]}),
    "edge (0, 1) must cross to (1, 0)": lambda nabla: _swap(nabla[(0, 1)], (0, 1), (0, 2)),
    "tables at (0, 1) and (1, 0) are not inverse": lambda nabla: _swap(
        nabla[(0, 1)], (0, 2), (0, 3)),
}


def _count_validations(monkeypatch) -> list:
    calls = []

    def spy(c):
        calls.append(c)
        return validate_connection(c)
    monkeypatch.setattr(graphconn, "validate_connection", spy)
    monkeypatch.setattr(cli, "validate_connection", spy, raising=False)
    return calls


@pytest.mark.parametrize("witness", BROKEN)
def test_each_violation_keeps_its_witness(witness, tmp_path, capsys, monkeypatch):
    c = rotation_connection(complete_graph(4))
    nabla = {k: dict(v) for k, v in c.nabla.items()}
    BROKEN[witness](nabla)
    broken = GraphConnection(c.graph, nabla)
    assert validate_connection(broken).witness == witness
    with pytest.raises(InvalidTable, match=re.escape(witness)):
        connection_holonomy(broken)
    path = tmp_path / "broken-connection.json"
    path.write_text(json.dumps(connection_to_dict(broken)))
    calls = _count_validations(monkeypatch)
    assert cli.main(["--format", "json", "connection", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {"valid": False, "witness": witness}
    assert len(calls) == 1


def test_cli_validates_a_connection_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k4-connection.json"
    path.write_text(json.dumps(connection_to_dict(rotation_connection(complete_graph(4)))))
    calls = _count_validations(monkeypatch)
    assert cli.main(["--format", "json", "connection", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["order"] == "3"
    assert len(calls) == 1


BROKEN_FILES = dict(zip(BROKEN, ("missing", "domain", "image", "crossing", "inverse")))


@pytest.mark.parametrize("witness", BROKEN)
def test_broken_connection_files_are_the_broken_edits(witness):
    """The golden inputs tests/connections/k4-broken-<kind>-connection.json
    are the edits of BROKEN applied to the K4 rotation connection."""
    c = rotation_connection(complete_graph(4))
    nabla = {k: dict(v) for k, v in c.nabla.items()}
    BROKEN[witness](nabla)
    path = (Path(__file__).parent / "connections"
            / f"k4-broken-{BROKEN_FILES[witness]}-connection.json")
    assert json.loads(path.read_text()) == connection_to_dict(GraphConnection(c.graph, nabla))


def _k4_tables():
    c = rotation_connection(complete_graph(4))
    return c.graph, {k: dict(v) for k, v in c.nabla.items()}


def test_extra_key_on_a_reversed_table_is_a_domain_witness():
    # (1, 0) agrees with the inverse of (0, 1) on its whole star, so only
    # the closing length check of the reversed tables can catch the key
    graph, nabla = _k4_tables()
    nabla[(1, 0)][(2, 3)] = (0, 1)
    assert validate_connection(GraphConnection(graph, nabla)).witness == \
        "table domain wrong at (1, 0)"


@pytest.mark.parametrize("value", [None, (2, 3), (1, 2)],
                         ids=["none", "outside-target-star", "repeated"])
def test_bad_values_are_image_witnesses(value):
    graph, nabla = _k4_tables()
    assert nabla[(0, 1)][(0, 2)] == (1, 2)
    nabla[(0, 1)][(0, 3)] = value
    assert validate_connection(GraphConnection(graph, nabla)).witness == \
        "table image wrong at (0, 1)"
