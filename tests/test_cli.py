import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from groupoids.cli import build_parser, main
from groupoids.corpus import bundled_dir
from groupoids.serialize import complex_to_dict, load_complex, parse_complex


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def corpus_file(name: str) -> str:
    return str(bundled_dir() / name)


def test_holonomy_command_text(capsys):
    code, out = run(capsys, "holonomy", corpus_file("c3.json"))
    assert code == 0
    assert "order 2" in out
    assert "cyclic(2)" in out


def test_holonomy_command_json_stable(capsys):
    code1, out1 = run(capsys, "--format", "json", "holonomy",
                      corpus_file("tetrahedron-boundary.json"))
    code2, out2 = run(capsys, "--format", "json", "holonomy",
                      corpus_file("tetrahedron-boundary.json"))
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["results"]["order"] == "6"
    assert report["input"]


def test_holonomy_tribar(capsys):
    code, out = run(capsys, "--format", "json", "holonomy", corpus_file("tribar.json"))
    assert code == 0
    assert json.loads(out)["results"]["tag"] == "cyclic(4)"


def test_invariants_command(capsys):
    code, out = run(capsys, "--format", "json", "invariants",
                    corpus_file("quotient-example.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["i"] == 0
    assert results["nacl"] == 1
    assert results["witness_odd_cycle"]

    code, out = run(capsys, "--format", "json", "invariants",
                    corpus_file("grid3x3.json"))
    results = json.loads(out)["results"]
    assert (results["i"], results["nacl"]) == (0, 0)

    code, out = run(capsys, "--format", "json", "invariants",
                    corpus_file("twisted-strip.json"))
    results = json.loads(out)["results"]
    assert (results["i"], results["nacl"]) == (1, 1)


def test_puzzle_reach_command(capsys):
    code, out = run(capsys, "puzzle", "reach", "--board", "4x4",
                    "--from", corpus_file("fifteen-ordered-state.json"),
                    "--to", corpus_file("fifteen-swapped-state.json"))
    assert code == 0
    assert "unreachable" in out
    code, out = run(capsys, "puzzle", "reach", "--board", "4x4",
                    "--from", corpus_file("fifteen-ordered-state.json"),
                    "--to", corpus_file("fifteen-ordered-state.json"))
    assert code == 0
    assert out.strip() == "reachable"


def test_puzzle_holonomy_command(capsys):
    code, out = run(capsys, "--format", "json", "puzzle", "holonomy",
                    "--board", "2x2")
    assert code == 0
    assert json.loads(out)["results"]["order"] == "3"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_puzzle_holonomy_order_past_the_int_digit_limit(capsys, fmt):
    # 1599!/2 has 4,431 digits, past the 4,300 that str(int) allows
    code, out = run(capsys, "--format", fmt, "puzzle", "holonomy", "--board", "40x40")
    assert code == 0
    if fmt == "json":
        order = json.loads(out)["results"]["order"]
    else:
        order = out.split()[2]
        assert out.startswith("holonomy order ") and "(alternating)" in out
    assert len(order) == 4431 and order.isdigit()
    assert int(Decimal(order)) == math.factorial(1599) // 2


@pytest.mark.parametrize("argv,want", [(["puzzle", "holonomy", "--board", "3x3"], 0),
                                       (["puzzle", "holonomy", "--board", "1x1"], 2)])
def test_python_dash_m_passes_the_exit_code_on(argv, want):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "groupoids", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == want
    if want == 0:
        assert done.stdout == "holonomy order 20160 (alternating) at hole 0\n"
    else:
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_hom_command(capsys):
    code, out = run(capsys, "--format", "json", "hom", "--g", "k2", "--h", "k4",
                    "--report", "fvector,euler,free-action")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["euler"] == 2
    assert results["free_action"] is True
    # free-action over a non-edge test graph is an input error
    code, _ = run(capsys, "hom", "--g", "c5", "--h", "k3",
                  "--report", "free-action")
    assert code == 2


@pytest.mark.parametrize("g,h,cells", [("k0", "k3", 1), ("p0", "k3", 1), ("k0", "k0", 1),
                                        ("k1", "k0", 0)])
def test_hom_from_the_empty_graph_is_one_point(capsys, g, h, cells):
    code, out = run(capsys, "--format", "json", "hom", "--g", g, "--h", h)
    assert code == 0
    results = json.loads(out)["results"]
    want = ([1], 1) if cells else ([], 0)
    assert (results["cells"], results["fvector"], results["euler"]) == (cells, *want)


@pytest.mark.parametrize("g,report", [
    ("c5", "fvector,euler"),
    ("p3", "fvector,euler"),
    ("k1", "fvector,euler"),
    ("k2", "fvector,euler,free-action"),
    ("p2", "fvector,euler,free-action"),
], ids=["c5", "p3", "k1", "k2", "p2"])
def test_hom_default_report_asks_free_action_only_of_two_vertices(capsys, g, report):
    default = run(capsys, "--format", "json", "hom", "--g", g, "--h", "k4")
    assert default[0] == 0
    assert default == run(capsys, "--format", "json", "hom", "--g", g, "--h", "k4",
                          "--report", report)


def test_connection_command(capsys):
    code, out = run(capsys, "--format", "json", "connection",
                    corpus_file("c4-connection.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["valid"] is True
    assert results["order"] == "1"



@pytest.mark.parametrize("base", ["5", "-1"])
def test_holonomy_base_not_an_object_is_input_error(capsys, base):
    code = main(["holonomy", corpus_file("c3.json"), "--base", base])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: base {base} is not an object")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("base", ["9", "4", "-1"])
def test_connection_base_not_a_vertex_is_input_error(capsys, base):
    code = main(["connection", corpus_file("k4-rotation-connection.json"), "--base", base])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: base {base} is not a vertex")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err

def test_corpus_command(capsys):
    code, out = run(capsys, "corpus", "--seed", "7", "--count", "25")
    assert code == 0
    assert "I<=NaCl held 25/25" in out


def test_corpus_count_below_zero_is_input_error(capsys):
    assert main(["corpus", "--count", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --count must be at least 0, not -1\n"
    code, out = run(capsys, "corpus", "--count", "0")
    assert code == 0 and "I<=NaCl held 0/0" in out


@pytest.mark.parametrize("board", ["-2x-3", "0x5", "3x0", "-1x4"])
def test_board_dimensions_below_one_are_input_error(capsys, board):
    assert main(["puzzle", "holonomy", f"--board={board}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad board {board!r}: the dimensions must be positive\n"


def test_undecided_board_past_the_slot_budget_is_input_error(capsys):
    assert main(["puzzle", "holonomy", "--board", "1x2000", "--base", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a board of 2000 cells exceeds the budget of "
                            "1000000 hole-piece slots\n")


def test_main_calls_share_one_parser(capsys):
    build_parser.cache_clear()
    assert run(capsys, "hom", "--g", "k2", "--h", "k3")[0] == 0
    assert run(capsys, "hom", "--g", "k2", "--h", "k3")[0] == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_corpus_command_json_stable(capsys):
    _, out1 = run(capsys, "--format", "json", "corpus", "--seed", "3", "--count", "10")
    _, out2 = run(capsys, "--format", "json", "corpus", "--seed", "3", "--count", "10")
    assert out1 == out2


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "simplicial",\n  "facets": [[0, 1]')
    code = main(["holonomy", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_invalid_complex_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "simplicial", "facets": [[0, 1, 2], [0, 1]]}))
    assert main(["holonomy", str(bad)]) == 2


def test_rejected_cube_pair_names_both_cells(tmp_path, capsys):
    # two stacked 3-cubes whose shared square has two corners swapped
    first = {f"{i & 1}{i >> 1 & 1}{i >> 2}": i for i in range(8)}
    second = {f"{i & 1}{i >> 1 & 1}{i >> 2}": 4 + i for i in range(8)}
    second["010"], second["110"] = 7, 6
    bad = tmp_path / "twisted.json"
    bad.write_text(json.dumps({"kind": "cubical", "dim": 3, "cubes": [first, second]}))
    code = main(["holonomy", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    for part in ("[0, 1, 2, 3, 4, 5, 6, 7]", "[4, 5, 6, 7, 8, 9, 10, 11]", "[4, 5, 6, 7]"):
        assert part in captured.err


@pytest.mark.parametrize("obj,bad", [
    ({"kind": "cubical", "dim": 1, "cubes": [{"0": 0, "1": True}]}, "True"),
    ({"kind": "cubical", "dim": 1, "cubes": [{"0": 0, "1": 1.7}]}, "1.7"),
    ({"kind": "cubical", "dim": 1, "cubes": [{"0": 0, "1": "1"}]}, "'1'"),
    ({"kind": "simplicial", "facets": [[0, True]]}, "True"),
    ({"kind": "simplicial", "facets": [["a", "b"]]}, "'a'"),
], ids=["cubical-true", "cubical-float", "cubical-str", "simplicial-true", "simplicial-str"])
def test_non_integer_vertex_id_is_input_error(tmp_path, capsys, obj, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code = main(["holonomy", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert f"vertex id {bad} is not an integer" in captured.err


@pytest.mark.parametrize("dim,shown", [(True, "True"), (1.0, "1.0"), ("1", "'1'")],
                         ids=["true", "float", "str"])
def test_non_integer_cubical_dim_is_input_error(tmp_path, capsys, dim, shown):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "cubical", "dim": dim, "cubes": [{"0": 0, "1": 1}]}))
    code = main(["holonomy", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert f"cubical dim {shown} is not an integer" in captured.err


def assert_one_line_input_error(capsys, code, message):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("state,bad", [
    ({"hole": [1], "placement": {"1": 0, "2": 2, "3": 3}}, "[1]"),
    ({"hole": 3.0, "placement": {"1": 0, "2": 1, "3": 2}}, "3.0"),
    ({"hole": True, "placement": {"1": 0, "2": 2, "3": 3}}, "True"),
    ({"hole": 3, "placement": {"1": 2.7, "2": 0, "3": 1}}, "2.7"),
    ({"hole": 3, "placement": {"1": True, "2": 0, "3": 2}}, "True"),
    ({"hole": 3, "placement": {"1": "0", "2": 1, "3": 2}}, "'0'"),
], ids=["hole-list", "hole-float", "hole-true", "cell-float", "cell-true", "cell-str"])
def test_non_integer_puzzle_cell_is_input_error(tmp_path, capsys, state, bad):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    for src, dst in ((path, corpus_file("fifteen-ordered-state.json")),
                     (corpus_file("fifteen-ordered-state.json"), path)):
        code = main(["puzzle", "reach", "--board", "2x2", "--from", str(src), "--to", str(dst)])
        assert_one_line_input_error(
            capsys, code, f"invalid puzzle state: cell {bad} is not an integer")


def test_malformed_puzzle_state_is_input_error(tmp_path, capsys):
    path = tmp_path / "state.json"
    for state in ([1], {"hole": 3}, {"hole": 3, "placement": [0, 1, 2]}):
        path.write_text(json.dumps(state))
        code = main(["puzzle", "reach", "--board", "2x2", "--from", str(path), "--to", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: invalid puzzle state: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("hole", [4, 7, -1])
def test_puzzle_hole_off_the_board_is_input_error(tmp_path, capsys, hole):
    """Four pieces fill the 2x2 board, so only the hole's range is wrong."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"hole": hole, "placement": {"1": 0, "2": 1, "3": 2, "4": 3}}))
    code = main(["puzzle", "reach", "--board", "2x2", "--from", str(path), "--to", str(path)])
    assert_one_line_input_error(capsys, code, f"no cell {hole}")


@pytest.mark.parametrize("argv", [["hom", "--g=", "--h", "k3"], ["hom", "--g", "k2", "--h="]],
                         ids=["g", "h"])
def test_empty_graph_name_is_input_error(capsys, argv):
    assert_one_line_input_error(capsys, main(argv), "cannot parse graph name ''")


def test_bundled_corpus_round_trips():
    for path in sorted(bundled_dir().glob("*.json")):
        if path.name.endswith("-state.json") or path.name.endswith("-connection.json"):
            continue
        K = load_complex(path)
        wire = complex_to_dict(K)
        again = parse_complex(wire)
        assert complex_to_dict(again) == wire, path.name


def test_corpus_dir_override(tmp_path, monkeypatch, capsys):
    src = bundled_dir() / "c3.json"
    (tmp_path / "c3.json").write_text(src.read_text())
    monkeypatch.setenv("GROUPOID_CORPUS_DIR", str(tmp_path))
    code, out = run(capsys, "corpus", "--seed", "1", "--count", "5")
    assert code == 0
    assert "round trip 1/1" in out


@pytest.mark.parametrize("g,h,message", [
    ("k2", "k2000", "candidate support count exceeds the enumeration budget"),
    ("k2", "k99999999999999999999", "candidate support count exceeds the enumeration budget"),
    # one candidate support, but building the graph alone would exhaust memory
    ("k99999999999999999999", "k1", "a graph on 99999999999999999999 vertices exceeds the "
                                    "enumeration budget"),
    ("p0", "k5000", "a graph on 5000 vertices exceeds the enumeration budget"),
    # inside the candidate budget, but 2^23 - 1 cells
    ("k1", "k23", "the complex has more than 1000000 cells"),
])
def test_oversized_graph_fails_fast(capsys, g, h, message):
    started = time.monotonic()
    code = main(["hom", "--g", g, "--h", h])
    assert time.monotonic() - started < 0.5
    assert_one_line_input_error(capsys, code, message)


@pytest.mark.parametrize("obj,message", [
    ({"edges": [[0, 1.5]], "nabla": {}}, "vertex 1.5 is not an integer"),
    ({"edges": [[0, 1]], "nabla": {"0,1": []}}, "nabla must map each oriented edge to an object"),
    ({"edges": [[0, True], [1, 2]], "nabla": {}}, "vertex True is not an integer"),
    ({"edges": [[0, 1]], "nabla": {"0,1": {"0,1": 5}}}, "oriented edge 5 is not a string 'x,y'"),
    ({"edges": [[0, 5]], "nabla": {}}, "vertex ids are not 0..1"),
    ({"edges": [[0, 1]], "nabla": {"0,1_0": {}}}, "oriented edge '0,1_0' is not a string 'x,y'"),
    ({"edges": [[0, 1]], "nabla": {" 1,+0": {}}}, "oriented edge ' 1,+0' is not a string 'x,y'"),
    ({"edges": [[0, 1]], "nabla": {"0,1": {"0,\u0661": "1,0"}}},
     "oriented edge '0,\u0661' is not a string 'x,y'"),
    ({"edges": [], "nabla": {}}, "the connection has no edges"),
], ids=["float-vertex", "list-table", "true-vertex", "int-target", "sparse-ids",
        "underscore-key", "signed-key", "non-ascii-digit", "no-edges"])
def test_malformed_connection_is_input_error(tmp_path, capsys, obj, message):
    path = tmp_path / "connection.json"
    path.write_text(json.dumps(obj))
    assert_one_line_input_error(capsys, main(["connection", str(path)]),
                                f"invalid connection: {message}")


# one object naming one key twice; json.dumps cannot write this
_TWO_SQUARES = ('{"kind": "cubical", "dim": 2, "cubes": ['
                '{"00": 0, "10": 1, "01": 2, "11": 3}, '
                '{"00": 1, "10": 4, "01": 3, "11": 6, "11": 5}]}')


@pytest.mark.parametrize("argv,name,text,key", [
    (["holonomy"], "squares.json", _TWO_SQUARES, "'11'"),
    (["invariants"], "squares.json", _TWO_SQUARES, "'11'"),
    (["connection"], "connection.json",
     '{"edges": [[0, 1]], "nabla": {"0,1": {"0,1": "1,0"}, "1,0": {"1,0": "0,1"}, '
     '"0,1": {"0,1": "1,0"}}}', "'0,1'"),
    (["puzzle", "reach", "--board", "2x2", "--to"], "state.json",
     '{"hole": 3, "placement": {"1": 0, "2": 1, "3": 2, "1": 2}}', "'1'"),
], ids=["holonomy", "invariants", "connection", "puzzle-state"])
def test_duplicate_object_key_is_input_error(tmp_path, capsys, argv, name, text, key):
    path = tmp_path / name
    path.write_text(text)
    args = [*argv, str(path)] + (["--from", str(path)] if argv[0] == "puzzle" else [])
    assert_one_line_input_error(capsys, main(args), f"{path}: duplicate key {key}")


def test_non_canonical_edge_alias_is_input_error(tmp_path, capsys):
    """A good table under "00,1" must not stand in for a broken "0,1"."""
    good = json.loads((bundled_dir() / "k4-rotation-connection.json").read_text())
    broken = json.loads((Path(__file__).parent / "connections"
                         / "k4-broken-crossing-connection.json").read_text())
    nabla = {}
    for edge, table in good["nabla"].items():
        if edge == "0,1":
            nabla["0,1"] = broken["nabla"]["0,1"]
            edge = "00,1"
        nabla[edge] = table
    path = tmp_path / "aliased-connection.json"
    path.write_text(json.dumps({"edges": good["edges"], "nabla": nabla}))
    assert_one_line_input_error(capsys, main(["connection", str(path)]),
                                "invalid connection: oriented edge '00,1' is not a string 'x,y'")
    # the broken table alone is still caught
    broken_path = tmp_path / "broken-connection.json"
    broken_path.write_text(json.dumps(broken))
    code, out = run(capsys, "connection", str(broken_path))
    assert code == 0 and out.startswith("valid: False")
