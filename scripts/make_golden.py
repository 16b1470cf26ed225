"""Write the golden CLI reports that tests/test_golden.py compares against.

Each case is one ``groupoids --format json`` call: ``holonomy`` at
``--base`` 0 and 1, ``invariants`` and ``connection`` at ``--base`` 0
and 1 on every bundled corpus file, ``connection`` at ``--base`` 0 and 1
on the seeded random connections in ``tests/connections/`` and on the
single edge K2 there, ``connection``
at ``--base`` 0 on one broken K4 rotation connection per witness there,
``holonomy`` at ``--base`` 0 and 1 and ``invariants`` on the scrambled
cubical complexes in ``tests/complexes/``, ``holonomy`` at ``--base`` 0
on one broken cubical complex per input fault there, ``puzzle holonomy`` on a few
grid boards at holes 0, 1 and 3, ``puzzle reach`` between the states
in ``tests/states/`` and the bundled 15-puzzle pair (reachable and
unreachable pairs on the 1x5, 2x2, 2x3, 3x3 and 4x4 boards, most with
different holes, plus a label and a board mismatch), three bases out of
range, and ``hom``:
the edge K2 into K1 to K9 with every report, a few other graph pairs
with ``fvector,euler``, and three bad inputs (a free action over a
non-edge, an unknown report item, and a complex over the enumeration
budget).  A case records the argument list, the exit code, stdout, and
the ``error:`` lines of stderr (the ``elapsed`` line is dropped).  Corpus
files are written as ``corpus/<name>``, test inputs by their path from
the repository root.

Run it on the commit whose output the tests should pin:

    PYTHONPATH=src python scripts/make_golden.py tests/golden
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

from groupoids.cli import main
from groupoids.corpus import bundled_dir

ROOT = Path(__file__).resolve().parents[1]
# random connections on K10 and K14 whose holonomy is the symmetric group
CONNECTIONS = ("tests/connections/k10-random-connection.json",
               "tests/connections/k14-random-connection.json")
# the single edge, whose stars have one slot each
K2 = "tests/connections/k2-connection.json"
# the K4 rotation connection with one axiom broken, one file per witness
BROKEN = tuple(f"tests/connections/k4-broken-{kind}-connection.json"
               for kind in ("missing", "domain", "image", "crossing", "inverse"))
# cubical complexes of dimension 3 and 4 with scrambled corner orders
COMPLEXES = ("tests/complexes/skel4-3-scrambled.json",
             "tests/complexes/skel5-4-scrambled.json",
             "tests/complexes/cubes2x2x2-scrambled.json")
# cubical complexes with one input fault each, from the corner keys to the cell structure
BROKEN_CUBES = tuple(f"tests/complexes/broken-{fault}.json"
                     for fault in ("key", "missing-corner", "mixed-dims", "list-cube",
                                   "bool-vertex", "corner-collision", "same-vertex-set",
                                   "twisted-square", "dim-mismatch", "empty"))
BOARDS = ("2x2", "2x3", "3x3", "3x4", "4x4", "1x5", "5x5", "6x6", "3x7")
HOLES = (0, 1, 3)
# (board, from, to) for ``puzzle reach``; a bare name is tests/states/<name>-state.json
REACH = (("1x5", "1x5-hole0", "1x5-hole4"), ("1x5", "1x5-hole0", "1x5-swapped"),
         ("2x2", "2x2-ordered", "2x2-walked"), ("2x2", "2x2-ordered", "2x2-swapped"),
         ("2x2", "2x2-walked", "2x2-swapped"),
         ("2x3", "2x3-ordered", "2x3-walked"), ("2x3", "2x3-walked", "2x3-swapped"),
         ("3x3", "3x3-ordered", "3x3-walked"), ("3x3", "3x3-ordered", "3x3-swapped"),
         ("4x4", "corpus/fifteen-ordered-state.json", "corpus/fifteen-swapped-state.json"),
         ("4x4", "corpus/fifteen-ordered-state.json", "4x4-walked"),
         ("4x4", "4x4-walked", "4x4-swapped"),
         ("2x2", "2x2-ordered", "2x2-lettered"), ("2x2", "2x2-ordered", "1x5-hole0"))
# (G, H) pairs for the f-vector and Euler characteristic reports
HOM_PAIRS = (("c5", "k3"), ("c5", "k4"), ("p3", "k4"), ("k3", "k4"), ("c4", "c5"))


def cases() -> dict[str, list[list[str]]]:
    names = sorted(p.name for p in bundled_dir().glob("*.json"))
    out: dict[str, list[list[str]]] = {"holonomy": [], "invariants": [], "connection": []}
    for name in names:
        path = f"corpus/{name}"
        out["invariants"].append(["invariants", path])
        for base in ("0", "1"):
            out["holonomy"].append(["holonomy", path, "--base", base])
            out["connection"].append(["connection", path, "--base", base])
    out["connection"] += [["connection", path, "--base", base]
                          for path in CONNECTIONS for base in ("0", "1")]
    out["connection"] += [["connection", K2, "--base", base] for base in ("0", "1")]
    out["connection"] += [["connection", path, "--base", "0"] for path in BROKEN]
    for path in COMPLEXES:
        out["invariants"].append(["invariants", path])
        out["holonomy"] += [["holonomy", path, "--base", base] for base in ("0", "1")]
    out["holonomy"] += [["holonomy", path, "--base", "0"] for path in BROKEN_CUBES]
    out["puzzle"] = [["puzzle", "holonomy", "--board", board, "--base", str(hole)]
                     for board in BOARDS for hole in HOLES]
    out["puzzle"].append(["puzzle", "holonomy", "--board", "2x2", "--base", "4"])
    state = (lambda name: name if name.startswith("corpus/")
             else f"tests/states/{name}-state.json")
    out["puzzle"] += [["puzzle", "reach", "--board", board, "--from", state(a), "--to", state(b)]
                      for board, a, b in REACH]
    out["holonomy"].append(["holonomy", "corpus/c3.json", "--base", "5"])
    out["connection"].append(["connection", "corpus/k4-rotation-connection.json", "--base", "9"])
    out["hom"] = [["hom", "--g", "k2", "--h", f"k{n}", "--report", "fvector,euler,free-action"]
                  for n in range(1, 10)]
    out["hom"] += [["hom", "--g", g, "--h", h, "--report", "fvector,euler"] for g, h in HOM_PAIRS]
    out["hom"] += [["hom", "--g", "c5", "--h", "k3", "--report", "free-action"],
                   ["hom", "--g", "k2", "--h", "k3", "--report", "bogus"],
                   ["hom", "--g", "k2", "--h", "k30"]]
    return out


def run_case(argv: list[str]) -> dict:
    """One in-process CLI call on a case's argument list."""
    real = [str(bundled_dir() / a[len("corpus/"):]) if a.startswith("corpus/")
            else str(ROOT / a) if a.startswith("tests/") else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", *real])
    errors = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("elapsed "))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": errors}


def write(target: Path) -> None:
    target.mkdir(parents=True, exist_ok=True)
    for command, argvs in cases().items():
        records = [run_case(argv) for argv in argvs]
        (target / f"{command}.json").write_text(
            json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("target", nargs="?", default="tests/golden",
                        help="output directory (default: tests/golden)")
    write(Path(parser.parse_args().target))
