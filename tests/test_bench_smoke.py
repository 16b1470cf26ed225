"""Smoke test of the benchmark in `bench/`.

The benchmark's oracle self-check and one round of each workload run
from the repository root in fresh interpreters, so a result the
benchmark would count as incorrect or failed shows up here first.
`bench/run.py --seconds 0` sets the workload up, makes the discarded
warm-up pass and one timed pass, and checks every result.  With
`--trace 1` each operation runs through timed spans that call into the
package's own layers (the dual graph, the face dict, the stabilizer
chain), so those calls are smoke-tested as well.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")  # the benchmark's oracles

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv: str) -> str:
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.strip().splitlines()[-1]


def test_oracle_selfcheck_passes():
    assert _run("bench/selfcheck.py", "--seed", "0") == "selfcheck seed 0: ok"


@pytest.mark.parametrize("workload", ["complexes", "chains"])
def test_one_round_is_correct_with_no_failed_operation(workload):
    result = json.loads(_run("bench/run.py", "--workload", workload, "--seed", "1",
                             "--seconds", "0"))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("workload", ["complexes", "chains"])
def test_one_traced_round_is_correct_with_no_failed_operation(workload):
    result = json.loads(_run("bench/run.py", "--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", "1"))
    assert result["correct"] is True
    assert result["failed"] == 0
