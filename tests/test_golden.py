"""The CLI's JSON reports and exit codes, byte for byte, against golden files.

The files in tests/golden/ were written by scripts/make_golden.py; a
change that alters any report must regenerate them on purpose.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

RECORDS = [(command, record)
           for command in sorted(make_golden.cases())
           for record in json.loads((GOLDEN / f"{command}.json").read_text())]


def test_golden_files_cover_every_case():
    for command, argvs in make_golden.cases().items():
        stored = json.loads((GOLDEN / f"{command}.json").read_text())
        assert [r["argv"] for r in stored] == argvs


@pytest.mark.parametrize("command,record", RECORDS,
                         ids=[" ".join(r["argv"]) for _, r in RECORDS])
def test_cli_matches_golden(command, record):
    assert make_golden.run_case(record["argv"]) == record


@pytest.mark.parametrize("script", ["make_golden.py", "make_corpus.py", "make_test_complexes.py"])
def test_generator_help_writes_nothing(script, tmp_path):
    """``--help`` prints usage and writes no file, here or in the folders
    the scripts regenerate."""
    folders = (GOLDEN, ROOT / "tests" / "complexes", ROOT / "src" / "groupoids" / "corpus_data")

    def stamps():
        return {p: p.stat().st_mtime_ns for folder in folders for p in folder.iterdir()}

    before = stamps()
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
    assert list(tmp_path.iterdir()) == []
    assert stamps() == before
