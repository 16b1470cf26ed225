"""The CLI's JSON reports and exit codes, byte for byte, against golden files.

The files in tests/golden/ were written by scripts/make_golden.py; a
change that alters any report must regenerate them on purpose.
"""

import importlib.util
import json
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
