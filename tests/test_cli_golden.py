"""CLI stdout bytes and exit codes against a recorded golden set.

``data/cli_golden.json`` holds, for a fixed argv set (``pi``, ``arc``,
``arcsin``, ``sin``, ``sector``, ``ratio`` and ``additivity`` in JSON and
CSV at two tolerances, plus two argv with the retired ``--max-iter`` flag,
which exit 64 with no stdout), the exit code and the exact stdout that the
CLI printed before its ladder code was consolidated; the four ``sin`` argv
come from the ``sin`` whose first ordinate is its degree-21 Taylor
polynomial.
``partition-compare`` has a golden file of its own,
``data/partition_golden.json`` (``test_partition_golden.py``). Do not
regenerate the file to make this test pass; a difference means the CLI
output changed.
"""

import json
from pathlib import Path

import pytest

from chordtrig.cli import run

CASES = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_stdout_matches_golden(case, capsys):
    code = run(list(case["argv"]))
    assert code == case["exit_code"]
    assert capsys.readouterr().out == case["stdout"]
