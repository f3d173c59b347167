"""partition-compare stdout bytes and exit codes against a recorded golden set.

``data/partition_golden.json`` holds, for a fixed argv set (the quarter arc
and three interior or near-top arcs at ``--tol 1e-6`` and ``1e-9`` in JSON
and CSV, the quarter arc at ``--tol 1e-12``, where the grids refine, and at
``--tol 1e-17``, below the binary64 floor),
the exit code and the exact stdout of ``partition-compare``. The grid
kernels run on the standard library alone, so these bytes do not depend on
the Python version or on whether numpy is installed. Do not regenerate the
file to make this test pass; a difference means the CLI output changed.
"""

import json
from pathlib import Path

import pytest

from chordtrig.cli import run

CASES = json.loads((Path(__file__).parent / "data" / "partition_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_stdout_matches_golden(case, capsys):
    code = run(list(case["argv"]))
    assert code == case["exit_code"]
    assert capsys.readouterr().out == case["stdout"]
