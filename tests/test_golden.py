"""CLI stdout bytes and exit codes against the recorded golden sets.

The two golden files are ``replay_golden.GOLDEN``. This module runs each of
their 49 argv in-process; ``replay_golden.py``, which CI runs on the
installed console script, replays the same list in child processes.

- ``data/cli_golden.json`` holds, for a fixed argv set (``pi``, ``arc``,
  ``arcsin``, ``sin``, ``sector``, ``ratio`` and ``additivity`` in JSON and
  CSV at two tolerances, plus two argv with the retired ``--max-iter``
  flag, which exit 64 with no stdout), the exit code and the exact stdout
  that the CLI printed before its ladder code was consolidated; the four
  ``sin`` argv come from the ``sin`` whose first ordinate is its degree-21
  Taylor polynomial.
- ``data/partition_golden.json`` holds, for ``partition-compare`` on a
  fixed argv set (the quarter arc and three interior or near-top arcs at
  ``--tol 1e-6`` and ``1e-9`` in JSON and CSV, the quarter arc at
  ``--tol 1e-12``, where the grids refine, and at ``--tol 1e-17``, below
  the binary64 floor), the exit code and the exact stdout. The grid kernels
  run on the standard library alone, so these bytes do not depend on the
  Python version or on whether numpy is installed.

Do not regenerate either file to make this test pass; a difference means
the CLI output changed.
"""

import pytest

from chordtrig.cli import run

from replay_golden import cases

CASES = cases()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_stdout_matches_golden(case, capsys):
    code = run(list(case["argv"]))
    assert code == case["exit_code"]
    assert capsys.readouterr().out == case["stdout"]
