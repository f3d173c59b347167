"""sin values and errors against a recorded golden set.

``data/sin_golden.json`` holds 344 (x, tol) pairs and, for each, the
``repr`` of ``sin(x, tol)`` or the error's type and message (and the
``repr`` of the bracket a floor or backstop error carries). The pairs are
every third op of the benchmark's invert batch for seed 1; x at the quarter
arc's level-0 lower arm ``inverse._HALF_PI_LO`` and one ulp either side;
x from 1e-12 to 1e-2 away from pi / 2 and from 0; the tols 0, -1, nan, inf,
5e-324, 1e-16, 1e-8 and 2 against x inside and outside [0, pi / 2], nan
among them; and arguments at or past the domain's ends. It was recorded
from the ``sin`` whose first ordinate is sin's degree-21 Taylor
polynomial. Do not regenerate the file to make this test pass; a difference
means ``sin`` changed.
"""

import json
from pathlib import Path

import pytest

from chordtrig import ConvergenceError, DomainError, sin

CASES = json.loads((Path(__file__).parent / "data" / "sin_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"{c['x']}@{c['tol']}" for c in CASES])
def test_sin_matches_golden(case):
    try:
        result = repr(sin(float(case["x"]), float(case["tol"])))
    except (ConvergenceError, DomainError) as err:
        result = f"{type(err).__name__}: {err}"
        if "enclosure" in case:
            assert repr(err.enclosure) == case["enclosure"]
        else:
            assert getattr(err, "enclosure", None) is None
    assert result == case["result"]
