"""The north star's soundness table, as a deterministic sweep.

``arcsin`` runs on the north star's 2000 arguments,
``numpy.random.default_rng(1).random(2000)``, and ``pi_constant`` runs
once, at each tolerance of ``TOLS``. Every bracket they hand back, returned
or carried by a ``PrecisionFloorError``, must hold the exact value (mpmath,
``tests/oracles.py``); a floor error of ``pi_constant`` carries pi's
bracket, the quarter arc's doubled, which must hold pi. The sweep asserts 0
misses.
``FLOOR_ERRORS`` pins how many arguments raise ``PrecisionFloorError`` at
each tolerance. A change that moves a floor shows up as an edit to that
table; do not regenerate it to make this test pass.
"""

import numpy as np
import pytest

from chordtrig import arcsin, pi_constant
from chordtrig.errors import PrecisionFloorError
from oracles import exact_arc, holds

ARGUMENTS = [float(y) for y in np.random.default_rng(1).random(2000)]
TOLS = [1e-8, 1e-12, 1e-14, 1e-15, 1e-16]

# tol -> arcsin arguments that raise PrecisionFloorError
FLOOR_ERRORS = {1e-8: 0, 1e-12: 0, 1e-14: 0, 1e-15: 1428, 1e-16: 1948}
# tols below pi_constant's floor, 7.32e-15, where it raises
PI_BELOW_FLOOR = {1e-15, 1e-16}


def _missed(call, truth, carried_truth):
    """Whether one call's bracket misses ``truth``, or, if the call raises
    a floor error, whether the bracket it carries misses ``carried_truth``;
    and whether it raised."""
    try:
        enclosure = call()
    except PrecisionFloorError as err:
        return not holds(err.enclosure.lo, err.enclosure.hi, carried_truth), True
    return not holds(enclosure.lo, enclosure.hi, truth), False


@pytest.mark.parametrize("tol", TOLS)
def test_arcsin_brackets_hold_and_floor_errors_are_the_table(tol):
    misses = floors = 0
    for y in ARGUMENTS:
        truth = exact_arc(y)
        missed, raised = _missed(lambda: arcsin(y, tol)[0], truth, truth)
        misses += missed
        floors += raised
    assert (misses, floors) == (0, FLOOR_ERRORS[tol])


@pytest.mark.parametrize("tol", TOLS)
def test_pi_constant_holds_pi_above_its_floor(tol):
    """Below its floor the error carries pi's bracket, which holds pi too."""
    pi = 2 * exact_arc(1.0)
    assert _missed(lambda: pi_constant(tol), pi, pi) == (False, tol in PI_BELOW_FLOOR)
