"""The north star's soundness table, as a deterministic sweep.

On the north star's 2000 arguments y, ``numpy.random.default_rng(1)
.random(2000)``, three runs go at each tolerance of ``TOLS``: ``arcsin(y)``,
the sector over the same arc, ``sector_area(P(y), P(0))``, and the arc from
the top, ``arc_length(P(1), P(y))``. ``pi_constant`` runs once at each. Every
bracket they hand back, returned or carried by a ``PrecisionFloorError``,
must hold the exact value (mpmath, ``tests/oracles.py``, each computed once
per argument); a floor error of ``pi_constant`` carries pi's bracket, the
quarter arc's doubled, which must hold pi. The sweep asserts 0 misses.
``FLOOR_ERRORS`` pins how many arguments raise ``PrecisionFloorError`` at
each tolerance, for each run. A change that moves a floor shows up as an
edit to that table; do not regenerate it to make this test pass.
"""

import numpy as np
import pytest

from chordtrig import arc_length, arcsin, pi_constant, point_from_ordinate, sector_area
from chordtrig.errors import PrecisionFloorError
from oracles import exact_arc, exact_sector, holds

ARGUMENTS = [float(y) for y in np.random.default_rng(1).random(2000)]
TOLS = [1e-8, 1e-12, 1e-14, 1e-15, 1e-16]
TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)

# run -> (its bracket on the argument y at a tol, the exact value at y)
RUNS = {
    "arcsin": (lambda y, tol: arcsin(y, tol)[0], exact_arc),
    "sector": (lambda y, tol: sector_area(point_from_ordinate(y), Q, tol)[0],
               exact_sector),
    "arc_from_top": (lambda y, tol: arc_length(TOP, point_from_ordinate(y), tol)[0],
                     lambda y: exact_arc(1.0, y)),
}

# run -> {tol -> arguments that raise PrecisionFloorError}
FLOOR_ERRORS = {
    "arcsin": {1e-8: 0, 1e-12: 0, 1e-14: 0, 1e-15: 1428, 1e-16: 1948},
    "sector": {1e-8: 0, 1e-12: 0, 1e-14: 0, 1e-15: 1204, 1e-16: 1907},
    "arc_from_top": {1e-8: 0, 1e-12: 0, 1e-14: 0, 1e-15: 1912, 1e-16: 1999},
}
# tols below pi_constant's floor, 7.32e-15, where it raises
PI_BELOW_FLOOR = {1e-15, 1e-16}


@pytest.fixture(scope="module")
def exact():
    """run -> the exact value at each argument, computed once."""
    return {run: [truth(y) for y in ARGUMENTS] for run, (_, truth) in RUNS.items()}


def _missed(call, truth, carried_truth):
    """Whether one call's bracket misses ``truth``, or, if the call raises
    a floor error, whether the bracket it carries misses ``carried_truth``;
    and whether it raised."""
    try:
        enclosure = call()
    except PrecisionFloorError as err:
        return not holds(err.enclosure.lo, err.enclosure.hi, carried_truth), True
    return not holds(enclosure.lo, enclosure.hi, truth), False


def _sweep(run, tol, exact):
    """(misses, floor errors) of one run over the arguments at ``tol``."""
    call = RUNS[run][0]
    misses = floors = 0
    for y, truth in zip(ARGUMENTS, exact[run]):
        missed, raised = _missed(lambda: call(y, tol), truth, truth)
        misses += missed
        floors += raised
    return misses, floors


@pytest.mark.parametrize("tol", TOLS)
def test_arcsin_brackets_hold_and_floor_errors_are_the_table(tol, exact):
    assert _sweep("arcsin", tol, exact) == (0, FLOOR_ERRORS["arcsin"][tol])


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("run", ["sector", "arc_from_top"])
def test_sector_and_arc_from_the_top_hold_and_floor_errors_are_the_table(run, tol,
                                                                         exact):
    assert _sweep(run, tol, exact) == (0, FLOOR_ERRORS[run][tol])


@pytest.mark.parametrize("tol", TOLS)
def test_pi_constant_holds_pi_above_its_floor(tol):
    """Below its floor the error carries pi's bracket, which holds pi too."""
    pi = 2 * exact_arc(1.0)
    assert _missed(lambda: pi_constant(tol), pi, pi) == (False, tol in PI_BELOW_FLOOR)
