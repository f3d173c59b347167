"""arcsin as an arc length, pi from quadrant symmetry, sin by inversion.

arcsin(y) is the length of the arc from (sqrt(1 - y^2), y) down to (1, 0),
so it inherits the certified bracket of the bisection scheme. pi is twice
the quarter arc, 2 * arcsin(1), with both bracket arms doubled exactly, in
:func:`pi_constant` alone; :func:`pi_run` adds the quarter arc's report.
The quarter arc's ladder does not depend on the tolerance, which only picks
the level where a run stops, and every closure run stops by level 4
(:mod:`chordtrig.arclength`): its records of levels 0 to 4 are run once, on
import, and pi and sin read their arms there instead of running it again.
sin inverts arcsin: monotonicity turns arcsin's certified arms at an
ordinate into a side of sin x, so the ordinate interval always holds sin x.
"""

import math

from . import arclength
from ._value import Value
from .arclength import arc_length, arms, ladder_levels
from .errors import DomainError, PrecisionFloorError, as_tolerance, check_real
from .geometry import point_from_ordinate
from .report import STOP_TOLERANCE, ConvergenceReport, Enclosure

_Q = point_from_ordinate(0.0)
_TOP = point_from_ordinate(1.0)

# The quarter arc's level records (l_m, h_m, L_m, lo, hi) of levels 0 .. 4,
# the only run of its ladder: every closure run ends by level 4.
_QUARTER = tuple(ladder_levels(_TOP, _Q, 4))

# Its widened lower arm at level 0, 2.07e-5 below pi / 2: a bound on pi / 2
# that the ladder itself produces. sin reads the quarter arc only for an x
# above it.
_HALF_PI_LO = _QUARTER[0][3]


class TangentIntersection(Value):
    """Vector (u, v) from the tangent point Y0 to the intersection Z of the
    tangent line at Y0 with the ray through Y.

    Perpendicularity u*x0 + v*y0 = 0 holds by construction; together with
    the ray relation (x0 + u)/x = (y0 + v)/y it pins Z down.
    """

    __slots__ = _fields = ("u", "v")


def _quarter_arms(tol: float) -> tuple[float, float, tuple]:
    """``arms(1.0, 0.0, tol)``, read from ``_QUARTER``: the arms of the first
    record, at a level up to 4 and the backstop ``arclength._MAX_LEVEL``,
    that is at most ``tol`` wide, and the records up to it.

    A tol that is not a float, and a float no record meets (one that is not
    positive, NaN, below the floor or beyond a lowered backstop), goes to
    :func:`~chordtrig.arclength.arms`, which checks it and raises for it,
    with the message, bracket and report its own.
    ``arms`` also stops at a level whose floor is above ``tol``; on this arc
    the first record that meets ``tol`` comes before any such level
    (``tests/test_inverse.py`` checks every tol where either side can
    change).
    """
    if type(tol) is float and tol > 0.0:  # arms checks any other tol
        for m in range(min(len(_QUARTER), arclength._MAX_LEVEL + 1)):
            _, _, _, lo, hi = _QUARTER[m]
            if hi - lo <= tol:
                return lo, hi, _QUARTER[:m + 1]
    return arms(1.0, 0.0, tol)


def arcsin(y: float, tol: float) -> tuple[Enclosure, ConvergenceReport]:
    """Certified enclosure of arcsin(y) for y in [0, 1]."""
    return arc_length(point_from_ordinate(y), _Q, tol)


def pi_run(tol: float) -> tuple[Enclosure, ConvergenceReport]:
    """:func:`pi_constant`'s enclosure of pi beside the report of the
    quarter-arc run it doubles, whose levels are the import-time records
    up to the one that meets ``tol``: the report ``arc_length`` of the
    quarter arc returns. pi is doubled in :func:`pi_constant` alone, and
    neither read of the records runs a ladder."""
    return pi_constant(tol), ConvergenceReport(1.0, 0.0, tol, STOP_TOLERANCE,
                                               _quarter_arms(tol)[2])


def pi_constant(tol: float) -> Enclosure:
    """Certified enclosure of pi: the quarter-arc bracket with both arms doubled.

    Arc lengths are additive and the two quarter arcs of the upper
    semicircle are mirror images, so the semicircle length is twice the
    quarter length. Width is at most 2 * tol. A ``tol`` below the quarter
    arc's binary64 floor raises ``PrecisionFloorError``. It doubles the
    bare arms of the quarter-arc run, read from its import-time records,
    so it runs no ladder and builds no report; :func:`pi_run` returns this
    enclosure with that run's report.
    """
    lo, hi, _ = _quarter_arms(tol)
    return Enclosure(2.0 * lo, 2.0 * hi)


def sin(x: float, tol: float) -> float:
    """The ordinate y whose arc length to (1, 0) is ``x``, to within ``tol``.

    Each iterate y gets one arcsin run at ``tol``, on the bare ordinates y
    and 0 (no point is built: the loop keeps y strictly inside its interval
    (y_lo, y_hi), a part of [0, 1]), and the run's arms alone decide:
    arcsin is increasing, so an upper arm at most x makes y the low end
    y_lo of an interval that holds sin x, a lower arm at least x its
    high end y_hi, and arms around x return y, as |y - sin x| <=
    |arcsin(y) - x| <= ``tol`` (sin is 1-Lipschitz). An interval at most
    ``tol`` wide returns its midpoint. The first y is sin's Taylor
    polynomial of degree 21, whose truncation error on [0, pi / 2] is below
    (pi / 2)^23 / 23! ~ 1.25e-18: it lies within a few ulps of sin x, so the
    first run's arms usually fall around x and return it. It only places
    that run; the arms alone certify. The next y turns (sqrt(1 - y^2), y)
    by x minus the arms' midpoint (cos and sin as short polynomials); a
    step below ``tol`` / 2 is lengthened to that, so the next arms fall
    across sin x. Every y, the first included, that reaches y_hi = 1 stops
    ``tol`` / 2 below it, and one that leaves the interval, or follows two
    runs that did not halve it, bisects it, so at least every third run
    bisects or halves it and the loop ends. A ``tol`` below arcsin's
    binary64 floor at an iterate raises ``PrecisionFloorError``.

    Two ends need no arcsin. The chord, the arc and the tangent give
    y <= x <= y / sqrt(1 - y^2), so x (1 - x^2) <= sin x <= x: x itself is
    returned once x^3 <= tol / 2, and 0 once x <= tol. And x within w of
    pi / 2, w the quarter arc's bracket width, has 1 - sin x <= w^2 / 2.
    The quarter arc's bracket at ``tol``, which only this exit and the
    domain check read, is read from its import-time records (no ladder
    runs) only for x outside [0, ``_HALF_PI_LO``]: up to that level-0 lower
    arm x is in the domain and short of the bracket's midpoint. A ``tol``
    that is a bool, not a real number, or not positive raises
    ``DomainError`` first (:func:`~chordtrig.errors.as_tolerance`), and then
    an ``x`` that is a bool or not a real number
    (:func:`~chordtrig.errors.check_real`).
    """
    if type(tol) is not float or not tol > 0.0:
        as_tolerance(tol)
    if type(x) is not float:
        check_real(x, "argument")
    top_hi = None
    if not 0.0 <= x <= _HALF_PI_LO:
        try:
            top_lo, top_hi, _ = _quarter_arms(tol)
        except PrecisionFloorError as err:  # its bracket still bounds pi / 2
            top_lo, top_hi = err.enclosure.lo, err.enclosure.hi
        if not 0.0 <= x <= top_hi:
            raise DomainError(
                f"argument must lie in [0, {top_hi!r}] (a quarter turn), got {x!r}")
    if x <= tol:
        return 0.0
    if x * x * x <= 0.5 * tol:
        return x
    if top_hi is not None and x >= 0.5 * (top_lo + top_hi):
        width = top_hi - top_lo
        if 0.5 * width * width <= tol:
            return 1.0
    xx = x * x
    y = x * (1.0 - xx / 6.0 * (1.0 - xx / 20.0 * (1.0 - xx / 42.0 * (1.0 - xx / 72.0 * (
        1.0 - xx / 110.0 * (1.0 - xx / 156.0 * (1.0 - xx / 210.0 * (1.0 - xx / 272.0 * (
            1.0 - xx / 342.0 * (1.0 - xx / 420.0))))))))))
    y_lo, y_hi, slow = 0.0, 1.0, 0
    try:
        while y_hi - y_lo > tol:
            if y >= y_hi == 1.0:  # y reaches 1: stay inside the interval
                y = 1.0 - 0.5 * tol
            if slow == 2 or not y_lo < y < y_hi:
                y, slow = 0.5 * (y_lo + y_hi), 0
            lo, hi, _ = arms(y, 0.0, tol)
            half = 0.5 * (y_hi - y_lo)
            if lo < x < hi:
                return y
            y_lo, y_hi = (y, y_hi) if hi <= x else (y_lo, y)
            slow = slow + 1 if y_hi - y_lo > half else 0
            d = x - 0.5 * (lo + hi)
            step = d * (math.sqrt((1.0 - y) * (1.0 + y)) * (1.0 - d * d / 6.0)
                        - y * d / 2.0 * (1.0 - d * d / 12.0))
            y += step if abs(step) >= 0.5 * tol else math.copysign(0.5 * tol, d)
    except PrecisionFloorError as err:
        raise PrecisionFloorError(
            f"tol {tol!r} is below the binary64 floor of sin at {x!r}",
            enclosure=err.enclosure, report=err.report) from err
    return 0.5 * (y_lo + y_hi)


def tangent_intersection(y0: float, y: float) -> TangentIntersection:
    """Solve for Z, the intersection of the tangent at Y0 with the ray OY.

    Closed form: with d = x*x0 + y*y0 and c = x*y0 - x0*y,
    (u, v) = (y0 * c / d, -x0 * c / d). The pair (y0, y) = (0, 1) (in either
    order) makes the tangent and the ray parallel (d = 0), so no
    intersection exists and a ``DomainError`` is raised.
    """
    p0 = point_from_ordinate(y0)
    p = point_from_ordinate(y)
    d = p.x * p0.x + p.y * p0.y
    if d == 0.0:
        raise DomainError(
            "tangent line and ray are parallel for orthogonal endpoints (0,1)/(1,0)")
    c = p.x * p0.y - p0.x * p.y
    return TangentIntersection(u=p0.y * c / d, v=-p0.x * c / d)


def continuity_modulus(y0: float, y: float) -> float:
    """Area of the triangle Z-O-Y0 bounding |g(y) - g(y0)| for the sector map g.

    The triangle has base |Y0 Z| on the tangent line and height |O Y0| = 1,
    so its area is half the norm of the tangent-intersection vector.
    """
    ti = tangent_intersection(y0, y)
    return 0.5 * math.hypot(ti.u, ti.v)
