"""arcsin as an arc length, pi from quadrant symmetry, sin by inversion.

arcsin(y) is the length of the arc from (sqrt(1 - y^2), y) down to (1, 0),
so it inherits the certified bracket of the bisection scheme. pi is twice
the quarter arc, 2 * arcsin(1), with both bracket arms doubled exactly.
sin inverts arcsin by interval bisection on the ordinate: continuity plus
strict monotonicity of the sector area make the inverse unique, and
bisection is the computable shadow of that argument. Each step is decided
by arcsin's certified arms, so the ordinate interval always holds sin x.
"""

from __future__ import annotations

import math

from ._value import Value, set_field
from .arclength import DEFAULT_MAX_ITER, arc_length
from .errors import DomainError, PrecisionFloorError
from .geometry import point_from_ordinate
from .report import ConvergenceReport, Enclosure

_Q = point_from_ordinate(0.0)


class TangentIntersection(Value):
    """Vector (u, v) from the tangent point Y0 to the intersection Z of the
    tangent line at Y0 with the ray through Y.

    Perpendicularity u*x0 + v*y0 = 0 holds by construction; together with
    the ray relation (x0 + u)/x = (y0 + v)/y it pins Z down.
    """

    __slots__ = _fields = ("u", "v")

    def __init__(self, u: float, v: float):
        set_field(self, "u", u)
        set_field(self, "v", v)


def arcsin(y: float, tol: float,
           max_iter: int = DEFAULT_MAX_ITER) -> tuple[Enclosure, ConvergenceReport]:
    """Certified enclosure of arcsin(y) for y in [0, 1]."""
    return arc_length(point_from_ordinate(y), _Q, tol, max_iter)


def pi_run(tol: float,
           max_iter: int = DEFAULT_MAX_ITER) -> tuple[Enclosure, ConvergenceReport]:
    """The run behind :func:`pi_constant`: its enclosure of pi and the
    report of the quarter-arc run it doubles."""
    quarter, report = arcsin(1.0, tol, max_iter)
    return Enclosure(2.0 * quarter.lo, 2.0 * quarter.hi), report


def pi_constant(tol: float, max_iter: int = DEFAULT_MAX_ITER) -> Enclosure:
    """Certified enclosure of pi: the quarter-arc bracket with both arms doubled.

    Arc lengths are additive and the two quarter arcs of the upper
    semicircle are mirror images, so the semicircle length is twice the
    quarter length. Width is at most 2 * tol. A ``tol`` below the quarter
    arc's binary64 floor raises ``PrecisionFloorError``.
    """
    return pi_run(tol, max_iter)[0]


def sin(x: float, tol: float, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """The ordinate y whose arc length to (1, 0) is ``x``, to within ``tol``.

    Bisection on y in [0, 1] that keeps y_lo <= sin x <= y_hi: arcsin is
    increasing, so an upper arm of arcsin(y_mid) at most x puts y_mid at or
    below sin x, and a lower arm at least x puts it at or above. Each step
    asks arcsin for an eighth of the ordinate interval, or ``tol`` if that
    is larger, which early steps meet on a level or two. A bracket that
    holds x returns y_mid once it is at most ``tol`` wide, as
    |y_mid - sin x| <= |arcsin(y_mid) - x| (sin is 1-Lipschitz); a wider one
    is asked again at ``tol``. Otherwise the loop ends with an interval at
    most ``tol`` wide and returns its midpoint. A ``tol`` below arcsin's
    binary64 floor near sin x raises ``PrecisionFloorError``; as that floor
    is several ulps of the ordinate, the loop raises or ends before y_mid
    could repeat an endpoint.

    Two ends need no bisection. The chord, the arc and the tangent give
    y <= x <= y / sqrt(1 - y^2), so x (1 - x^2) <= sin x <= x: x itself is
    returned once x^3 <= tol / 2, and 0 once x <= tol. And x within w of
    pi / 2, w the quarter arc's bracket width, has 1 - sin x <= w^2 / 2.
    """
    try:
        top, _ = arcsin(1.0, tol, max_iter)
    except PrecisionFloorError as err:  # its bracket still bounds pi / 2
        top = err.enclosure
    if not 0.0 <= x <= top.hi:
        raise DomainError(
            f"argument must lie in [0, {top.hi!r}] (a quarter turn), got {x!r}")
    if x <= tol:
        return 0.0
    if x * x * x <= 0.5 * tol:
        return x
    if x >= top.mid and 0.5 * top.width * top.width <= tol:
        return 1.0
    y_lo, y_hi = 0.0, 1.0
    try:
        while y_hi - y_lo > tol:
            y_mid = 0.5 * (y_lo + y_hi)
            enc, _ = arcsin(y_mid, max(tol, 0.125 * (y_hi - y_lo)), max_iter)
            if enc.lo < x < enc.hi and enc.hi - enc.lo > tol:
                enc, _ = arcsin(y_mid, tol, max_iter)
            if enc.hi <= x:
                y_lo = y_mid
            elif enc.lo >= x:
                y_hi = y_mid
            else:
                return y_mid
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
