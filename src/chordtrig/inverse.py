"""arcsin as an arc length, pi from quadrant symmetry, sin by inversion.

arcsin(y) is the length of the arc from (sqrt(1 - y^2), y) down to (1, 0),
so it inherits the certified bracket of the bisection scheme. pi is twice
the quarter arc, 2 * arcsin(1), with both bracket arms doubled exactly.
sin inverts arcsin by plain interval bisection on the ordinate: continuity
plus strict monotonicity of the sector area make the inverse unique, and
bisection is the computable shadow of that argument.
"""

from __future__ import annotations

import math

from ._value import Value, set_field
from .arclength import DEFAULT_MAX_ITER, arc_length
from .errors import DomainError
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


def pi_constant(tol: float, max_iter: int = DEFAULT_MAX_ITER) -> Enclosure:
    """Certified enclosure of pi: the quarter-arc bracket with both arms doubled.

    Arc lengths are additive and the two quarter arcs of the upper
    semicircle are mirror images, so the semicircle length is twice the
    quarter length. Width is at most 2 * tol.
    """
    enc, _ = arcsin(1.0, tol, max_iter)
    return Enclosure(2.0 * enc.lo, 2.0 * enc.hi)


def sin(x: float, tol: float, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """The ordinate y whose arc length to (1, 0) is ``x``, to within ``tol``.

    Bisection on y in [0, 1] against the arcsin bracket midpoint, down to
    adjacent floats at the latest. Near y = 1 the ordinate grid is coarser
    than the arc grid (arcsin has unbounded slope there), so when the
    bracket collapses to adjacent floats the endpoint with the smaller
    residual is returned.
    """
    top, _ = arcsin(1.0, tol, max_iter)
    if not 0.0 <= x <= top.hi:
        raise DomainError(
            f"argument must lie in [0, {top.hi!r}] (a quarter turn), got {x!r}")
    if x <= tol:
        return 0.0
    if x >= top.mid:
        return 1.0
    y_lo, f_lo = 0.0, -x
    y_hi, f_hi = 1.0, top.mid - x
    # Reaching an ordinate near x takes about log2(1/x) + 53 halvings. The
    # adjacent-floats exit ends the loop within ~1100 of them at the latest:
    # no two floats in [0, 1] are closer than 2^-1074.
    while True:
        y_mid = 0.5 * (y_lo + y_hi)
        if y_mid <= y_lo or y_mid >= y_hi:
            return y_lo if abs(f_lo) <= abs(f_hi) else y_hi
        enc, _ = arcsin(y_mid, tol, max_iter)
        f_mid = enc.mid - x
        if abs(f_mid) <= tol:
            return y_mid
        if f_mid < 0.0:
            y_lo, f_lo = y_mid, f_mid
        else:
            y_hi, f_hi = y_mid, f_mid


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
