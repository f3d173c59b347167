"""Points, chord lengths and chord heights on the closed unit quarter circle.

A point is stored by its ordinate alone; the abscissa is always recomputed
from the circle equation, so constructed points sit on the circle by
construction. The canonical orientation everywhere in the package is by
decreasing ordinate (the point nearer (0, 1) comes first).

All arithmetic is plain binary64. Near y = 1 the derived abscissa loses
relative accuracy (x ~ sqrt of a small number); its absolute accuracy, which
is what every downstream formula consumes, stays at a few ulp.
"""

from __future__ import annotations

import math

from ._value import Value, set_field
from .errors import DomainError


class CirclePoint(Value):
    """A point of the quarter circle, determined by its ordinate ``y``.

    ``x`` is the derived abscissa sqrt(1 - y^2). Build instances through
    :func:`point_from_ordinate`, which enforces the first-quadrant domain.
    """

    __slots__ = _fields = ("y", "x")

    def __init__(self, y: float, x: float):
        set_field(self, "y", y)
        set_field(self, "x", x)


def point_from_ordinate(y: float) -> CirclePoint:
    """Return the circle point with ordinate ``y`` in [0, 1].

    The abscissa is evaluated as sqrt((1 - y)(1 + y)); the factored product
    keeps the result accurate to a few ulp even when y is close to 1.
    """
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"ordinate must lie in [0, 1], got {y!r}")
    y = float(y)
    return CirclePoint(y=y, x=math.sqrt((1.0 - y) * (1.0 + y)))


def chord_length(p: CirclePoint, q: CirclePoint) -> float:
    """Euclidean distance between two points of the quarter circle.

    On the circle dx = -dy * (y_p + y_q) / (x_p + x_q), which expresses the
    abscissa difference through the ordinates; unlike the naive x_p - x_q it
    does not cancel for nearby points, so the result keeps a few-ulp relative
    error at every separation.
    """
    dy = p.y - q.y
    if dy == 0.0:
        return 0.0
    t = (p.y + q.y) / (p.x + q.x)
    return abs(dy) * math.hypot(1.0, t)


def height_for_chord(length: float) -> float:
    """Distance from the origin to a chord of the given length.

    Uses the right-triangle relation h^2 + (length/2)^2 = 1, valid because
    both chord endpoints are at distance 1 from the origin. The caller must
    pass 0 <= length <= sqrt(2).
    """
    half = 0.5 * length
    return math.sqrt(1.0 - half * half)


def compare_by_ordinate(p: CirclePoint, q: CirclePoint) -> int:
    """Total order by ordinate: -1 if p below q, 0 if equal, +1 if above."""
    if p.y < q.y:
        return -1
    if p.y > q.y:
        return 1
    return 0
