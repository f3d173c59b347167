"""Points, chord lengths and chord heights on the closed unit quarter circle.

A point is stored by its ordinate alone; the abscissa is always recomputed
from the circle equation, so constructed points sit on the circle by
construction. The canonical orientation everywhere in the package is by
decreasing ordinate (the point nearer (0, 1) comes first).

All arithmetic is plain binary64. Near y = 1 the derived abscissa loses
relative accuracy (x ~ sqrt of a small number); its absolute accuracy, which
is what every downstream formula consumes, stays at a few ulp.
"""

import math

from .errors import DomainError, check_real
from .report import Value


class CirclePoint(Value):
    """A point of the quarter circle, named by its ordinate ``y`` in [0, 1].

    The constructor is the one check of the first-quadrant domain: an
    ordinate that is a bool or not a real number (``numbers.Real``), or one
    outside [0, 1], NaN included, raises ``DomainError``, and any other is
    stored as a float, -0.0 as 0.0. ``x`` is the abscissa the circle
    equation gives, sqrt((1 - y)(1 + y)), computed on each read; the
    factored product keeps it accurate to a few ulp even when y is close
    to 1.
    """

    __slots__ = _fields = ("y",)

    def __init__(self, y: float):
        if type(y) is not float:
            check_real(y, "ordinate")
        if not 0.0 <= y <= 1.0:
            raise DomainError(f"ordinate must lie in [0, 1], got {y!r}")
        _set_y(self, float(y) + 0.0)  # -0.0 + 0.0 is 0.0

    @property
    def x(self) -> float:
        y = self.y
        return math.sqrt((1.0 - y) * (1.0 + y))


# The slot's own setter, which stores the ordinate faster than set_field:
# arcsin builds a point per call, and so does every point_from_ordinate.
_set_y = CirclePoint.y.__set__


def point_from_ordinate(y: float) -> CirclePoint:
    """The circle point with ordinate ``y`` in [0, 1]: ``CirclePoint(y)``."""
    return CirclePoint(y)


def chord_length(p: CirclePoint, q: CirclePoint) -> float:
    """Euclidean distance between two points of the quarter circle.

    On the circle dx = -dy * (y_p + y_q) / (x_p + x_q), which expresses the
    abscissa difference through the ordinates; unlike the naive x_p - x_q it
    does not cancel for nearby points, so the result keeps a few-ulp relative
    error at every separation.
    """
    py, qy = p.y, q.y
    dy = py - qy
    if dy == 0.0:
        return 0.0
    t = (py + qy) / (p.x + q.x)
    return abs(dy) * math.hypot(1.0, t)


def height_for_chord(length: float) -> float:
    """Distance from the origin to a chord of the given length.

    Uses the right-triangle relation h^2 + (length/2)^2 = 1, valid because
    both chord endpoints are at distance 1 from the origin. A chord of the
    quarter circle is at most sqrt(2) long; a length that is a bool, not a
    real number, NaN or outside [0, 2], the chords of the whole unit circle,
    raises ``DomainError``.
    """
    if type(length) is not float:
        check_real(length, "chord length")
    if not 0.0 <= length <= 2.0:
        raise DomainError(f"chord length must lie in [0, 2], got {length!r}")
    half = 0.5 * length
    return math.sqrt(1.0 - half * half)
