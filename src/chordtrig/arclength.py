"""Chord-bisection scheme: certified arc length on the quarter circle.

Level m splits an arc into 2^m congruent sub-arcs; all level-m chords share
one length l_m, and the polygonal length is L_m = 2^m * l_m. Because of the
congruence, the whole ladder is carried by a single (length, height) pair:
the chord of each half arc is

    l' = l / sqrt(2 * (1 + h)),   h = sqrt(1 - (l/2)^2),

which is the stable form of sqrt(2 - 2h) (no cancellation as h -> 1). Since
sqrt(2 * (1 + h)) <= 2, the computed L_m never decreases, and since the
factor is >= sqrt(2), each step contracts the segment by at least ~sqrt(2).

One flat loop, :func:`_climb`, holds the only copy of this recurrence and
of the brackets; every ladder in the package runs on it. At each level it
forms L_m = 2^m * l_m and the arms of the bracket asked for: arc length
takes [L_m, L_m / h_m], the lower arm because the polygonal lengths
increase to the arc length, the upper arm because L_m / h_m is twice the
circumscribed tangent fan's area, which contains the sector whose doubled
area equals the arc length. The sector area (:mod:`chordtrig.sector`) takes
the two fans. A level's record is (l_m, h_m, L_m, lo, hi), and
:func:`ladder_levels`, the loop's checked recorder, is the one source of
these values: :func:`length_sequence` builds its rows from the records, the
sector sandwich reads its fans from the last one, and a run keeps no level:
:func:`enclose` returns the last bracket and a report that replays the run
through :func:`ladder_levels` when its
:class:`~chordtrig.report.IterationRow` table is first read.

Every run stops by level 27. An arc of the quarter circle spans at most
pi/2, so l_m = 2 sin(theta / 2^(m+1)) <= pi / 2^(m+1), which is below
2^-26 from level 27 on; the computed l_m is within a relative 2^-46 of
it. A chord l <= 2^-26 has (l/2)^2 <= 2^-54, so 1 - (l/2)^2 rounds to 1
and h = 1 exactly: both brackets are then zero wide and meet every
tol > 0. So a replay never reaches the recorder's level cap.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import partial

from .errors import (CapacityError, ConvergenceError, DegenerateArcError, DomainError,
                     as_integer)
from .geometry import (
    CirclePoint,
    chord_length,
    compare_by_ordinate,
    height_for_chord,
    point_from_ordinate,
)
from .report import (ARC_BRACKET, FAN_BRACKET, STOP_CAP, STOP_TOLERANCE,
                     ConvergenceReport, Enclosure, IterationRow, ladder_report,
                     level_row)

DEFAULT_MAX_ITER = 40

# A level's record: (l_m, h_m, L_m, lo, hi).
_Level = tuple[float, float, float, float, float]

# 2^m beyond this could not index a materialized point list on any host.
_MAX_LEVEL = 62


def circle_midpoint(a: CirclePoint, b: CirclePoint) -> CirclePoint:
    """The point of the arc ``ab`` equidistant from both endpoints.

    Computed as the chord midpoint pushed back onto the circle; by symmetry
    that point satisfies |aP| = |Pb|. Raises ``DegenerateArcError`` when the
    endpoints coincide or the arc spans too few representable ordinates for
    a strictly interior midpoint to exist.
    """
    if a.y == b.y:
        raise DegenerateArcError("cannot bisect a degenerate arc")
    mx = 0.5 * (a.x + b.x)
    my = 0.5 * (a.y + b.y)
    p = point_from_ordinate(my / math.hypot(mx, my))
    lo_y, hi_y = (a.y, b.y) if a.y < b.y else (b.y, a.y)
    if not lo_y < p.y < hi_y:
        raise DegenerateArcError(
            "arc spans too few representable ordinates to bisect")
    return p


def bisection_step(points: Sequence[CirclePoint]) -> list[CirclePoint]:
    """One refinement step: insert the equidistant point of every adjacent pair.

    The input must be ordered by strictly decreasing ordinate; the output has
    2n - 1 points for an n-point input and keeps the ordering.
    """
    if len(points) < 2:
        raise DomainError("a bisection state needs at least two points")
    for prev, cur in zip(points, points[1:]):
        if compare_by_ordinate(prev, cur) <= 0:
            raise DomainError(
                "input points must be ordered by strictly decreasing ordinate")
    out: list[CirclePoint] = [points[0]]
    for prev, cur in zip(points, points[1:]):
        out.append(circle_midpoint(prev, cur))
        out.append(cur)
    return out


def _climb(a: CirclePoint, b: CirclePoint, tol: float, last: int, bracket: str,
           levels: list[_Level] | None = None) -> tuple[int, float, float, bool]:
    """Run the ladder on the arc ``ab`` (a != b) from level 0 until its
    ``bracket`` is at most ``tol`` wide or level ``last`` (>= 0) is reached,
    and return (m, lo, hi, met) of the level it stopped at, ``met`` telling
    whether the bracket reached ``tol``. Each level's record
    (l_m, h_m, L_m, lo, hi) is appended to ``levels`` if it is given."""
    fans = bracket == FAN_BRACKET
    sqrt = math.sqrt
    ell = chord_length(a, b)
    scale = 1.0  # 2^m exactly, so scale * ell is ldexp(ell, m) bit for bit
    for m in range(last + 1):
        half = 0.5 * ell
        h = sqrt(1.0 - half * half)  # height_for_chord(ell), written out
        total = scale * ell
        if fans:
            # report.fan_areas written out: a call here makes the sector run a
            # third slower. TestLazyRows (_check_rows) pins the two bit-equal.
            half = 0.5 * total
            lo, hi = half * h, half / h
        else:
            lo, hi = total, total / h
        if levels is not None:
            levels.append((ell, h, total, lo, hi))
        if hi - lo <= tol:
            return m, lo, hi, True
        ell = ell / sqrt(2.0 * (1.0 + h))
        scale *= 2.0
    return m, lo, hi, False


def ladder_levels(a: CirclePoint, b: CirclePoint, m: int,
                  bracket: str = ARC_BRACKET) -> list[_Level]:
    """The records (l_m, h_m, L_m, lo, hi) of levels 0 .. ``m`` on the arc
    ``ab``, with the arms of ``bracket``: [L_m, L_m / h_m] for
    ``ARC_BRACKET``, the two fans for ``FAN_BRACKET``.

    Raises ``DegenerateArcError`` for a == b, ``DomainError`` for a level
    that is not a non-negative integer, and ``CapacityError`` above level
    62, where 2^m could not index a materialized point list."""
    if a.y == b.y:
        raise DegenerateArcError("ladder levels of a degenerate arc")
    m = as_integer(m, "level")
    if m < 0:
        raise DomainError(f"level must be non-negative, got {m}")
    if m > _MAX_LEVEL:
        raise CapacityError(f"level {m} would need 2^{m} segments, beyond index capacity")
    levels: list[_Level] = []
    _climb(a, b, -1.0, m, bracket, levels)
    return levels


def enclose(a: CirclePoint, b: CirclePoint, tol: float, max_iter: int,
            bracket: str = ARC_BRACKET,
            strict: bool = False) -> tuple[Enclosure, ConvergenceReport]:
    """Run the ladder until its ``bracket`` is at most ``tol`` wide (below
    ``tol`` if ``strict``); a degenerate arc yields [0, 0] and no rows. The
    run records no level: its report replays them when its rows are read."""
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    max_iter = as_integer(max_iter, "max_iter")
    if max_iter < 0:
        raise DomainError(f"max_iter must be non-negative, got {max_iter}")
    if a.y == b.y:
        return Enclosure(0.0, 0.0), ladder_report(a.y, b.y, tol, STOP_TOLERANCE, 0, tuple)
    # width < tol exactly when width <= the float below tol
    limit = math.nextafter(tol, 0.0) if strict else tol
    m, lo, hi, met = _climb(a, b, limit, max_iter, bracket)
    enc = Enclosure(lo, hi)
    report = ladder_report(a.y, b.y, tol, STOP_TOLERANCE if met else STOP_CAP, m + 1,
                           partial(ladder_levels, a, b, m, bracket))
    if not met:
        raise ConvergenceError(
            f"bracket width {hi - lo!r} has not reached tol {tol!r} by level {m}",
            enclosure=enc, report=report)
    return enc, report


def length_sequence(a: CirclePoint, b: CirclePoint, m_max: int) -> list[IterationRow]:
    """Rows for levels 0..m_max of the scheme on the arc ``ab``, bracket
    [L_m, L_m / h_m]; the arguments are checked by :func:`ladder_levels`."""
    return [level_row(m, *level) for m, level in enumerate(ladder_levels(a, b, m_max))]


def upper_bound(a: CirclePoint, b: CirclePoint) -> float:
    """Bound l0 / h0^2 dominating every polygonal length of the arc ``ab``."""
    if a.y == b.y:
        raise DegenerateArcError("upper bound of a degenerate arc")
    ell = chord_length(a, b)
    h = height_for_chord(ell)
    return ell / (h * h)


def arc_length(a: CirclePoint, b: CirclePoint, tol: float,
               max_iter: int = DEFAULT_MAX_ITER) -> tuple[Enclosure, ConvergenceReport]:
    """Certified enclosure of the arc length from ``a`` to ``b``.

    Runs the ladder until the bracket [L_m, L_m / h_m] is narrower than
    ``tol``. A degenerate arc (a == b) is legal and yields [0, 0]. Raises
    ``ConvergenceError`` (carrying the last bracket and the report) if the
    level cap is hit first.
    """
    return enclose(a, b, tol, max_iter)
