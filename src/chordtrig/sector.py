"""Inscribed and circumscribed polygon fans: certified sector area.

At level m the inscribed fan over the bisection points has area
2^m * l_m * h_m / 2 (triangle fan from the origin), and the circumscribed
tangent-line fan has area 2^m * l_m / (2 h_m): each outer triangle is the
inner one scaled by 1/h_m along the radius, so its area is l/(2h) without
ever intersecting tangent lines vertex by vertex. Both fans follow from the
same (l, h) ladder that arc length runs on (:mod:`chordtrig.arclength`):
:func:`sector_sandwich` forms them from (L_m, h_m) of the last level's
record, :func:`gap_iterations` from each level's, and the sector sits
between them. The certified run, :func:`sector_area`, closes the inner fan
with Newton's series instead, widened by a proven rounding bound. The arc
length equals twice the sector area, checked by :func:`verify_ratio`.
"""

from __future__ import annotations

from ._value import Value
from .arclength import arc_length, arms, ladder_levels
from .errors import ConvergenceError, DomainError, check_arc
from .geometry import CirclePoint, chord_length
from .report import (SECTOR_BRACKET, STOP_CAP, STOP_TOLERANCE, ConvergenceReport,
                     Enclosure, fan_areas)

# The fans meet here on every arc: h_m = 1 exactly once the chord is below
# 2^-26, which it is from level 27 on (arclength module docstring).
_FANS_MEET = 27


class SectorSandwich(Value):
    """Inner/outer fan areas at one level and their gap."""

    __slots__ = _fields = ("m", "inner_area", "outer_area", "gap")


def sector_sandwich(a: CirclePoint, b: CirclePoint, m: int) -> SectorSandwich:
    """The level-``m`` fan areas for the arc ``ab``, formed from (L_m, h_m)
    of the last record of :func:`~chordtrig.arclength.ladder_levels`, which
    checks the arguments (levels above 62 raise ``CapacityError``)."""
    levels = ladder_levels(a, b, m)
    _, h, total, _, _ = levels[-1]
    inner, outer = fan_areas(total, h)
    return SectorSandwich(len(levels) - 1, inner, outer, outer - inner)


def gap_iterations(a: CirclePoint, b: CirclePoint, epsilon: float) -> int:
    """Smallest level m with outer_area - inner_area < ``epsilon``, read
    from the fans of the arc records of levels 0 .. 27, where the fans meet
    (:mod:`chordtrig.arclength`). Should no level meet ``epsilon`` (a fault
    in that proof), it raises ``ConvergenceError``, carrying level 27's
    fans and the report of the records."""
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    check_arc(a, b, "gap criterion")
    levels = ladder_levels(a, b, _FANS_MEET)
    for m, (_, h, total, _, _) in enumerate(levels):
        inner, outer = fan_areas(total, h)
        if outer - inner < epsilon:
            return m
    raise ConvergenceError(
        f"fan gap {outer - inner!r} has not fallen below epsilon {epsilon!r} "
        f"by level {m}", enclosure=Enclosure(inner, outer),
        report=ConvergenceReport(a.y, b.y, epsilon, STOP_CAP, levels))


def sector_area(a: CirclePoint, b: CirclePoint,
                tol: float) -> tuple[Enclosure, ConvergenceReport]:
    """Certified enclosure of the sector area: the widened fan closure
    (:mod:`chordtrig.arclength`), which meets ``tol`` or its floor by
    level 4, raising as :func:`arc_length` does."""
    lo, hi, levels = arms(a, b, tol, SECTOR_BRACKET)
    return Enclosure(lo, hi), ConvergenceReport(a.y, b.y, tol, STOP_TOLERANCE, levels)


def _ratio_tol(a: CirclePoint, b: CirclePoint, tol: float) -> float:
    """The bracket tolerance both ratio runs share, 3 * tol * chord."""
    check_arc(a, b, "arc/sector ratio")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    chord = chord_length(a, b)
    scaled = 3.0 * tol * chord
    if scaled == 0.0:
        raise DomainError(
            f"arc too short for the ratio in binary64: chord {chord!r} times "
            f"tol {tol!r} underflows to zero")
    return scaled


def ratio_runs(a: CirclePoint, b: CirclePoint, tol: float):
    """Both runs behind the arc/sector ratio, at the shared scaled tolerance."""
    scaled = _ratio_tol(a, b, tol)
    arc_enc, arc_rep = arc_length(a, b, scaled)
    sec_enc, sec_rep = sector_area(a, b, scaled)
    return arc_enc, arc_rep, sec_enc, sec_rep


def verify_ratio(a: CirclePoint, b: CirclePoint, tol: float) -> float:
    """Ratio of the arc-length midpoint to the sector-area midpoint.

    The two runs share a bracket tolerance proportional to the chord: the
    ratio's error scales like (bracket width) / (arc length), so an absolute
    inner tolerance would not meet the 10 * tol contract on short arcs.
    Result contract: within 10 * tol of 2. It reads the bare arms of
    :func:`ratio_runs`' two runs, so it builds no report.
    """
    scaled = _ratio_tol(a, b, tol)
    arc_lo, arc_hi, _ = arms(a, b, scaled)
    sec_lo, sec_hi, _ = arms(a, b, scaled, SECTOR_BRACKET)
    return 0.5 * (arc_lo + arc_hi) / (0.5 * (sec_lo + sec_hi))
