"""Inscribed and circumscribed polygon fans: certified sector area.

At level m the inscribed fan over the bisection points has area
2^m * l_m * h_m / 2 (triangle fan from the origin), and the circumscribed
tangent-line fan has area 2^m * l_m / (2 h_m): each outer triangle is the
inner one scaled by 1/h_m along the radius, so its area is l/(2h) without
ever intersecting tangent lines vertex by vertex. Both fans follow from the
same (l, h) ladder that arc length runs on (:mod:`chordtrig.arclength`);
:func:`sector_sandwich` reads them from the last level's record, and the
sector sits between them. The certified run, :func:`sector_area`, closes
the inner fan with Newton's series instead, widened by a proven rounding
bound. The arc length equals twice the sector area, checked by
:func:`verify_ratio`.
"""

from __future__ import annotations

from ._value import Value, set_field
from .arclength import arc_length, enclose, ladder_levels
from .errors import DegenerateArcError, DomainError
from .geometry import CirclePoint, chord_length
from .report import FAN_BRACKET, SECTOR_BRACKET, ConvergenceReport, Enclosure


class SectorSandwich(Value):
    """Inner/outer fan areas at one level and their gap."""

    __slots__ = _fields = ("m", "inner_area", "outer_area", "gap")

    def __init__(self, m: int, inner_area: float, outer_area: float, gap: float):
        set_field(self, "m", m)
        set_field(self, "inner_area", inner_area)
        set_field(self, "outer_area", outer_area)
        set_field(self, "gap", gap)


def sector_sandwich(a: CirclePoint, b: CirclePoint, m: int) -> SectorSandwich:
    """The level-``m`` fan areas for the arc ``ab``: the arms of the last
    ``FAN_BRACKET`` record of :func:`~chordtrig.arclength.ladder_levels`,
    which checks the arguments (levels above 62 raise ``CapacityError``)."""
    levels = ladder_levels(a, b, m, FAN_BRACKET)
    _, _, _, inner, outer = levels[-1]
    return SectorSandwich(len(levels) - 1, inner, outer, outer - inner)


def inner_polygon_area(a: CirclePoint, b: CirclePoint, m: int) -> float:
    """Area of the inscribed triangle fan at level ``m``."""
    return sector_sandwich(a, b, m).inner_area


def outer_polygon_area(a: CirclePoint, b: CirclePoint, m: int) -> float:
    """Area of the circumscribed tangent fan at level ``m``."""
    return sector_sandwich(a, b, m).outer_area


def gap_iterations(a: CirclePoint, b: CirclePoint, epsilon: float) -> int:
    """Smallest level m with outer_area - inner_area < ``epsilon``: the
    sector run with a strict threshold. It is at most 27, where the fans
    meet (:mod:`chordtrig.arclength`); the level-62 backstop raises
    ``ConvergenceError``."""
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    if a.y == b.y:
        raise DegenerateArcError("gap criterion of a degenerate arc")
    _, report = enclose(a, b, epsilon, FAN_BRACKET, strict=True)
    return len(report) - 1


def sector_area(a: CirclePoint, b: CirclePoint,
                tol: float) -> tuple[Enclosure, ConvergenceReport]:
    """Certified enclosure of the sector area: the widened fan closure
    (:mod:`chordtrig.arclength`), which meets ``tol`` or its floor by
    level 4, raising as :func:`arc_length` does."""
    return enclose(a, b, tol, SECTOR_BRACKET)


def ratio_runs(a: CirclePoint, b: CirclePoint, tol: float):
    """Both runs behind the arc/sector ratio, at the shared scaled tolerance."""
    if a.y == b.y:
        raise DegenerateArcError("arc/sector ratio of a degenerate arc")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    chord = chord_length(a, b)
    scaled = 3.0 * tol * chord
    if scaled == 0.0:
        raise DomainError(
            f"arc too short for the ratio in binary64: chord {chord!r} times "
            f"tol {tol!r} underflows to zero")
    arc_enc, arc_rep = arc_length(a, b, scaled)
    sec_enc, sec_rep = sector_area(a, b, scaled)
    return arc_enc, arc_rep, sec_enc, sec_rep


def verify_ratio(a: CirclePoint, b: CirclePoint, tol: float) -> float:
    """Ratio of the arc-length midpoint to the sector-area midpoint.

    The two runs share a bracket tolerance proportional to the chord: the
    ratio's error scales like (bracket width) / (arc length), so an absolute
    inner tolerance would not meet the 10 * tol contract on short arcs.
    Result contract: within 10 * tol of 2.
    """
    arc_enc, _, sec_enc, _ = ratio_runs(a, b, tol)
    return arc_enc.mid / sec_enc.mid
