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
length equals twice the sector area, checked by :func:`verify_ratio`;
:func:`ratio_runs` returns the same ratio with the arc and sector runs
behind it. Both read one body that runs each of the two ladders once and
forms the ratio once.
"""

from .arclength import SECTOR_BRACKET, arms, ladder_levels
from .errors import (ConvergenceError, DomainError, PrecisionFloorError, as_tolerance,
                     check_arc)
from .geometry import CirclePoint, chord_length
from .report import STOP_CAP, STOP_TOLERANCE, ConvergenceReport, Enclosure, Value, fan_areas

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
    if type(epsilon) is not float or not epsilon > 0.0:
        as_tolerance(epsilon, "epsilon")
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
    lo, hi, levels = arms(a.y, b.y, tol, SECTOR_BRACKET)
    return Enclosure(lo, hi), ConvergenceReport(a.y, b.y, tol, STOP_TOLERANCE, levels)


def _ratio_arms(a: CirclePoint, b: CirclePoint, tol: float):
    """The ratio's one body: ``(ratio, scaled, arc arms, sector arms)``.

    Both runs share the bracket tolerance scaled = 3 * tol * chord, and
    each arms triple is the bare ``(lo, hi, levels)`` of
    :func:`~chordtrig.arclength.arms` at it, arc first; the ratio is their
    midpoints', formed here alone. A run's ``PrecisionFloorError`` is
    raised again naming the caller's ``tol``, with the run's bracket and
    report."""
    check_arc(a, b, "arc/sector ratio")
    if type(tol) is not float or not tol > 0.0:
        as_tolerance(tol)
    chord = chord_length(a, b)
    scaled = 3.0 * tol * chord
    if scaled == 0.0:
        raise DomainError(
            f"arc too short for the ratio in binary64: chord {chord!r} times "
            f"tol {tol!r} underflows to zero")
    try:
        arc = arms(a.y, b.y, scaled)
        sector = arms(a.y, b.y, scaled, SECTOR_BRACKET)
    except PrecisionFloorError as err:
        raise PrecisionFloorError(
            f"tol {tol!r} is below the binary64 floor of the arc/sector ratio on this arc",
            enclosure=err.enclosure, report=err.report) from err
    return 0.5 * (arc[0] + arc[1]) / (0.5 * (sector[0] + sector[1])), scaled, arc, sector


def ratio_runs(a: CirclePoint, b: CirclePoint, tol: float):
    """The arc/sector ratio with the two runs behind it: ``(ratio, (arc
    enclosure, report), (sector enclosure, report))``, the runs at the
    shared scaled tolerance. It wraps the same bare arms that
    :func:`verify_ratio` reads, so its ratio is that value, and each run is
    what :func:`~chordtrig.arclength.arc_length` and :func:`sector_area`
    return at the scaled tolerance; no ladder runs twice."""
    ratio, scaled, *runs = _ratio_arms(a, b, tol)
    return ratio, *((Enclosure(lo, hi), ConvergenceReport(a.y, b.y, scaled, STOP_TOLERANCE,
                                                          levels)) for lo, hi, levels in runs)


def verify_ratio(a: CirclePoint, b: CirclePoint, tol: float) -> float:
    """Ratio of the arc-length midpoint to the sector-area midpoint.

    The two runs share a bracket tolerance proportional to the chord: the
    ratio's error scales like (bracket width) / (arc length), so an absolute
    inner tolerance would not meet the 10 * tol contract on short arcs.
    Result contract: within 10 * tol of 2. It is :func:`ratio_runs`' ratio,
    read from the two runs' bare arms, so it builds no report. A ``tol``
    whose scaled tolerance is below a run's binary64 floor raises that
    run's ``PrecisionFloorError``, naming ``tol``.
    """
    return _ratio_arms(a, b, tol)[0]
