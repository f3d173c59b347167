"""Chord-bisection scheme: certified arc length on the quarter circle.

Level m splits an arc into 2^m congruent sub-arcs; all level-m chords share
one length l_m, and the polygonal length is L_m = 2^m * l_m. Because of the
congruence, the whole ladder is carried by a single (length, height) pair:
the chord of each half arc is

    l' = l / sqrt(2 * (1 + h)),   h = sqrt(1 - (l/2)^2),

which is the stable form of sqrt(2 - 2h) (no cancellation as h -> 1). Since
sqrt(2 * (1 + h)) <= 2, the computed L_m, which the loop carries (Step and
Underflow below), never decreases, down to subnormal arcs, and since the
factor is >= sqrt(2), each step contracts the segment by at least ~sqrt(2).

Closing the ladder. Write s = l_m / 2 = sin(phi), 2 phi being one sub-arc's
angle. Every further level multiplies L_m by 1 / cos of the next half
angle, so the arc length S is L_m times Viete's product, L_m phi / sin(phi)
= L_m arcsin(s) / s. Newton's series arcsin(s) / s = sum_k a_k q^k, with
q = s^2 and a_k = (2k)! / (4^k (k!)^2 (2k + 1)), has positive coefficients
whose ratios are below 1, so with K terms, P(q) = sum_(k<K) a_k q^k:

    L_m P(q)  <=  S  <=  L_m (P(q) + a_K q^K / (1 - q)).

K is 10 at every level.

This is the ladder's own remaining product, summed in closed form: no host
trig, no constant the ladder does not produce. Its width falls like
4^(-K m) where the paper's [L_m, L_m / h_m] falls like 4^(-m). The sector
area closes the inscribed fan the same way: with w = l_m h_m = sin(2 phi)
and the fan's area A_m = L_m h_m / 2, the sector is A_m arcsin(w) / w, the
series in z = w^2. It is used once z <= 1/2 (at level 0 of the quarter arc
w = 1); before that the two fans [A_m, A_m / h_m^2] bracket the sector.

One flat loop, :func:`_climb`, holds the only copy of the recurrence and of
the brackets; every ladder in the package runs on it. It runs on the two
endpoint ordinates alone, as floats, and builds no point: sin's certifier
runs hand it ordinates of their own, the other runs a point's. At each
level it forms L_m and the arms of one of two brackets: ``ARC_BRACKET`` the
arc closure or ``SECTOR_BRACKET`` the fan closure, both widened by the
rounding bound below (the bisection partition limit is the arc closure's
midpoint). The loop records each level as (l_m, h_m, L_m, lo, hi), and
these records are the one source of these values: :func:`arms`, the
checked run, hands the last one's arms to every caller; :func:`arc_length`
and :func:`~chordtrig.sector.sector_area` return them as a bracket with a
report that keeps all the records (its
:class:`~chordtrig.report.IterationRow` table is built from them on each
read), and the callers that return no report read the bare arms. :func:`length_sequence` builds its rows from
those of :func:`ladder_levels`, the loop's checked recorder of the arc
closure, and the paper's two fans, :func:`~chordtrig.report.fan_areas` of
(L_m, h_m), are a view of the arc records: the sector sandwich and the
fan-gap criterion read them there.

Rounding (the style of Higham, Accuracy and Stability of Numerical
Algorithms, 2002, ch. 3). With u = 2^-53, each operation errs by a relative
u at most; ordinates are exact, as they define the arc. Bounds are first
order; the remainder falls in the spare units below. Errors are counted in
units of u.

- Chord. :func:`_climb` forms l_0 from the two ordinates with
  :func:`~chordtrig.geometry.chord_length`'s formula, written out step for
  step (``tests/test_ladder.py`` checks it bit for bit), so l_0 is within
  e_0 = 10: x = sqrt((1 - y)(1 + y)) is within 2.5, x_i + x_(i+1) within
  3.5, t within 5.5, hypot(1, t) within 7.5 (t^2 / (1 + t^2) <= 1, and
  Python >= 3.10's hypot is within 1 ulp) and l within 9.5.
- Step. With r = q / (1 - q), which is at most 1 at level 0 and
  0.172 / 4^(m-1) at level m, a chord within e gives h within
  r e + r/2 + 1.5, 1 + h within half of that plus 1 (h / (1 + h) <= 1/2),
  and sqrt(2 (1 + h)) within half again plus 1, so the step takes e to
  e' = (1 + r/4) e + 2.875 + r/8. The loop carries this bound, e_m, with
  the r it computes. It carries L_m = 2^m l_m too, as
  L' = 2 L / sqrt(2 (1 + h)), which rounds as the step of l does, and forms
  l_m = L_m / 2^m from it; above underflow both scalings are exact.
- Chord to arc. S is 2^(m+1) arcsin(l_m / 2), whose logarithmic derivative
  in l_m, s / (arcsin(s) sqrt(1 - q)), is at most sqrt(1 + r) <= 1 + r/2:
  the arc (and half of it, the sector) of the computed chord is within
  (1 + r/2) e_m of the true one.
- Arc closure (q <= 1/2). q errs by 1, which moves arcsin(s) / s by r/4 at
  most: its logarithmic derivative in q is (s / (arcsin(s) sqrt(1 - q)) - 1)
  / 2 <= r/4. Horner's rule with the stored coefficients keeps P within 2:
  each inner sum q p_(j+1) is at most half of p_j for j >= 1 and a tenth of
  P at j = 0. P plus the tail adds 1 (the tail is below 2^-15 P, so its own
  ~13 count for less than 0.001), the product with L_m 1 and widening the
  arm 1: (1 + r/2) e_m + 5.25 at most, and the pad takes 6. (Against mpmath,
  pads a quarter as wide already miss on a few of 3000 random arcs;
  ``tests/test_certified.py`` checks the full ones.)
- Fan closure (z <= 1/2, so q <= 0.147 and r <= 0.172). h is within
  r/2 + 1.5, A_m and w within r/2 + 2.5 and z within r + 6, which moves
  arcsin(w) / w by r_z (r + 6) / 4 <= 1.55 (r_z = z / (1 - z) <= 1);
  Horner 2, the sum 1, the product 1 and widening 1 make
  (1 + r/2) e_m + 8.2. The fans before that make (1 + r/2) e_m + r/2 + 3.5
  with widening. The pad takes 9.
- Underflow. A result below 2^-1022 errs by an absolute 2^-1075 instead.
  Only a chord below 2^-1021 underflows (then q and r vanish and h = 1):
  l_0 is then exact, and each step divides 2 L_m by sqrt(4) = 2, so the
  carried L_m stays l_0 exactly and never falls, though l_m = L_m / 2^m,
  read only by q, h and w, may round to 0. The arc exceeds l_0 by far less
  than 2^-1075, and halving, the products and the pad add at most 2^-1075
  each. The pad's second term, 2^m 2^-1072, covers them.
  Longer chords can still underflow q, z or the tail (z^10 does once the
  chord is below 2^-52): each then errs by an absolute 2^-1075, which moves
  P >= 1 by far less than u and an arm by far less than 2^-1074.
- Pad. Each arm moves out by (units) u hi + 2^m 2^-1072, with the units
  above, e_m and r as computed and hi the raw upper arm; a lower arm below
  0 is raised to 0, as lengths and areas are not negative. So a widened
  bracket holds the arc length, or the sector area.

Floor. The widening alone, 2 pad, is the binary64 floor of a closure at
that level. It does not fall from one closure level to the next: the pad's
units grow by 2.875 + r/8 - r e_m / 4 >= 0.5 per level, far more than the
raw upper arm can fall. So a run forms both arms at every closure level,
and a tol below that level's floor raises ``PrecisionFloorError`` at once:
no later level could meet it. From level 2 on the arc closure's tail is
at most u/2 of its arm (q <= sin^2(pi/16) = 0.0381), and from level 3 on
the fan closure's (z <= 0.0381): a run still open at such a
level has a tol below 2 pad + 2.5u hi, and one level later its floor has
grown by more than 5u hi and passes tol. Every closure run thus ends, at
tol or at the floor, by level 4. The paper's fans reach zero width once
h = 1 exactly (a chord below 2^-26, from level 27 on). So a run needs no
level cap: level 62, the deepest a materialized partition could reach, is
a backstop against a fault in this proof, and a run that reaches it raises
``ConvergenceError``.
"""

import math
from collections.abc import Sequence

from .errors import (ConvergenceError, DegenerateArcError, PrecisionFloorError, as_level,
                     as_tolerance, check_arc, check_descending)
from .geometry import (
    CirclePoint,
    chord_length,
    height_for_chord,
    point_from_ordinate,
)
from .report import (ARC_BRACKET, SECTOR_BRACKET, STOP_CAP, STOP_FLOOR, STOP_TOLERANCE,
                     ConvergenceReport, Enclosure, IterationRow, level_row)

# A level's record: (l_m, h_m, L_m, lo, hi).
_Level = tuple[float, float, float, float, float]

# 2^m beyond this could not index a materialized point list on any host;
# every run's backstop too (module docstring).
_MAX_LEVEL = 62

# a_1 .. a_10 of Newton's series, a_k = (2k)! / (4^k (k!)^2 (2k + 1)), each
# rounded to nearest; a_0 = 1. The last one bounds the tail. The partition
# grids close each chord with them too.
SERIES = (0.16666666666666666, 0.075, 0.044642857142857144, 0.030381944444444444,
           0.022372159090909092, 0.017352764423076924, 0.01396484375,
           0.011551800896139705, 0.009761609529194078, 0.008390335809616815)

_U = 2.0 ** -53                 # binary64 unit roundoff
_TINY = 2.0 ** -1072            # the pad's underflow term, per 2^m
_ARC_UNITS = 6.0                # the closures' pads besides (1 + r/2) e_m
_FAN_UNITS = 9.0


def circle_midpoint(a: CirclePoint, b: CirclePoint) -> CirclePoint:
    """The point of the arc ``ab`` equidistant from both endpoints.

    Computed as the chord midpoint pushed back onto the circle; by symmetry
    that point satisfies |aP| = |Pb|. Raises ``DegenerateArcError`` when the
    endpoints coincide or the arc spans too few representable ordinates for
    a strictly interior midpoint to exist.
    """
    check_arc(a, b, "midpoint")
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
    check_descending(points, "bisection state")
    out: list[CirclePoint] = [points[0]]
    for prev, cur in zip(points, points[1:]):
        out.append(circle_midpoint(prev, cur))
        out.append(cur)
    return out


def _climb(ay: float, by: float, tol: float, last: int, bracket: str,
           levels: list[_Level]) -> tuple[str, float]:
    """Run the ladder on the arc between the ordinates ``ay`` and ``by``
    (ay != by, both in [0, 1]) from level 0 until its ``bracket`` is at most
    ``tol`` wide, its floor (module docstring) is above a positive ``tol``,
    or level ``last`` (>= 0) is reached; append each level's record
    (l_m, h_m, L_m, lo, hi) to ``levels`` and return the report's stop
    reason and the last level's floor (0 without a closure)."""
    sector = bracket == SECTOR_BRACKET
    units = _FAN_UNITS if sector else _ARC_UNITS
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 = SERIES
    sqrt = math.sqrt
    # l_0 by chord_length's formula, written out step for step: even a call
    # on the two ordinates costs about 2% of a sin call (CPython 3.11).
    xa = sqrt((1.0 - ay) * (1.0 + ay))
    xb = sqrt((1.0 - by) * (1.0 + by))
    ell = abs(ay - by) * math.hypot(1.0, (ay + by) / (xa + xb))
    total = ell  # L_m, carried so that a chord that underflows keeps it
    scale = 1.0  # 2^m exactly, so total / scale is ldexp(total, -m) bit for bit
    err = 10.0   # e_m, the chord's rounding bound in units of u
    floor = h = 0.0
    for m in range(last + 1):
        if m:  # the step to level m
            total = 2.0 * total / sqrt(2.0 * (1.0 + h))
            scale *= 2.0
            ell = total / scale
        half = 0.5 * ell
        q = half * half
        c = 1.0 - q
        h = sqrt(c)  # height_for_chord(ell), written out
        r = q / c
        if sector:
            w = ell * h
            base, z = 0.5 * total * h, w * w
        else:
            base, z = total, q
        if sector and z > 0.5:
            # The series needs z <= 1/2. Until then the sector has the
            # fans, whose pad can fall at the next level: no floor test.
            lo, hi, closed = base, 0.5 * total / h, False
        else:
            p = 1.0 + z * (a1 + z * (a2 + z * (a3 + z * (a4 + z * (
                a5 + z * (a6 + z * (a7 + z * (a8 + z * a9))))))))
            lo, hi, closed = base * p, base * (p + a10 * z ** 10 / (1.0 - z)), True
        pad = (err + 0.5 * r * err + units) * _U * hi + scale * _TINY
        err += 0.25 * r * err + 2.875 + 0.125 * r  # e_(m+1), for the next step
        lo -= pad
        hi += pad
        if lo < 0.0:  # lengths and areas are not negative
            lo = 0.0
        floor = pad + pad if closed else 0.0
        levels.append((ell, h, total, lo, hi))
        if hi - lo <= tol:
            return STOP_TOLERANCE, floor
        if floor > tol > 0.0:
            return STOP_FLOOR, floor
    return STOP_CAP, floor


def ladder_levels(a: CirclePoint, b: CirclePoint, m: int) -> list[_Level]:
    """The records (l_m, h_m, L_m, lo, hi) of levels 0 .. ``m`` on the arc
    ``ab``, with the arms of the widened arc closure (module docstring).

    Raises ``DegenerateArcError`` for a == b, ``DomainError`` for a level
    that is not a non-negative integer, and ``CapacityError`` above level
    62, where 2^m could not index a materialized point list."""
    check_arc(a, b, "ladder levels")
    m = as_level(m, _MAX_LEVEL)
    levels: list[_Level] = []
    _climb(a.y, b.y, -1.0, m, ARC_BRACKET, levels)
    return levels


def arms(ay: float, by: float, tol: float,
         bracket: str = ARC_BRACKET) -> tuple[float, float, list[_Level]]:
    """Run the ladder on the arc between the ordinates ``ay`` and ``by``
    (each in [0, 1], which the caller ensures) until its ``bracket``, the arc
    closure (``ARC_BRACKET``) or the fan closure (``SECTOR_BRACKET``), is at
    most ``tol`` wide, and return the last level's arms and the level
    records, with no record built around them; a degenerate arc gives 0, 0
    and no levels.

    A ``tol`` that is a bool, not a real number, or not positive raises
    ``DomainError`` (:func:`~chordtrig.errors.as_tolerance`). Raises
    ``PrecisionFloorError`` (also a ``DomainError``) once a closure's
    widening alone is wider than ``tol``; a run meets ``tol`` or this floor
    by level 4 (module docstring). The level-62 backstop raises
    ``ConvergenceError``. Only then are a bracket and a report built: both
    errors carry the last bracket and the report."""
    if type(tol) is not float or not tol > 0.0:
        as_tolerance(tol)
    levels: list[_Level] = []
    if ay == by:
        return 0.0, 0.0, levels
    stop, floor = _climb(ay, by, tol, _MAX_LEVEL, bracket, levels)
    _, _, _, lo, hi = levels[-1]
    if stop != STOP_TOLERANCE:
        below = stop == STOP_FLOOR
        raise (PrecisionFloorError if below else ConvergenceError)(
            f"tol {tol!r} is below the binary64 floor {floor:.3g} of this arc" if below
            else f"bracket width {hi - lo!r} has not reached tol {tol!r} "
                 f"by level {len(levels) - 1}",
            enclosure=Enclosure(lo, hi),
            report=ConvergenceReport(ay, by, tol, stop, levels))
    return lo, hi, levels


def length_sequence(a: CirclePoint, b: CirclePoint, m_max: int) -> list[IterationRow]:
    """Rows for levels 0..m_max of the scheme on the arc ``ab``, with the
    arc closure's arms; the arguments are checked by :func:`ladder_levels`."""
    return [level_row(m, *level) for m, level in enumerate(ladder_levels(a, b, m_max))]


def upper_bound(a: CirclePoint, b: CirclePoint) -> float:
    """Bound l0 / h0^2 dominating every polygonal length of the arc ``ab``."""
    check_arc(a, b, "upper bound")
    ell = chord_length(a, b)
    h = height_for_chord(ell)
    return ell / (h * h)


def arc_length(a: CirclePoint, b: CirclePoint,
               tol: float) -> tuple[Enclosure, ConvergenceReport]:
    """Certified enclosure of the arc length from ``a`` to ``b``.

    Runs the ladder until the widened arc closure (module docstring) is at
    most ``tol`` wide. A degenerate arc (a == b) is legal and yields [0, 0].
    Raises ``PrecisionFloorError`` if ``tol`` is below the binary64 floor of
    the arc; one or the other ends the run by level 4 (module docstring).
    The level-62 backstop, which that bound keeps out of reach, raises
    ``ConvergenceError``, carrying the last bracket and the report.
    """
    lo, hi, levels = arms(a.y, b.y, tol)
    return Enclosure(lo, hi), ConvergenceReport(a.y, b.y, tol, STOP_TOLERANCE, levels)
