"""Partitions of an arc, refinements, certified limits and additivity.

A partition is a finite point set on an arc with strictly decreasing
ordinates; its norm is the longest adjacent chord. Any sequence of
partitions whose norm tends to zero defines the same polygonal-length
limit, and two bounds certify how far a refinement can still move it.

A chord l of height h = sqrt(1 - l^2 / 4) caps every polygonal line of its
arc at l / h^2, so refining that one segment adds at most l^3 / (4 - l^2).
Summed over the segments of P this gives the per-segment certificate: for
every refinement P' of P,

    |L(P') - L(P)| <= sum_i l_i^3 / (4 - l_i^2).

Coarsening each l_i^2 / (4 - l_i^2) with the norm, and sum_i l_i with the
whole arc's cap l0 / h0^2, gives the paper's global bound
:func:`refinement_gap_bound`, (l0 / h0^2) * ||P||^2 / (4 - ||P||^2).

Snell-Huygens brackets. A chord l spans a sub-arc 2a with l = 2 sin a and
h = cos a, so Snell's and Huygens' inequalities (Cyclometricus, 1621; De
Circuli Magnitudine Inventa, 1654), 3 sin a / (2 + cos a) <= a <=
(2 sin a + tan a) / 3, bracket its arc by the chord alone:

    3l / (2 + h) <= arc <= l (2 + 1/h) / 3.

With q = l^2 / 4 = 1 - h^2, so that 1 - h = q / (1 + h), the lower arm is
l plus the Snell excess l q / ((2 + h)(1 + h)), and the arms are that
excess times q / (1.5 h (1 + h)) apart, which is l^5 / (24 h (1 + h)^2
(2 + h)): neither form cancels. Summed over a partition, they bracket the arc
length inside [L(P), L(P) + certificate], and the width falls like n^-4
where the certificate falls like n^-2. :func:`scheme_limit` stops on them.

Rounding (the style of Higham, Accuracy and Stability of Numerical
Algorithms, 2002, ch. 3). With u = 2^-53, each operation errs by a
relative u at most; ordinates are exact, as they define the partition.
Bounds are first order, the remainder falls in the spare units below.

- Grid chords (:func:`_chord_stats`). x = sqrt((1 - y)(1 + y)) is within
  2.5u, x_i + x_(i+1) within 3.5u, t within 5.5u, hypot(1, t) within
  7.5u (t^2 / (1 + t^2) <= 1, and Python >= 3.10's hypot is within 1 ulp)
  and l within 9.5u < 10u. Since q <= 1/2, 1 - q amplifies the 21u of q
  by at most q / (1 - q) <= 1, so h is within 12u, the excess within 46u
  and the width within 90u. The excess is at most 0.1082 l and the width
  at most 0.030 l (both at l = sqrt 2), so a chord's lower arm l + excess
  is within 15u l, its upper arm within 18u l. math.fsum is within u of
  the exact sum, so each sum is within 19u, and forming the two arms adds
  2u.
- Bisection levels (:func:`_ladder`). The ladder's rounding is proven in
  :mod:`chordtrig.arclength`: l_0 is within 10u and a step takes an error
  e to (1 + r/4) e + (2.875 + r/8)u, where r = q / (1 - q) is at most 1 at
  level 0 and 0.172 / 4^(m-1) at level m, so l_m is within (14 + 3.1m)u.
  L_m = 2^m l_m is exact, and the arms are within (18 + 3.5m)u of L_m's.
  The branch reads (l_m, h_m, L_m) from the ``FAN_BRACKET`` records, which
  form no closure.
- Widening (:func:`_pad`). Each arm moves out by (3 b + 48) u hi + n 2^-1071
  for n chords with bit length b: 3b + 48 is at least 21 + 2 (rounding the
  pad and the arm) + 1 (the midpoint's rounding) for the grid, and at
  least 3.5m + 22 for bisection levels m <= 13. An operation that
  underflows errs by an absolute 2^-1075 instead, and at most eight of
  those reach a chord's arms: the second term. So a widened bracket holds
  the arc length, and its midpoint is within half its width of it.
- Last bisection level. Let S be the arc length, W_m the computed raw
  width at level m, w_m the widened width and f_m = 2 pad the floor, and
  c_m = 3m + 51, so that the pad is c_m u hi + 2^m 2^-1071. A run passes
  level m + 1 only if f_(m+1) <= tol < w_m. The widened arms hold S, and
  w_m is their exact difference (Sterbenz), within 3u S (with three
  underflow errors) of W_m + 2 pad_m; c_(m+1) = c_m + 3 and the pad's
  second term doubles, so f_(m+1) < w_m needs W_m > 2.9u S. But W_m is at
  most 1.001 S l_m^4 / 133.9 (L_m <= S, and 1 / 133.9 bounds the width's
  factor c(h), see :func:`_first_grid_size`), and l_m <= pi / 2^(m+1), as
  an arc of the quarter circle spans at most pi/2; at m = 12 that is
  1.5u S. So every run stops or raises by level 13, and :func:`_ladder`
  records levels 0..13 only.

Three partition families are provided: the chord-bisection levels, grids
uniform in the ordinate, and seeded uniform random draws. The two grid
families share one rule for ordinates that collide in floating point: an
ordinate that does not fall below the last one kept is dropped, so both
refine any arc, however short. The limit runs evaluate exactly the
ordinate lists the builders turn into points (no point objects), with the
chord formula of :func:`chordtrig.geometry.chord_length`, so a grid's sum
of chords is :func:`polygonal_length` of its partition bit for bit.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Iterator
from typing import NamedTuple

from ._value import Value, set_field
from .arclength import (DEFAULT_MAX_ITER, arc_length, bisection_step, ladder_levels,
                        upper_bound)
from .errors import (CapacityError, ConvergenceError, DegenerateArcError, DomainError,
                     PrecisionFloorError, as_integer)
from .geometry import (
    CirclePoint,
    chord_length,
    compare_by_ordinate,
    height_for_chord,
    point_from_ordinate,
)
from .report import FAN_BRACKET
from .sector import sector_area

SCHEMES = ("bisection", "ordinate_uniform", "random")

# Two ordinates within this fraction of the arc's ordinate span name the
# same geometric point for union/refinement purposes.
DEDUPE_TOL = 1e-14

_MAX_PARTITION_LEVEL = 20
_MAX_PARTITION_POINTS = (1 << _MAX_PARTITION_LEVEL) + 1
_MAX_BISECTION_LEVEL = 13                   # every bisection run ends by it
_U = 2.0 ** -53                             # binary64 unit roundoff
_UNDERFLOW = 2.0 ** -1071                   # 8 * 2^-1074, per chord


class Partition(Value):
    """Ordered points of an arc (strictly decreasing ordinates) and the norm."""

    __slots__ = _fields = ("points", "norm")

    def __init__(self, points: tuple[CirclePoint, ...], norm: float):
        set_field(self, "points", points)
        set_field(self, "norm", norm)

    @classmethod
    def from_points(cls, points) -> "Partition":
        pts = tuple(points)
        if len(pts) < 2:
            raise DomainError("a partition needs at least two points")
        norm = 0.0
        for prev, cur in zip(pts, pts[1:]):
            if compare_by_ordinate(prev, cur) <= 0:
                raise DomainError(
                    "partition ordinates must be strictly decreasing")
            norm = max(norm, chord_length(prev, cur))
        return cls(points=pts, norm=norm)

    @property
    def arc_hi(self) -> CirclePoint:
        return self.points[0]

    @property
    def arc_lo(self) -> CirclePoint:
        return self.points[-1]


def polygonal_length(p: Partition) -> float:
    """Length of the polygonal line through the partition's points."""
    return math.fsum(chord_length(u, v) for u, v in zip(p.points, p.points[1:]))


def refine_union(p: Partition, q: Partition) -> Partition:
    """The common refinement: all points of ``p`` plus the interior points of
    ``q`` that are not already present.

    Presence is judged on ordinates within ``DEDUPE_TOL`` times the arc's
    ordinate span, since the same geometric point can arrive through
    different arithmetic; scaling by the span keeps distinct points of a
    short arc apart. Every point of ``p`` is kept, so the result is a
    refinement of ``p`` exactly and of ``q`` up to the dedupe tolerance.
    """
    tol = DEDUPE_TOL * (p.arc_hi.y - p.arc_lo.y)
    if (abs(p.arc_hi.y - q.arc_hi.y) > tol
            or abs(p.arc_lo.y - q.arc_lo.y) > tol):
        raise DomainError("partitions cover different arcs")
    kept_ys = sorted(pt.y for pt in p.points)  # ascending, for bisect
    extras: list[CirclePoint] = []
    for pt in q.points[1:-1]:
        i = bisect.bisect_left(kept_ys, pt.y)
        near_lo = i > 0 and pt.y - kept_ys[i - 1] <= tol
        near_hi = i < len(kept_ys) and kept_ys[i] - pt.y <= tol
        if not (near_lo or near_hi):
            kept_ys.insert(i, pt.y)
            extras.append(pt)
    merged = sorted((*p.points, *extras), key=lambda pt: -pt.y)
    return Partition.from_points(merged)


def refinement_gap_bound(p: Partition) -> float:
    """The paper's global bound on |L(P') - L(P)| over every refinement P'
    of ``p``: (l0 / h0^2) * ||P||^2 / (4 - ||P||^2)."""
    norm = p.norm
    return upper_bound(p.arc_hi, p.arc_lo) * norm * norm / (4.0 - norm * norm)


def _ordered_endpoints(a: CirclePoint, b: CirclePoint) -> tuple[CirclePoint, CirclePoint]:
    if a.y == b.y:
        raise DegenerateArcError("partitions need a non-degenerate arc")
    return (a, b) if a.y > b.y else (b, a)


def bisection_partition(a: CirclePoint, b: CirclePoint, m: int) -> Partition:
    """Level-``m`` bisection partition: 2^m + 1 points."""
    return make_partition(a, b, "bisection", m)


def ordinate_uniform_partition(a: CirclePoint, b: CirclePoint, n: int) -> Partition:
    """Partition with ``n`` segments, uniform in the ordinate.

    Spacing is uniform in y, not in arc; chords near y = 1 shrink only like
    the square root of the ordinate step, so the norm still tends to zero as
    n grows, just more slowly there. A step below float resolution repeats
    ordinates; the repeats (zero-length chords) are dropped, so a very short
    arc can get fewer than n + 1 points.
    """
    return make_partition(a, b, "ordinate_uniform", n)


def random_partition(a: CirclePoint, b: CirclePoint, n: int, seed: int) -> Partition:
    """Partition from ``n - 1`` uniform interior ordinate draws (seeded).

    Draws are sorted and repeated ordinates dropped, by the rule of
    :func:`ordinate_uniform_partition`, so the result can have fewer than
    n + 1 points but always strictly decreasing ordinates.
    """
    return make_partition(a, b, "random", n, seed)


def _check_scheme(scheme: str, seed: int | None) -> None:
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if seed is None:
        if scheme == "random":
            raise DomainError("the random scheme requires a seed")
    elif as_integer(seed, "seed") < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")


def make_partition(a: CirclePoint, b: CirclePoint, scheme: str, size: int,
                   seed: int | None = None) -> Partition:
    """Build a partition of the arc ``ab`` under the named scheme.

    ``size`` is the level for ``bisection`` and the segment count for the
    other two schemes; ``random`` additionally requires a seed. Seed and
    size must be integers (bools are not). The scheme and seed are checked
    first, then the arc, then the size.
    """
    _check_scheme(scheme, seed)
    hi, lo = _ordered_endpoints(a, b)
    size = as_integer(size, "level" if scheme == "bisection" else "segment count")
    if scheme != "bisection":
        ys = _ordinates(scheme, hi.y, lo.y, size, seed)
        return Partition.from_points(point_from_ordinate(y) for y in ys)
    if size < 0:
        raise DomainError(f"level must be non-negative, got {size}")
    if size > _MAX_PARTITION_LEVEL:
        raise CapacityError(f"level {size} would materialize 2^{size} + 1 points")
    pts = [hi, lo]
    for _ in range(size):
        pts = bisection_step(pts)
    return Partition.from_points(pts)


def _ordinates(scheme: str, hi_y: float, lo_y: float, n: int,
               seed: int | None) -> list[float]:
    """The ``n``-segment grid of a grid scheme, from ``hi_y`` down to
    ``lo_y``: evenly spaced for ``ordinate_uniform`` (the arithmetic of
    ``numpy.linspace``, with its fallback for a step that underflows to 0),
    ``n - 1`` sorted draws of ``lo_y + (hi_y - lo_y) * random()`` for
    ``random``, from a generator keyed by the seed and n (n < 2^21).

    An ordinate that does not fall below the last one kept (a step below
    float resolution, or a repeated draw) would make a zero-length chord;
    both schemes drop it.
    """
    if n < 1:
        raise DomainError(f"segment count must be positive, got {n}")
    if n + 1 > _MAX_PARTITION_POINTS:
        raise CapacityError(f"{n} segments exceed the partition size limit")
    if scheme == "random":
        draw = random.Random((as_integer(seed, "seed") << 21) | n).random
        span = hi_y - lo_y
        inner = sorted([lo_y + span * draw() for _ in range(n - 1)], reverse=True)
    else:
        delta = lo_y - hi_y
        step = delta / n
        inner = ([i * step + hi_y for i in range(1, n)] if step != 0.0
                 else [i / n * delta + hi_y for i in range(1, n)])
    inner.append(lo_y)
    ys = [hi_y]
    for y in inner:
        if y < ys[-1]:
            ys.append(y)
    return ys


def _chord_stats(ys: list[float]) -> tuple[float, float, float]:
    """(sum of l, Snell excess, Snell-Huygens width) over the adjacent
    chords l of one descending ordinate list: each l by the formula of
    geometry.chord_length, each sum correctly rounded by math.fsum."""
    chords, excesses, widths = [], [], []
    x0 = math.sqrt((1.0 - ys[0]) * (1.0 + ys[0]))
    for y0, y1 in zip(ys, ys[1:]):
        x1 = math.sqrt((1.0 - y1) * (1.0 + y1))
        ell = (y0 - y1) * math.hypot(1.0, (y0 + y1) / (x0 + x1))
        excess, width = _snell_huygens(ell, ell, math.sqrt(1.0 - ell * ell * 0.25))
        chords.append(ell)
        excesses.append(excess)
        widths.append(width)
        x0 = x1
    return math.fsum(chords), math.fsum(excesses), math.fsum(widths)


def _snell_huygens(total: float, ell: float, h: float) -> tuple[float, float]:
    """(Snell excess, width) of ``total / ell`` chords of length ``ell`` and
    height ``h``: the one copy of these expressions."""
    q = ell * ell * 0.25
    excess = total * q / (2.0 + h) / (1.0 + h)
    return excess, excess * q / (1.5 * h * (1.0 + h))


def _pad(hi: float, n: int) -> float:
    """How far each arm of an ``n``-chord bracket with upper arm ``hi`` moves
    outward: the rounding bound of the module docstring."""
    return (3 * n.bit_length() + 48) * _U * hi + n * _UNDERFLOW


def _arms(total: float, excess: float, width: float, n: int) -> tuple[float, float]:
    """The widened bracket from the three sums over ``n`` chords."""
    lo = total + excess
    hi = lo + width
    pad = _pad(hi, n)
    return lo - pad, hi + pad


def _polyline_stats(ys: list[float]) -> tuple[float, float]:
    """The widened Snell-Huygens bracket [lo, hi] of the arc through a
    descending ordinate list."""
    return _arms(*_chord_stats(ys), len(ys) - 1)


def _first_grid_size(hi: CirclePoint, lo: CirclePoint, tol: float) -> int:
    """The size at which a grid ladder from n = 1 could first stop.

    A partition of at most n segments has width at least sum_i l_i^5 / 288
    >= l^5 / (288 n^4) >= 0.465 W / n^4, where l is the whole arc's chord
    and W its own width: c(h) = 1 / (24 h (1 + h)^2 (2 + h)) falls from
    1 / 133.9 at the quarter arc's h to 1 / 288 at h = 1, and sum_i l_i >= l
    with the power mean give the middle step. Let n_s be the least power of
    two with W / n_s^4 <= tol / 2; then W / n_s^4 > tol / 32, so at n_s / 4
    every grid is wider than 3.7 tol, and the ladder cannot stop below
    n_s / 2. Starting there (or lower, at the size cap) gives the value of
    the ladder from n = 1 bit for bit; the rounding of W is far inside the
    factor 3.7, and the widening grows with n, so both also raise alike.
    """
    ell = chord_length(hi, lo)
    width = _snell_huygens(ell, ell, height_for_chord(ell))[1]
    n = 1
    while n + 1 < _MAX_PARTITION_POINTS and width > 0.5 * tol * n ** 4:
        n *= 2
    return max(1, n // 2)


def _ladder(hi: CirclePoint, lo: CirclePoint, scheme: str, seed: int | None,
            tol: float) -> Iterator[tuple[int, float, float]]:
    """(chords, lo, hi): the widened bracket of the scheme's partitions, by
    doubling size, up to the scheme's cap."""
    if scheme == "bisection":
        levels = ladder_levels(hi, lo, _MAX_BISECTION_LEVEL, FAN_BRACKET)
        for m, (ell, h, total, _, _) in enumerate(levels):
            yield 1 << m, *_arms(total, *_snell_huygens(total, ell, h), 1 << m)
        return
    n = _first_grid_size(hi, lo, tol)
    while n + 1 <= _MAX_PARTITION_POINTS:
        ys = _ordinates(scheme, hi.y, lo.y, n, seed)
        yield len(ys) - 1, *_polyline_stats(ys)
        n *= 2


def scheme_limit(a: CirclePoint, b: CirclePoint, scheme: str, tol: float,
                 seed: int | None = None) -> float:
    """Polygonal-length limit of the named partition family on the arc ``ab``.

    The ladder doubles the family's size parameter and returns the midpoint
    of the first widened Snell-Huygens bracket (module docstring) at most
    ``tol`` wide. The bracket holds the arc length, which is the limit of
    every family, so the value is within ``tol / 2`` of it.

    Bisection ends by level 13. The grid schemes evaluate exactly
    the ordinate lists that :func:`ordinate_uniform_partition` and
    :func:`random_partition` build, up to 2^20 + 1 points, starting at the
    first size that could meet ``tol`` (:func:`_first_grid_size`). A run
    that has not met ``tol`` by then raises ``ConvergenceError``. Once the
    widening alone is wider than ``tol``, the binary64 floor of the arc,
    no size can meet it: that raises ``PrecisionFloorError``, a
    ``ConvergenceError`` and a ``DomainError``, at once.
    """
    hi, lo = _ordered_endpoints(a, b)
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    _check_scheme(scheme, seed)
    for n, lo_arm, hi_arm in _ladder(hi, lo, scheme, seed, tol):
        if hi_arm - lo_arm <= tol:
            return 0.5 * (lo_arm + hi_arm)
        floor = 2.0 * _pad(hi_arm, n)
        if floor > tol:
            raise PrecisionFloorError(
                f"tol {tol!r} is below the binary64 floor {floor:.3g} of the "
                f"{scheme} bracket on this arc ({n} segment{'s' * (n > 1)})")
    raise ConvergenceError(
        f"{scheme} ladder reached its size limit above tol {tol!r}")


class AdditivityCheck(NamedTuple):
    """Whole-arc versus split-arc values, for lengths and for sector areas."""

    arc_whole: float
    arc_parts: float
    sector_whole: float
    sector_parts: float


def additivity_check(a: CirclePoint, m_pt: CirclePoint, b: CirclePoint,
                     tol: float, max_iter: int = DEFAULT_MAX_ITER) -> AdditivityCheck:
    """Compare |arc ab| with |arc am| + |arc mb| (and the sector-area form).

    ``m_pt`` must lie between the endpoints in ordinate order; it may equal
    one of them, in which case the degenerate side contributes zero. Each
    returned value is the midpoint of a certified bracket at ``tol``, so the
    two sides of each pair agree to within a small multiple of ``tol``.
    """
    if not a.y >= m_pt.y >= b.y:
        raise DomainError(
            "split point must lie between the arc endpoints in ordinate order")
    arc_whole = arc_length(a, b, tol, max_iter)[0].mid
    arc_parts = (arc_length(a, m_pt, tol, max_iter)[0].mid
                 + arc_length(m_pt, b, tol, max_iter)[0].mid)
    sector_whole = sector_area(a, b, tol, max_iter)[0].mid
    sector_parts = (sector_area(a, m_pt, tol, max_iter)[0].mid
                    + sector_area(m_pt, b, tol, max_iter)[0].mid)
    return AdditivityCheck(arc_whole, arc_parts, sector_whole, sector_parts)
