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

Series brackets. A chord l spans the arc 2 arcsin(l / 2), which is l times
Newton's series sum_k a_k q^k with q = l^2 / 4; the arc ladder of
:mod:`chordtrig.arclength` closes on it, and its ten stored terms,
P(q) = sum_(k<10) a_k q^k, bracket the arc by the chord alone:

    l P(q)  <=  arc  <=  l (P(q) + a_10 q^10 / (1 - q)).

The lower arm is l plus the excess l (P(q) - 1) = l q (a_1 + q (a_2 + ...)),
which does not cancel, and the arms are the tail l a_10 q^10 / (1 - q)
apart. A chord of an arc of the quarter circle has q <= 1/2. Summed over a
partition, the arms bracket the arc length inside [L(P), L(P) +
certificate], and the width falls like n^-20 where the certificate falls
like n^-2. :func:`scheme_limit` stops on them. The bisection partitions
have 2^m equal chords, whose summed arms are the arc ladder's closure at
level m: that family's limit is :func:`~chordtrig.arclength.arc_length`.

Rounding, in units of u = 2^-53, first order, as proven in
:mod:`chordtrig.arclength` at level 0, where r = q / (1 - q) <= 1. A grid
chord (:func:`_chord_stats`, :func:`~chordtrig.geometry.chord_length`'s
formula) is within 10, so its arc is within (1 + r/2) 10 <= 15, and q's
rounding moves P by r/4 <= 0.25. Horner's rule keeps a_1 + q (a_2 + ...)
within 3.5 (each inner q p_(j+1) is at most half of p_j), so the excess is
within 5.5 of itself; it is at most a tenth of the arm, which it moves by
0.55. The tail is below 2^-15 of the arm, so its own error counts for less
than 0.001. math.fsum is correctly rounded, so the sums of chords and of
excesses add 1.1, adding the excess 1 and the tail 1, widening each arm 1
and the midpoint 1: 20.9 in all, and each arm moves out by 24 u hi + n
2^-1071 for n chords (:func:`_pad`). An operation that underflows errs by
an absolute 2^-1075 instead, and at most eight of those reach a chord's
arms: the second term. So a widened bracket holds the arc length, and its
computed midpoint is within half its width of it.

Floor. Rounding the widened arms moves each by at most u hi, so once the
tail sum is below half an ulp of the lower arm (it falls like n^-20), a
bracket is at most 2 pad + 2u hi wide. The floor, 2 pad + 3u hi, is thus
met by some size whenever tol is at or above it, and :func:`scheme_limit`
raises once tol is below it: just above 2 pad, the widths can stay above
tol up to the size cap.

Three partition families are provided, all built by :func:`make_partition`:
the chord-bisection levels, grids uniform in the ordinate, and seeded
uniform random draws. The two grid families share one rule for ordinates
that collide in floating point: an ordinate that does not fall below the
last one kept is dropped, so both refine any arc, however short. The limit
runs evaluate exactly the ordinate lists that :func:`make_partition` turns
into points (no point objects), with the chord formula of
:func:`chordtrig.geometry.chord_length`, so a grid's sum of chords is
:func:`polygonal_length` of its partition bit for bit.
"""

import math
import random

from ._value import Value, set_field
from .arclength import SERIES, arms, bisection_step, upper_bound
from .errors import (CapacityError, ConvergenceError, DomainError, PrecisionFloorError,
                     as_integer, as_level, as_tolerance, check_arc, check_descending)
from .geometry import CirclePoint, chord_length, point_from_ordinate
from .report import ARC_BRACKET, SECTOR_BRACKET

SCHEMES = ("bisection", "ordinate_uniform", "random")

_MAX_PARTITION_LEVEL = 20
_MAX_PARTITION_POINTS = (1 << _MAX_PARTITION_LEVEL) + 1
_U = 2.0 ** -53                             # binary64 unit roundoff
_UNDERFLOW = 2.0 ** -1071                   # 8 * 2^-1074, per chord


class Partition(Value):
    """The points of a partition of an arc, kept as a tuple.

    The constructor checks what it holds: at least two points, each
    ordinate below the one before. ``norm``, the longest adjacent chord, is
    computed on each read.
    """

    __slots__ = _fields = ("points",)

    def __init__(self, points):
        pts = tuple(points)
        check_descending(pts, "partition")
        set_field(self, "points", pts)

    @property
    def norm(self) -> float:
        return max(map(chord_length, self.points, self.points[1:]))


def polygonal_length(p: Partition) -> float:
    """Length of the polygonal line through the partition's points."""
    return math.fsum(chord_length(u, v) for u, v in zip(p.points, p.points[1:]))


def refine_union(p: Partition, q: Partition) -> Partition:
    """The exact union of two partitions of the same arc, a refinement of
    both: every point of ``p`` and every point of ``q`` whose ordinate ``p``
    lacks. Endpoint ordinates that differ at all mean different arcs.
    """
    if p.points[0].y != q.points[0].y or p.points[-1].y != q.points[-1].y:
        raise DomainError("partitions cover different arcs")
    ys = {pt.y for pt in p.points}
    extras = [pt for pt in q.points if pt.y not in ys]
    return Partition(sorted((*p.points, *extras), key=lambda pt: -pt.y))


def refinement_gap_bound(p: Partition) -> float:
    """The paper's global bound on |L(P') - L(P)| over every refinement P'
    of ``p``: (l0 / h0^2) * ||P||^2 / (4 - ||P||^2)."""
    norm = p.norm
    return upper_bound(p.points[0], p.points[-1]) * norm * norm / (4.0 - norm * norm)


def _ordered_endpoints(a: CirclePoint, b: CirclePoint) -> tuple[CirclePoint, CirclePoint]:
    check_arc(a, b, "partitions")
    return (a, b) if a.y > b.y else (b, a)


def _check_scheme(scheme: str, seed: int | None) -> int | None:
    """The checked seed: ``None`` for a scheme that draws nothing, else a
    non-negative ``int`` (an ``int`` skips ``as_integer``)."""
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if seed is None:
        if scheme == "random":
            raise DomainError("the random scheme requires a seed")
        return None
    seed = seed if type(seed) is int else as_integer(seed, "seed")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return seed


def make_partition(a: CirclePoint, b: CirclePoint, scheme: str, size: int,
                   seed: int | None = None) -> Partition:
    """Build a partition of the arc ``ab`` under the named scheme.

    ``size`` is the level for ``bisection`` and the segment count for the
    other two schemes; ``random`` additionally requires a seed. Seed and
    size must be integers (bools are not), and a segment count lies in 1 ..
    2^20 (``DomainError`` below, ``CapacityError`` above). The scheme and
    seed are checked first, then the arc, then the size. The points go to
    :class:`Partition`, which checks their order and works out the norm
    when it is read.

    - ``bisection``: level ``size``, 2^size + 1 points; a level above 20
      raises ``CapacityError``.
    - ``ordinate_uniform``: ``size`` segments, uniform in y, not in arc;
      chords near y = 1 shrink only like the square root of the ordinate
      step, so the norm still tends to zero as ``size`` grows, just more
      slowly there.
    - ``random``: ``size - 1`` seeded uniform interior ordinate draws,
      sorted.

    In both grid schemes a repeated ordinate (a step below float
    resolution, or a repeated draw) would make a zero-length chord and is
    dropped, so a very short arc can get fewer than ``size + 1`` points;
    the ordinates always strictly decrease.
    """
    seed = _check_scheme(scheme, seed)
    hi, lo = _ordered_endpoints(a, b)
    if scheme != "bisection":
        n = as_integer(size, "segment count")
        if n < 1:
            raise DomainError(f"segment count must be positive, got {n}")
        if n + 1 > _MAX_PARTITION_POINTS:
            raise CapacityError(f"{n} segments exceed the partition size limit")
        return Partition(map(point_from_ordinate, _ordinates(scheme, hi.y, lo.y, n, seed)))
    pts = [hi, lo]
    for _ in range(as_level(size, _MAX_PARTITION_LEVEL)):
        pts = bisection_step(pts)
    return Partition(pts)


def _ordinates(scheme: str, hi_y: float, lo_y: float, n: int,
               seed: int | None) -> list[float]:
    """The ``n``-segment grid of a grid scheme, from ``hi_y`` down to
    ``lo_y``. The inner ordinates are ``i * d + hi_y`` for i = 1 .. n - 1,
    d = (lo_y - hi_y) / n, for ``ordinate_uniform`` (``i / n * (lo_y -
    hi_y) + hi_y`` if d underflows to 0), and ``n - 1`` sorted draws of
    ``lo_y + (hi_y - lo_y) * random()`` for ``random``, from a generator
    keyed by the seed and n (n < 2^21); ``lo_y`` ends the list. The tests
    pin both grids bit for bit, the uniform one against ``numpy.linspace``
    (which evaluates the same expressions) and the random one against a
    reference draw; the limits in ``tests/data/partition_golden.json``
    cannot, as a grid an ulp off can give the same limit.

    An ordinate that does not fall below the last one kept (a step below
    float resolution, or a repeated draw) would make a zero-length chord;
    both schemes drop it.

    The callers check the arguments: 1 <= n <= 2^20 (:func:`make_partition`
    by its size rule, :func:`scheme_limit` by its doubling loop) and, for
    ``random``, an ``int`` seed of at least 0 (:func:`_check_scheme`).
    """
    ys = [hi_y]
    if n > 1:  # one segment has no inner ordinate: no generator, no step
        if scheme == "random":
            draw = random.Random((seed << 21) | n).random
            span = hi_y - lo_y
            inner = sorted([lo_y + span * draw() for _ in range(n - 1)], reverse=True)
        else:
            delta = lo_y - hi_y
            step = delta / n
            inner = ([i * step + hi_y for i in range(1, n)] if step != 0.0
                     else [i / n * delta + hi_y for i in range(1, n)])
        for y in inner:
            if y < ys[-1]:
                ys.append(y)
    if lo_y < ys[-1]:
        ys.append(lo_y)
    return ys


def _chord_stats(ys: list[float]) -> tuple[float, float, float]:
    """(sum of l, excess, tail) over the adjacent chords l of one descending
    ordinate list: each l by the formula of geometry.chord_length, its
    series excess and tail (module docstring), each sum correctly rounded
    by math.fsum."""
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 = SERIES
    sqrt, hypot, fsum = math.sqrt, math.hypot, math.fsum
    chords, excesses, tails = [], [], []
    y0 = ys[0]
    x0 = sqrt((1.0 - y0) * (1.0 + y0))
    for y1 in ys[1:]:
        x1 = sqrt((1.0 - y1) * (1.0 + y1))
        ell = (y0 - y1) * hypot(1.0, (y0 + y1) / (x0 + x1))
        half = 0.5 * ell
        q = half * half
        chords.append(ell)
        excesses.append(ell * q * (a1 + q * (a2 + q * (a3 + q * (a4 + q * (
            a5 + q * (a6 + q * (a7 + q * (a8 + q * a9)))))))))
        tails.append(ell * a10 * q ** 10 / (1.0 - q))
        x0, y0 = x1, y1
    return fsum(chords), fsum(excesses), fsum(tails)


def _pad(hi: float, n: int) -> float:
    """How far each arm of an ``n``-chord bracket with upper arm ``hi`` moves
    outward: the rounding bound of the module docstring."""
    return 24.0 * _U * hi + n * _UNDERFLOW


def _polyline_stats(ys: list[float]) -> tuple[float, float]:
    """The widened series bracket [lo, hi] of the arc through a descending
    ordinate list."""
    total, excess, tail = _chord_stats(ys)
    lo = total + excess
    hi = lo + tail
    pad = _pad(hi, len(ys) - 1)
    return lo - pad, hi + pad


def _mid(a: CirclePoint, b: CirclePoint, tol: float, bracket: str) -> float:
    """The midpoint of the ladder run's ``bracket`` on the arc ``ab``, read
    from its bare arms (:func:`~chordtrig.arclength.arms`): no report."""
    lo, hi, _ = arms(a.y, b.y, tol, bracket)
    return 0.5 * (lo + hi)


def scheme_limit(a: CirclePoint, b: CirclePoint, scheme: str, tol: float,
                 seed: int | None = None) -> float:
    """Polygonal-length limit of the named partition family on the arc ``ab``.

    The value is the midpoint of the first widened series bracket (module
    docstring) at most ``tol`` wide. The bracket holds the arc length, which
    is the limit of every family, so the value is within ``tol / 2`` of it.

    Bisection is :func:`~chordtrig.arclength.arc_length`'s ladder, and the
    value its midpoint. The grid schemes double their segment count from 1,
    evaluating exactly the ordinate lists that :func:`make_partition` builds
    for them, up to 2^20 + 1 points; a run that has not met ``tol`` by then
    raises ``ConvergenceError``. A ``tol`` below the binary64 floor of the arc
    (module docstring; :func:`~chordtrig.arclength.arc_length`'s for
    bisection) raises ``PrecisionFloorError``, a ``ConvergenceError`` and a
    ``DomainError``, at once. The arguments are checked in
    :func:`make_partition`'s order: the scheme and seed, the arc, then
    ``tol``.
    """
    seed = _check_scheme(scheme, seed)
    hi, lo = _ordered_endpoints(a, b)
    if type(tol) is not float or not tol > 0.0:
        as_tolerance(tol)
    if scheme == "bisection":
        return _mid(hi, lo, tol, ARC_BRACKET)
    size = 1
    while size + 1 <= _MAX_PARTITION_POINTS:
        ys = _ordinates(scheme, hi.y, lo.y, size, seed)
        lo_arm, hi_arm = _polyline_stats(ys)
        if hi_arm - lo_arm <= tol:
            return 0.5 * (lo_arm + hi_arm)
        n = len(ys) - 1
        floor = 2.0 * _pad(hi_arm, n) + 3.0 * _U * hi_arm
        if floor > tol:
            raise PrecisionFloorError(
                f"tol {tol!r} is below the binary64 floor {floor:.3g} of the "
                f"{scheme} bracket on this arc ({n} segment{'s' * (n > 1)})")
        size *= 2
    raise ConvergenceError(
        f"{scheme} ladder reached its size limit above tol {tol!r}")


def compare_schemes(a: CirclePoint, b: CirclePoint, tol: float,
                    seed: int | None) -> tuple[dict[str, float], float]:
    """The paper's third question as one run: the :func:`scheme_limit` of
    each family on the arc ``ab``, keyed in :data:`SCHEMES` order, and their
    spread, the largest limit minus the smallest. The first error of a
    scheme ends the run."""
    limits = {scheme: scheme_limit(a, b, scheme, tol, seed=seed) for scheme in SCHEMES}
    return limits, max(limits.values()) - min(limits.values())


class AdditivityCheck(Value):
    """Whole-arc versus split-arc values, for lengths and for sector areas.

    ``arc_delta`` and ``sector_delta``, whole minus parts, are computed on
    each read; they are not fields, so they take no part in equality, the
    repr or pickling.
    """

    __slots__ = _fields = ("arc_whole", "arc_parts", "sector_whole", "sector_parts")

    @property
    def arc_delta(self) -> float:
        return self.arc_whole - self.arc_parts

    @property
    def sector_delta(self) -> float:
        return self.sector_whole - self.sector_parts


def additivity_check(a: CirclePoint, m_pt: CirclePoint, b: CirclePoint,
                     tol: float) -> AdditivityCheck:
    """Compare |arc ab| with |arc am| + |arc mb| (and the sector-area form).

    ``m_pt`` must lie between the endpoints in ordinate order; it may equal
    one of them, in which case the degenerate side contributes zero. Each
    returned value is the midpoint of a certified bracket at ``tol``, so the
    two sides of each pair agree to within a small multiple of ``tol``.
    """
    if not a.y >= m_pt.y >= b.y:
        raise DomainError(
            "split point must lie between the arc endpoints in ordinate order")
    arc_whole = _mid(a, b, tol, ARC_BRACKET)
    arc_parts = _mid(a, m_pt, tol, ARC_BRACKET) + _mid(m_pt, b, tol, ARC_BRACKET)
    sector_whole = _mid(a, b, tol, SECTOR_BRACKET)
    sector_parts = _mid(a, m_pt, tol, SECTOR_BRACKET) + _mid(m_pt, b, tol, SECTOR_BRACKET)
    return AdditivityCheck(arc_whole, arc_parts, sector_whole, sector_parts)
