"""Partitions of an arc, refinements, certified limits and additivity.

A partition is a finite point set on an arc with strictly decreasing
ordinates; its norm is the longest adjacent chord. Any sequence of
partitions whose norm tends to zero defines the same polygonal-length
limit, and two bounds certify how far a refinement can still move it.

A chord l of height h = sqrt(1 - l^2 / 4) caps every polygonal line of its
arc at l / h^2, so refining that one segment adds at most

    l (1/h^2 - 1) = l^3 / (4 - l^2).

Summed over the segments of P this gives the per-segment certificate: for
every refinement P' of P,

    |L(P') - L(P)| <= sum_i l_i^3 / (4 - l_i^2),

which is what :func:`scheme_limit` uses to stop. Coarsening each
l_i^2 / (4 - l_i^2) with the norm, and sum_i l_i with the whole arc's cap
l0 / h0^2, gives the paper's global bound

    |L(P') - L(P)| <= (l0 / h0^2) * ||P||^2 / (4 - ||P||^2),

:func:`refinement_gap_bound`. The certificate is far tighter on ordinate
grids, where only the top chord is long.

Three partition families are provided: the chord-bisection levels, grids
uniform in the ordinate, and seeded uniform random draws. The two grid
families share one rule for ordinates that collide in floating point: a
repeat is dropped, so both refine any arc, however short. The limit runs
evaluate exactly the ordinate arrays the builders turn into points (no
point objects), with the cancellation-free chord form of
:func:`chordtrig.geometry.chord_length`, |dy| * sqrt(1 + t^2), but not its
``math.hypot``: the two can differ in the last ulp.

numpy is imported inside the two grid kernels, :func:`_ordinates` and
:func:`_chord_stats`, and nowhere else. Arc length, sector area, pi,
arcsin, sin and the additivity check run on the scalar chord ladder alone,
so they, and ``import chordtrig``, never pay for loading numpy, which takes
several times as long as the rest of the import.
"""

from __future__ import annotations

import bisect
import math
from itertools import islice
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ._value import Value, set_field
from .arclength import DEFAULT_MAX_ITER, _rows, arc_length, bisection_step, upper_bound
from .errors import CapacityError, ConvergenceError, DegenerateArcError, DomainError
from .geometry import (
    CirclePoint,
    chord_length,
    compare_by_ordinate,
    point_from_ordinate,
)
from .sector import sector_area

if TYPE_CHECKING:
    import numpy as np

SCHEMES = ("bisection", "ordinate_uniform", "random")

# Two ordinates within this fraction of the arc's ordinate span name the
# same geometric point for union/refinement purposes.
DEDUPE_TOL = 1e-14

_MAX_PARTITION_LEVEL = 20
_MAX_PARTITION_POINTS = (1 << _MAX_PARTITION_LEVEL) + 1  # CirclePoint lists
_MAX_GRID_POINTS = (1 << 24) + 1            # scheme_limit ordinate arrays
_MAX_BISECTION_STEPS = 48                   # scheme_limit bisection levels
_CHUNK = 1 << 20


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
    elif seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")


def make_partition(a: CirclePoint, b: CirclePoint, scheme: str, size: int,
                   seed: int | None = None) -> Partition:
    """Build a partition of the arc ``ab`` under the named scheme.

    ``size`` is the level for ``bisection`` and the segment count for the
    other two schemes; ``random`` additionally requires a seed. The scheme
    and seed are checked first, then the arc, then the size.
    """
    _check_scheme(scheme, seed)
    hi, lo = _ordered_endpoints(a, b)
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


def _ordinates(scheme: str, hi_y: float, lo_y: float, n: int, seed: int | None,
               max_points: int = _MAX_PARTITION_POINTS) -> np.ndarray:
    """The ``n``-segment grid of a grid scheme, from ``hi_y`` down to
    ``lo_y``: evenly spaced for ``ordinate_uniform``, ``n - 1`` sorted seeded
    draws for ``random``.

    An ordinate that does not fall below its predecessor (a step below float
    resolution, or a repeated draw) would make a zero-length chord; both
    schemes drop it.

    The draws are those of ``Generator.uniform(lo_y, hi_y, n - 1)``, made
    in place: uniform's own array, and the copy that sorting a reversed
    view makes, would each be as large as the grid.
    """
    import numpy as np

    if n < 1:
        raise DomainError(f"segment count must be positive, got {n}")
    if n + 1 > max_points:
        raise CapacityError(f"{n} segments exceed the partition size limit")
    if scheme == "ordinate_uniform":
        ys = np.linspace(hi_y, lo_y, n + 1)
    else:
        ys = np.empty(n + 1)
        ys[0], ys[-1] = hi_y, lo_y
        draws = ys[1:-1]
        np.random.default_rng((int(seed), int(n))).random(out=draws)
        draws *= hi_y - lo_y
        draws += lo_y
        np.negative(draws, out=draws)  # descending order, sorted in place
        draws.sort()
        np.negative(draws, out=draws)
    falls = ys[1:] < ys[:-1]
    if falls.all():
        return ys
    return ys[np.concatenate(([True], falls))]


def _chord_stats(ys: np.ndarray) -> tuple[float, float]:
    """(sum of l, sum of l^3 / (4 - l^2)) over the adjacent chords l of one
    descending ordinate array.

    The cancellation-free form of geometry.chord_length, vectorized, with
    sqrt(1 + t^2) in place of its hypot(1, t): they can differ by one ulp,
    and np.hypot is slower on large grids.

    It works in four arrays, updated in place: a fresh temporary per
    operation would have the allocator hand large blocks back to the system
    and fault their pages in again on every grid. The operations and their
    order are those of x = sqrt((1 - y)(1 + y)), t = (y_i + y_(i+1)) /
    (x_i + x_(i+1)), l = dy * sqrt(1 + t^2) and l * l^2 / (4 - l^2), so
    both sums are the same bit for bit as from those plain expressions.
    """
    import numpy as np

    x = 1.0 - ys
    chords = 1.0 + ys
    x *= chords
    np.sqrt(x, out=x)                                       # x
    chords = np.subtract(ys[:-1], ys[1:], out=chords[:-1])  # dy
    t = ys[:-1] + ys[1:]
    w = x[:-1] + x[1:]
    t /= w                                                  # t
    np.multiply(t, t, out=w)
    w += 1.0
    np.sqrt(w, out=w)
    chords *= w                                             # l
    sq = np.multiply(chords, chords, out=t)                 # l^2
    np.multiply(chords, sq, out=w)
    np.subtract(4.0, sq, out=sq)
    w /= sq                                                 # l^3 / (4 - l^2)
    return float(chords.sum()), float(w.sum())


def _polyline_stats(ys: np.ndarray) -> tuple[float, float]:
    """(polygonal length, per-segment certificate) of a descending ordinate
    array.

    Chunked so the temporaries stay bounded for multi-million point grids.
    """
    total = 0.0
    certificate = 0.0
    for start in range(0, len(ys) - 1, _CHUNK):
        part_sum, part_cert = _chord_stats(ys[start:start + _CHUNK + 1])
        total += part_sum
        certificate += part_cert
    return total, certificate


def _ladder(hi: CirclePoint, lo: CirclePoint, scheme: str,
            seed: int | None) -> Iterator[tuple[float, float]]:
    """(polygonal length, certificate) of the scheme's partitions, by doubling
    size, up to the scheme's cap."""
    if scheme == "bisection":
        for ell, _, total, _ in islice(_rows(hi, lo), _MAX_BISECTION_STEPS + 1):
            sq = ell * ell
            yield total, total * sq / (4.0 - sq)
        return
    n = 1
    while n + 1 <= _MAX_GRID_POINTS:
        yield _polyline_stats(_ordinates(scheme, hi.y, lo.y, n, seed, _MAX_GRID_POINTS))
        n *= 2


def scheme_limit(a: CirclePoint, b: CirclePoint, scheme: str, tol: float,
                 seed: int | None = None) -> float:
    """Polygonal-length limit of the named partition family on the arc ``ab``.

    The ladder doubles the family's size parameter until two conditions hold
    at once: consecutive lengths differ by at most ``tol`` and the
    per-segment certificate sum_i l_i^3 / (4 - l_i^2) of the current
    partition is at most ``tol``. The second bounds every further
    refinement, hence the limit stays within ``tol`` of the reported value.

    Bisection climbs at most 48 levels. The grid schemes evaluate exactly
    the ordinate arrays that :func:`ordinate_uniform_partition` and
    :func:`random_partition` build, up to 2^24 + 1 points. A run that has
    not met ``tol`` by then raises ``ConvergenceError``.
    """
    hi, lo = _ordered_endpoints(a, b)
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    _check_scheme(scheme, seed)
    prev: float | None = None
    for value, certificate in _ladder(hi, lo, scheme, seed):
        if prev is not None and abs(value - prev) <= tol and certificate <= tol:
            return value
        prev = value
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
