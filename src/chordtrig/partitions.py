"""Partitions of an arc, refinements, norm-driven limits and additivity.

A partition is a finite point set on an arc with strictly decreasing
ordinates; its norm is the longest adjacent chord. Any sequence of
partitions whose norm tends to zero defines the same polygonal-length
limit: the refinement bound

    |L(P') - L(P)| <= (l0 / h0^2) * ||P||^2 / (4 - ||P||^2)

for every refinement P' of P certifies how far the current polygonal
length can still move, which is what :func:`scheme_limit` uses to stop.

Three partition families are provided: the chord-bisection levels, grids
uniform in the ordinate, and seeded uniform random draws. The limit runs
evaluate big grids as ordinate arrays (no point objects) with the same
stable chord formula as :func:`chordtrig.geometry.chord_length`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arclength import DEFAULT_MAX_ITER, _rows, arc_length, bisection_step
from .errors import CapacityError, ConvergenceError, DegenerateArcError, DomainError
from .geometry import (
    CirclePoint,
    chord_length,
    compare_by_ordinate,
    height_for_chord,
    point_from_ordinate,
)
from .sector import sector_area

SCHEMES = ("bisection", "ordinate_uniform", "random")

# Interior ordinates closer than this to a kept neighbour are dropped when
# building random partitions (strict decrease must survive float collisions).
MIN_ORDINATE_GAP = 1e-12

# Two ordinates within this of each other name the same geometric point for
# union/refinement purposes.
DEDUPE_TOL = 1e-14

_MAX_PARTITION_POINTS = (1 << 20) + 1       # materialized CirclePoint lists
_MAX_MATERIAL_POINTS = (1 << 24) + 1        # materialized ordinate arrays
_MAX_STREAM_POINTS = (1 << 31) + 1          # streamed limit-run grids
_MAX_BISECTION_STEPS = 48                   # scheme_limit bisection levels
_CHUNK = 1 << 20


@dataclass(frozen=True)
class Partition:
    """Ordered points of an arc (strictly decreasing ordinates) and the norm."""

    points: tuple[CirclePoint, ...]
    norm: float

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

    Presence is judged on ordinates within ``DEDUPE_TOL``, since the same
    geometric point can arrive through different arithmetic. Every point of
    ``p`` is kept, so the result is a refinement of ``p`` exactly and of
    ``q`` up to the dedupe tolerance.
    """
    if (abs(p.arc_hi.y - q.arc_hi.y) > DEDUPE_TOL
            or abs(p.arc_lo.y - q.arc_lo.y) > DEDUPE_TOL):
        raise DomainError("partitions cover different arcs")
    kept_ys = sorted(pt.y for pt in p.points)  # ascending, for bisect
    extras: list[CirclePoint] = []
    for pt in q.points[1:-1]:
        i = bisect.bisect_left(kept_ys, pt.y)
        near_lo = i > 0 and pt.y - kept_ys[i - 1] <= DEDUPE_TOL
        near_hi = i < len(kept_ys) and kept_ys[i] - pt.y <= DEDUPE_TOL
        if not (near_lo or near_hi):
            kept_ys.insert(i, pt.y)
            extras.append(pt)
    merged = sorted((*p.points, *extras), key=lambda pt: -pt.y)
    return Partition.from_points(merged)


def refinement_gap_bound(p: Partition) -> float:
    """Bound on |L(P') - L(P)| over every refinement P' of ``p``."""
    ell0 = chord_length(p.arc_hi, p.arc_lo)
    h0 = height_for_chord(ell0)
    return _gap_bound(ell0 / (h0 * h0), p.norm)


def _gap_bound(cap_factor: float, norm: float) -> float:
    return cap_factor * norm * norm / (4.0 - norm * norm)


def _ordered_endpoints(a: CirclePoint, b: CirclePoint) -> tuple[CirclePoint, CirclePoint]:
    if a.y == b.y:
        raise DegenerateArcError("partitions need a non-degenerate arc")
    return (a, b) if a.y > b.y else (b, a)


def bisection_partition(a: CirclePoint, b: CirclePoint, m: int) -> Partition:
    """Level-``m`` bisection partition: 2^m + 1 points."""
    hi, lo = _ordered_endpoints(a, b)
    if m < 0:
        raise DomainError(f"level must be non-negative, got {m}")
    if (1 << max(m, 0)) + 1 > _MAX_PARTITION_POINTS:
        raise CapacityError(f"level {m} would materialize 2^{m} + 1 points")
    pts = [hi, lo]
    for _ in range(m):
        pts = bisection_step(pts)
    return Partition.from_points(pts)


def ordinate_uniform_partition(a: CirclePoint, b: CirclePoint, n: int) -> Partition:
    """Partition with ``n`` segments, uniform in the ordinate.

    Spacing is uniform in y, not in arc; chords near y = 1 shrink only like
    the square root of the ordinate step, so the norm still tends to zero as
    n grows, just more slowly there.
    """
    hi, lo = _ordered_endpoints(a, b)
    ys = _uniform_ordinates(hi.y, lo.y, n)
    return Partition.from_points(point_from_ordinate(y) for y in ys)


def random_partition(a: CirclePoint, b: CirclePoint, n: int, seed: int) -> Partition:
    """Partition from ``n - 1`` uniform interior ordinate draws (seeded).

    Draws are sorted, and interior values closer than ``MIN_ORDINATE_GAP``
    to a kept neighbour are dropped, so the result can have fewer than
    n + 1 points but always strictly decreasing ordinates.
    """
    hi, lo = _ordered_endpoints(a, b)
    ys = _random_ordinates(hi.y, lo.y, n, seed)
    return Partition.from_points(point_from_ordinate(y) for y in ys)


def make_partition(a: CirclePoint, b: CirclePoint, scheme: str, size: int,
                   seed: int | None = None) -> Partition:
    """Build a partition of the arc ``ab`` under the named scheme.

    ``size`` is the level for ``bisection`` and the segment count for the
    other two schemes; ``random`` additionally requires a seed.
    """
    if scheme == "bisection":
        return bisection_partition(a, b, size)
    if scheme == "ordinate_uniform":
        return ordinate_uniform_partition(a, b, size)
    if scheme == "random":
        if seed is None:
            raise DomainError("the random scheme requires a seed")
        return random_partition(a, b, size, seed)
    raise DomainError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _uniform_ordinates(hi_y: float, lo_y: float, n: int) -> np.ndarray:
    if n < 1:
        raise DomainError(f"segment count must be positive, got {n}")
    if n + 1 > _MAX_PARTITION_POINTS:
        raise CapacityError(f"{n} segments exceed the partition size limit")
    ys = np.linspace(hi_y, lo_y, n + 1)
    if not np.all(np.diff(ys) < 0.0):
        raise DomainError(
            "ordinate step fell below float resolution for this arc")
    return ys


def _rng(seed: int, n: int) -> np.random.Generator:
    """The generator behind the seeded n-segment random partition."""
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng((int(seed), int(n)))


def _random_ordinates(hi_y: float, lo_y: float, n: int, seed: int,
                      max_points: int = _MAX_PARTITION_POINTS) -> np.ndarray:
    if n < 1:
        raise DomainError(f"segment count must be positive, got {n}")
    if n + 1 > max_points:
        raise CapacityError(f"{n} segments exceed the partition size limit")
    rng = _rng(seed, n)
    interior = rng.uniform(lo_y, hi_y, n - 1)
    interior[::-1].sort()
    ys = np.concatenate(([hi_y], interior, [lo_y]))
    return _dedupe_descending(ys, MIN_ORDINATE_GAP)


def _dedupe_descending(ys: np.ndarray, min_gap: float) -> np.ndarray:
    """Drop interior entries of a descending array that crowd a kept neighbour."""
    if len(ys) <= 2:
        return ys
    if float(np.min(-np.diff(ys))) >= min_gap:
        return ys
    kept = [ys[0]]
    end = ys[-1]
    for v in ys[1:-1]:
        if kept[-1] - v >= min_gap and v - end >= min_gap:
            kept.append(v)
    kept.append(end)
    return np.asarray(kept)


def _chord_stats(ys: np.ndarray) -> tuple[float, float]:
    """(sum, max) of adjacent chord lengths of one descending ordinate array.

    Same stable evaluation as geometry.chord_length, vectorized.
    """
    x = np.sqrt((1.0 - ys) * (1.0 + ys))
    dy = ys[:-1] - ys[1:]
    t = (ys[:-1] + ys[1:]) / (x[:-1] + x[1:])
    chords = dy * np.sqrt(1.0 + t * t)
    return float(chords.sum()), float(chords.max())


def _polyline_stats(ys: np.ndarray) -> tuple[float, float]:
    """(polygonal length, norm) of a materialized descending ordinate array.

    Chunked so the temporaries stay bounded for multi-million point grids.
    """
    total = 0.0
    norm = 0.0
    for start in range(0, len(ys) - 1, _CHUNK):
        part_sum, part_max = _chord_stats(ys[start:start + _CHUNK + 1])
        total += part_sum
        norm = max(norm, part_max)
    return total, norm


def _uniform_stats(hi_y: float, lo_y: float, n: int) -> tuple[float, float]:
    """Limit-run stats for the n-segment ordinate-uniform grid, streamed.

    The grid is generated chunk by chunk (top ordinate minus index * step),
    so grids far beyond what could be materialized stay cheap in memory.
    Adjacent chunks share one grid point, recomputed identically.
    """
    step = (hi_y - lo_y) / n
    total = 0.0
    norm = 0.0
    for start in range(0, n, _CHUNK):
        count = min(_CHUNK, n - start)
        idx = np.arange(start, start + count + 1, dtype=np.float64)
        ys = hi_y - idx * step
        if start + count == n:
            ys[-1] = lo_y
        part_sum, part_max = _chord_stats(ys)
        total += part_sum
        norm = max(norm, part_max)
    return total, norm


def _random_stats(hi_y: float, lo_y: float, n: int, seed: int) -> tuple[float, float]:
    """Limit-run stats for the n-segment seeded random partition.

    Up to the materialization cap this evaluates exactly the partition that
    random_partition builds for the same (n, seed). Beyond it, sorted
    uniform draws are produced by the exponential-spacings construction of
    uniform order statistics, streamed in two reproducible passes (one for
    the spacing total, one for the cumulative grid), never holding the grid
    in memory.
    """
    if n + 1 <= _MAX_MATERIAL_POINTS:
        return _polyline_stats(_random_ordinates(hi_y, lo_y, n, seed,
                                                 _MAX_MATERIAL_POINTS))
    span = hi_y - lo_y
    rng = _rng(seed, n)
    total_spacing = 0.0
    remaining = n
    while remaining:
        k = min(_CHUNK, remaining)
        total_spacing += float(rng.standard_exponential(k).sum())
        remaining -= k
    rng = _rng(seed, n)
    total = 0.0
    norm = 0.0
    carry = hi_y
    cum = 0.0
    remaining = n
    while remaining:
        k = min(_CHUNK, remaining)
        cs = np.cumsum(rng.standard_exponential(k)) + cum
        cum = float(cs[-1])
        remaining -= k
        ys = hi_y - span * (cs / total_spacing)
        if remaining == 0:
            ys[-1] = lo_y
        # single-pass near-duplicate drop; a chained collision would need two
        # adjacent sub-1e-12 spacings, which these densities never produce
        head = np.concatenate(([carry], ys))
        keep = (head[:-1] - head[1:]) >= MIN_ORDINATE_GAP
        keep[-1] = True
        ys = np.concatenate(([carry], ys[keep]))
        part_sum, part_max = _chord_stats(ys)
        total += part_sum
        norm = max(norm, part_max)
        carry = float(ys[-1])
    return total, norm


def scheme_limit(a: CirclePoint, b: CirclePoint, scheme: str, tol: float,
                 seed: int | None = None) -> float:
    """Polygonal-length limit of the named partition family on the arc ``ab``.

    The ladder doubles the family's size parameter until two conditions hold
    at once: consecutive lengths differ by at most ``tol`` and the
    refinement bound at the current norm is at most ``tol``. The second is
    the certificate: every further refinement, hence the limit, stays within
    ``tol`` of the reported value.

    Arcs whose upper endpoint sits at or very near y = 1 make the ordinate
    schemes expensive at tight tolerances (their top chord shrinks only like
    the square root of the grid step); such runs stream grids of up to ~2e9
    segments and can take minutes at 1e-9.
    """
    hi, lo = _ordered_endpoints(a, b)
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    ell0 = chord_length(hi, lo)
    h0 = height_for_chord(ell0)
    cap_factor = ell0 / (h0 * h0)

    prev: float | None = None
    if scheme == "bisection":
        for row in _rows(hi, lo):
            value, norm = row.total_length, row.segment_length
            bound = _gap_bound(cap_factor, norm)
            if prev is not None and abs(value - prev) <= tol and bound <= tol:
                return value
            prev = value
            if row.m >= _MAX_BISECTION_STEPS:
                break
        raise ConvergenceError(
            f"bisection ladder exhausted {_MAX_BISECTION_STEPS} levels above tol {tol!r}")

    if scheme == "random" and seed is None:
        raise DomainError("the random scheme requires a seed")
    n = 1
    while n + 1 <= _MAX_STREAM_POINTS:
        if scheme == "ordinate_uniform":
            value, norm = _uniform_stats(hi.y, lo.y, n)
        else:
            value, norm = _random_stats(hi.y, lo.y, n, seed)
        bound = _gap_bound(cap_factor, norm)
        if prev is not None and abs(value - prev) <= tol and bound <= tol:
            return value
        prev = value
        n *= 2
    raise ConvergenceError(
        f"{scheme} ladder exhausted {_MAX_STREAM_POINTS} points above tol {tol!r}")


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
