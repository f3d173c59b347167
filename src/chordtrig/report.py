"""Certified brackets and per-iteration convergence records.

An :class:`Enclosure` is an interval [lo, hi] that the producing routine has
argued (not merely observed) to contain the true value. A
:class:`ConvergenceReport` is the serializable trace of one bisection run:
one row per level m, ordered, with the bracket arms that run was tightening.

Tolerances below roughly 1e-13 exceed what binary64 evaluation of the arms
can certify; the bracket then still brackets the computed ladder but carries
O(eps * value) evaluation fuzz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

STOP_TOLERANCE = "tolerance_met"
STOP_CAP = "iteration_cap"

# Fixed CSV column order for iteration tables (kept stable for downstream
# plotting; do not reorder).
CSV_COLUMNS = (
    "m",
    "segment_length",
    "height",
    "total_length",
    "inner_area",
    "outer_area",
    "enclosure_lo",
    "enclosure_hi",
)


@dataclass(frozen=True)
class Enclosure:
    """A certified bracket [lo, hi] around a true length or area."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"enclosure arms out of order: [{self.lo!r}, {self.hi!r}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "mid": self.mid, "width": self.width}


@dataclass(frozen=True)
class IterationRow:
    """One level of a bisection run: the 2^m-segment state and its bracket."""

    m: int
    segment_length: float
    height: float
    total_length: float
    inner_area: float
    outer_area: float
    enclosure_lo: float
    enclosure_hi: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}


def fan_areas(total_length: float, height: float) -> tuple[float, float]:
    """Inscribed and circumscribed fan areas (L h / 2, L / (2 h)) of one level.

    The outer area never falls below the inner one: h <= 1 and IEEE rounding
    is monotone, so fl(t h) <= t <= fl(t / h) for t = L / 2.
    """
    half = 0.5 * total_length
    return half * height, half / height


@dataclass(frozen=True)
class ConvergenceReport:
    """Trace of one run: endpoints, tolerance, stop reason and the rows."""

    a_ordinate: float
    b_ordinate: float
    tolerance: float
    stop_reason: str
    rows: tuple[IterationRow, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "a_ordinate": self.a_ordinate,
            "b_ordinate": self.b_ordinate,
            "tolerance": self.tolerance,
            "stop_reason": self.stop_reason,
            "rows": [row.to_dict() for row in self.rows],
        }
