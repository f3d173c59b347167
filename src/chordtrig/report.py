"""Certified brackets and per-iteration convergence records.

An :class:`Enclosure` is an interval [lo, hi] that the producing routine has
argued (not merely observed) to contain the true value. A
:class:`ConvergenceReport` is the serializable trace of one bisection run:
one row per level m, ordered, with the bracket arms that run was tightening.

A ladder run keeps the (l, h, lo, hi) tuple of each level as the ladder
yielded it, arms included (:func:`ladder_report`); the rest of a row follows
from (l, h), so ``rows`` builds the :class:`IterationRow` table on first
read, through :func:`level_row`, and keeps it. A run whose report is never
read (``sin``'s inner ``arcsin`` runs) builds no rows at all.

Tolerances below roughly 1e-13 exceed what binary64 evaluation of the arms
can certify; the bracket then still brackets the computed ladder but carries
O(eps * value) evaluation fuzz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

STOP_TOLERANCE = "tolerance_met"
STOP_CAP = "iteration_cap"

# Brackets a ladder can yield (arclength._rows): [L_m, L_m / h_m] for arc
# length, the two fans [L_m h_m / 2, L_m / (2 h_m)] for sector area.
ARC_BRACKET = "arc"
FAN_BRACKET = "fans"

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


def level_row(m: int, segment_length: float, height: float, lo: float,
              hi: float) -> IterationRow:
    """The row of ladder level ``m`` from its (l, h) pair and bracket arms."""
    total = math.ldexp(segment_length, m)
    inner, outer = fan_areas(total, height)
    return IterationRow(m, segment_length, height, total, inner, outer, lo, hi)


class _LazyRows:
    """Default of :attr:`ConvergenceReport.rows`: ``()`` on the class, which
    the dataclass takes as the field default. A report from
    :func:`ladder_report` has no ``rows`` entry of its own, so its first read
    lands here, builds the rows from its levels and caches them in the
    instance, which shadows this descriptor from then on."""

    def __get__(self, report, owner=None):
        if report is None:
            return ()
        # Built from a list, not a generator: CPython's tuple(generator) grows
        # a small tuple by resizing, and the freed results then pile up in
        # its per-size tuple free lists (+4 MB peak RSS over 10^5 reads on
        # CPython 3.11).
        rows = tuple([level_row(m, *level) for m, level in enumerate(report._levels)])
        report.__dict__["rows"] = rows
        return rows


@dataclass(frozen=True)
class ConvergenceReport:
    """Trace of one run: endpoints, tolerance, stop reason and the rows."""

    a_ordinate: float
    b_ordinate: float
    tolerance: float
    stop_reason: str
    rows: tuple[IterationRow, ...] = _LazyRows()

    def __len__(self):
        """Number of levels run, counted without building the rows."""
        levels = self.__dict__.get("_levels")
        return len(self.rows if levels is None else levels)

    def to_dict(self) -> dict:
        return {
            "a_ordinate": self.a_ordinate,
            "b_ordinate": self.b_ordinate,
            "tolerance": self.tolerance,
            "stop_reason": self.stop_reason,
            "rows": [row.to_dict() for row in self.rows],
        }


def ladder_report(a_ordinate: float, b_ordinate: float, tolerance: float,
                  stop_reason: str,
                  levels: Sequence[tuple[float, float, float, float]]) -> ConvergenceReport:
    """The report of a ladder run from its (l, h, lo, hi) tuple per level,
    m = 0, 1, ...; its rows are built only when read."""
    report = ConvergenceReport.__new__(ConvergenceReport)
    report.__dict__.update(a_ordinate=a_ordinate, b_ordinate=b_ordinate,
                           tolerance=tolerance, stop_reason=stop_reason, _levels=levels)
    return report
