"""Certified brackets and per-iteration convergence records.

An :class:`Enclosure` is an interval [lo, hi] that the producing routine has
argued (not merely observed) to contain the true value. A
:class:`ConvergenceReport` is the serializable trace of one bisection run:
one row per level m, ordered, with the bracket arms that run was tightening.

Every run builds its report through :func:`ladder_report`, a degenerate
arc's run too (with no levels). The report keeps the run's level records
(l_m, h_m, L_m, lo, hi), so ``len`` needs no rows, and ``rows``, a
:func:`functools.cached_property`, builds the :class:`IterationRow` table
from those records through :func:`level_row` on first read and keeps it. A
report that is never read builds no row. Callers that return no report
build none: ``pi_constant``, ``verify_ratio``, ``scheme_limit``'s bisection
scheme, ``additivity_check`` and ``sin`` (its quarter-arc run and its
certifier runs) read the bare arms of :func:`~chordtrig.arclength.arms`,
the checked run that ``arc_length`` and ``sector_area`` wrap in a report.
The positional constructor builds an eager report from rows a caller
already has.

Every ladder bracket is certified. The arc and sector runs close the
ladder with Newton's series and widen both arms by the rounding bound that
:mod:`chordtrig.arclength` proves, so each holds the true value; a
tolerance below that widening stops the run with ``STOP_FLOOR`` and raises
``PrecisionFloorError``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from ._value import Value, set_field

STOP_TOLERANCE = "tolerance_met"
STOP_CAP = "iteration_cap"
STOP_FLOOR = "precision_floor"

# Brackets a ladder can run on (arclength.arms): the widened closures
# of the arc length and of the sector area.
ARC_BRACKET = "arc"
SECTOR_BRACKET = "sector"

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


class Enclosure(Value):
    """A certified bracket [lo, hi] around a true length or area."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not lo <= hi:
            raise ValueError(f"enclosure arms out of order: [{lo!r}, {hi!r}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "mid": self.mid, "width": self.width}


# The slots' own setters, as for CirclePoint: every run that returns a
# bracket builds one.
_set_lo, _set_hi = Enclosure.lo.__set__, Enclosure.hi.__set__


class IterationRow(Value):
    """One level of a bisection run: the 2^m-segment state and its bracket."""

    __slots__ = _fields = CSV_COLUMNS

    def __init__(self, m: int, segment_length: float, height: float,
                 total_length: float, inner_area: float, outer_area: float,
                 enclosure_lo: float, enclosure_hi: float):
        set_field(self, "m", m)
        set_field(self, "segment_length", segment_length)
        set_field(self, "height", height)
        set_field(self, "total_length", total_length)
        set_field(self, "inner_area", inner_area)
        set_field(self, "outer_area", outer_area)
        set_field(self, "enclosure_lo", enclosure_lo)
        set_field(self, "enclosure_hi", enclosure_hi)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}


def fan_areas(total_length: float, height: float) -> tuple[float, float]:
    """Inscribed and circumscribed fan areas (L h / 2, L / (2 h)) of one level.

    The outer area never falls below the inner one: h <= 1 and IEEE rounding
    is monotone, so fl(t h) <= t <= fl(t / h) for t = L / 2.
    """
    half = 0.5 * total_length
    return half * height, half / height


def level_row(m: int, segment_length: float, height: float, total_length: float,
              lo: float, hi: float) -> IterationRow:
    """The row of ladder level ``m`` from its record (l_m, h_m, L_m, lo, hi)."""
    inner, outer = fan_areas(total_length, height)
    return IterationRow(m, segment_length, height, total_length, inner, outer, lo, hi)


# object.__new__ itself, not looked up through the class on every report.
_new = object.__new__


class ConvergenceReport(Value):
    """Trace of one run: endpoints, tolerance, stop reason and the rows.

    Unlike the other records it keeps an instance dict (no ``__slots__``):
    a report from :func:`ladder_report` holds its run's level records there,
    builds its rows from them on the first read of ``rows`` and caches the
    rows there. A report built through its constructor stores ``rows`` there
    itself, which shadows the cached property. Equality, hash and repr read
    ``rows``, so a report from records equals and hashes like the eager
    report built from the same rows.
    """

    _fields = ("a_ordinate", "b_ordinate", "tolerance", "stop_reason", "rows")

    def __init__(self, a_ordinate: float, b_ordinate: float, tolerance: float,
                 stop_reason: str, rows: tuple[IterationRow, ...] = ()):
        self.__dict__.update(a_ordinate=a_ordinate, b_ordinate=b_ordinate,
                             tolerance=tolerance, stop_reason=stop_reason, rows=rows)

    @cached_property
    def rows(self) -> tuple[IterationRow, ...]:
        """The rows of a :func:`ladder_report` report, from its level records."""
        # Built from a list, not a generator: CPython's tuple(generator) grows
        # a small tuple by resizing, and the freed results then pile up in
        # its per-size tuple free lists (+4 MB peak RSS over 10^5 reads on
        # CPython 3.11).
        return tuple([level_row(m, *level) for m, level in enumerate(self._levels)])

    def __len__(self):
        """Number of levels run, counted without building the rows."""
        levels = self.__dict__.get("_levels")
        return len(self.rows) if levels is None else len(levels)

    def to_dict(self) -> dict:
        return {
            "a_ordinate": self.a_ordinate,
            "b_ordinate": self.b_ordinate,
            "tolerance": self.tolerance,
            "stop_reason": self.stop_reason,
            "rows": [row.to_dict() for row in self.rows],
        }


def ladder_report(a_ordinate: float, b_ordinate: float, tolerance: float,
                  stop_reason: str, levels: Sequence[tuple]) -> ConvergenceReport:
    """The report of a ladder run whose record (l_m, h_m, L_m, lo, hi) of
    level m is ``levels[m]``; its rows are built when first read."""
    report = _new(ConvergenceReport)
    report.__dict__.update(a_ordinate=a_ordinate, b_ordinate=b_ordinate,
                           tolerance=tolerance, stop_reason=stop_reason, _levels=levels)
    return report
