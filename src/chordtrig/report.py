"""Certified brackets and per-iteration convergence records.

An :class:`Enclosure` is an interval [lo, hi] that the producing routine has
argued (not merely observed) to contain the true value. A
:class:`ConvergenceReport` is the serializable trace of one bisection run:
its endpoints, tolerance and stop reason, and the run's level records
(l_m, h_m, L_m, lo, hi), one per level m in order (a degenerate arc's run
has none). ``len`` counts the records, and ``rows`` builds the
:class:`IterationRow` table from them through :func:`level_row` on each
read, so a report that is never read builds no row. Callers that return no
report build none: ``verify_ratio``, ``scheme_limit``'s bisection scheme,
``additivity_check`` and ``sin``'s certifier runs read the bare arms of
:func:`~chordtrig.arclength.arms`, the checked run that ``arc_length`` and
``sector_area`` wrap in a report. ``arms`` runs on the two endpoint
ordinates, so ``sin``'s certifier runs build no point either.
``pi_constant`` and ``sin``'s quarter-arc bracket read the same arms from
the quarter arc's level records, which :mod:`chordtrig.inverse` runs once,
on import.

Every ladder bracket is certified. The arc and sector runs close the
ladder with Newton's series and widen both arms by the rounding bound that
:mod:`chordtrig.arclength` proves, so each holds the true value; a
tolerance below that widening stops the run with ``STOP_FLOOR`` and raises
``PrecisionFloorError``.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._value import Value

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


class ConvergenceReport(Value):
    """Trace of one run: endpoints, tolerance, stop reason and the run's
    level records (l_m, h_m, L_m, lo, hi), level m at ``levels[m]``."""

    __slots__ = _fields = ("a_ordinate", "b_ordinate", "tolerance", "stop_reason", "levels")

    def __init__(self, a_ordinate: float, b_ordinate: float, tolerance: float,
                 stop_reason: str, levels: Sequence[tuple]):
        _set_a(self, a_ordinate)
        _set_b(self, b_ordinate)
        _set_tolerance(self, tolerance)
        _set_stop(self, stop_reason)
        _set_levels(self, tuple(levels))  # a tuple, so the report hashes

    @property
    def rows(self) -> tuple[IterationRow, ...]:
        """The :class:`IterationRow` table, built from the level records."""
        # Built from a list, not a generator: CPython's tuple(generator) grows
        # a small tuple by resizing, and the freed results then pile up in
        # its per-size tuple free lists (+4 MB peak RSS over 10^5 reads on
        # CPython 3.11).
        return tuple([level_row(m, *level) for m, level in enumerate(self.levels)])

    def __len__(self):
        """Number of levels run."""
        return len(self.levels)

    def to_dict(self) -> dict:
        return {
            "a_ordinate": self.a_ordinate,
            "b_ordinate": self.b_ordinate,
            "tolerance": self.tolerance,
            "stop_reason": self.stop_reason,
            "rows": [row.to_dict() for row in self.rows],
        }


# As for Enclosure: every run that returns a bracket builds a report.
_set_a, _set_b, _set_tolerance, _set_stop, _set_levels = (
    getattr(ConvergenceReport, name).__set__ for name in ConvergenceReport._fields)
