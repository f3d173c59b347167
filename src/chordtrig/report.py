"""Value records: their common base, certified brackets and run reports.

:class:`Value` is the base of every frozen record in the package, written
without :mod:`dataclasses`: ``import dataclasses`` loads ``inspect``,
``ast``, ``dis`` and ``tokenize``, and every ``@dataclass`` decoration
compiles its generated methods; for this package's eight records the two
together took longer than the rest of ``import chordtrig``. :class:`Value`
gives the records the same behaviour from methods written once.

An :class:`Enclosure` is an interval [lo, hi] that the producing routine has
argued (not merely observed) to contain the true value. A
:class:`ConvergenceReport` is the serializable trace of one bisection run:
its endpoints, tolerance and stop reason (``STOP_TOLERANCE``, ``STOP_CAP``
or ``STOP_FLOOR``), and the run's level records (l_m, h_m, L_m, lo, hi),
one per level m in order (a degenerate arc's run has none). ``len`` counts
the records, and ``rows`` builds the :class:`IterationRow` table, in the
fixed ``CSV_COLUMNS`` order, from them through :func:`level_row` on each
read, so a report that is never read builds no row. A row's two fan areas
are :func:`fan_areas` of its (L_m, h_m).
"""

from collections.abc import Sequence

# object.__setattr__, past Value.__setattr__, which refuses every assignment:
# Value.__init__ stores the fields through this.
set_field = object.__setattr__


class Value:
    """Base of a frozen record whose fields are named, in order, by ``_fields``.

    A subclass sets ``__slots__ = _fields``, and that is its whole
    declaration. The one constructor takes the fields in order, by position
    or by keyword, stores each with :data:`set_field`, and raises
    ``TypeError`` where a frozen dataclass's would: a field missing, one
    value too many, an unknown keyword, a field given twice. Four records
    keep their own ``__init__``: ``CirclePoint`` and ``Partition`` check
    what they hold (an ordinate in [0, 1]; at least two points, in strictly
    decreasing ordinate), ``Enclosure`` checks its arm order, and
    ``ConvergenceReport`` keeps its levels as a tuple; the three that the
    hot paths build store through their slots' own setters, which are
    faster. Pickling and copying go through the constructor, so a loaded
    record is checked again. As for a frozen dataclass: two records are equal
    when they are of the same class and their fields are equal, the hash,
    repr (``Name(field=value, ...)``), ``__match_args__`` and pickling
    follow the fields, and setting or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            _misuse(self, f"takes {len(fields)} fields but {len(args)} were given")
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                _misuse(self, f"missing field {name!r}")
            set_field(self, name, kwargs.pop(name))
        for name in kwargs:  # a keyword left over: a field given twice, or no field
            _misuse(self, f"got field {name!r} twice" if name in fields
                    else f"has no field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _refuse(f"cannot delete field {name!r}")


def _misuse(record: Value, message: str):
    raise TypeError(f"{type(record).__qualname__}() {message}")


def _refuse(message: str):
    from dataclasses import FrozenInstanceError  # loaded on this error path only

    raise FrozenInstanceError(message)


STOP_TOLERANCE = "tolerance_met"
STOP_CAP = "iteration_cap"
STOP_FLOOR = "precision_floor"

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
