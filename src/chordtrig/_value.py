"""The frozen value records' common base, without :mod:`dataclasses`.

``import dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and every ``@dataclass`` decoration compiles its generated methods; for this
package's eight records the two together took longer than the rest of
``import chordtrig``. :class:`Value` gives the records the same behaviour
from methods written once.
"""

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
    ``ConvergenceReport`` keeps its levels as a tuple; the three that every
    ladder run builds store through their slots' own setters, which are
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
