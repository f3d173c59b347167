"""The frozen value records' common base, without :mod:`dataclasses`.

``import dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and every ``@dataclass`` decoration compiles its generated methods; for this
package's nine records the two together took longer than the rest of
``import chordtrig``. :class:`Value` gives the records the same behaviour
from methods written once.
"""

from __future__ import annotations

# object.__setattr__, past Value.__setattr__, which refuses every assignment:
# a record's __init__ stores its fields through this.
set_field = object.__setattr__


class Value:
    """Base of a frozen record whose fields are named, in order, by ``_fields``.

    A subclass sets ``__slots__ = _fields`` (or leaves out ``__slots__`` to
    keep an instance dict) and stores every field in its ``__init__`` with
    :data:`set_field`, or, in a record built once per ladder run, with its
    slot's own ``__set__``, which is faster. As for a frozen dataclass: two
    records are equal when they are of the same class and their fields are
    equal, the hash, repr (``Name(field=value, ...)``), ``__match_args__``
    and pickling follow the fields, and setting or deleting an attribute
    raises ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

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


def _refuse(message: str):
    from dataclasses import FrozenInstanceError  # loaded on this error path only

    raise FrozenInstanceError(message)
