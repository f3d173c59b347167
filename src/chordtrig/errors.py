"""Exception types shared across the package, and the integer check that
raises one."""

import operator


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


def as_integer(value, name: str) -> int:
    """``value`` as an int, if it is an integer other than a bool; otherwise
    a ``DomainError`` naming the argument ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


class DegenerateArcError(DomainError):
    """Both endpoints of an arc or chord coincide (or the arc is too small
    to be split into representable ordinates)."""


class CapacityError(DomainError):
    """A size parameter exceeds what the implementation can materialize."""


class ConvergenceError(RuntimeError):
    """A run reached its last level or size before its tolerance: the
    ladder's level-62 backstop or ``gap_iterations``' level 27 (both out of
    reach unless the proof in :mod:`chordtrig.arclength` has a fault), or
    the size limit of a partition grid in ``scheme_limit``.

    Carries the last bracket (``enclosure``) and, where available, the full
    iteration report so callers can inspect how far the run got.
    """

    def __init__(self, message, enclosure=None, report=None):
        super().__init__(message)
        self.enclosure = enclosure
        self.report = report


class PrecisionFloorError(ConvergenceError, DomainError):
    """The tolerance lies below what binary64 evaluation can certify for the
    input: no amount of work can meet it, so it is also a domain error."""
