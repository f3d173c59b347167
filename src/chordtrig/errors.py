"""Exception types shared across the package, and the argument checks that
raise them: an integer, a level, a non-degenerate arc."""

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


def as_level(value, cap: int) -> int:
    """``value`` as a bisection level: an integer (``as_integer``), a
    ``DomainError`` below 0 and a ``CapacityError`` above ``cap``."""
    m = as_integer(value, "level")
    if m < 0:
        raise DomainError(f"level must be non-negative, got {m}")
    if m > cap:
        raise CapacityError(f"level {m} is above the cap of {cap}: 2^{m} segments are too many")
    return m


def check_arc(a, b, what: str) -> None:
    """Raise ``DegenerateArcError`` ("``what`` of a degenerate arc") when the
    endpoints ``a`` and ``b`` of an arc share their ordinate."""
    if a.y == b.y:
        raise DegenerateArcError(f"{what} of a degenerate arc")


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
