"""Exception types shared across the package, and the argument checks that
raise them: an integer, a level, a real number, a tolerance, a
non-degenerate arc, points in strictly decreasing ordinate order."""

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


def check_real(value, name: str) -> None:
    """Raise ``DomainError`` ("``name`` must be a real number, …") unless
    ``value`` is a real number (``numbers.Real``) other than a bool. Its
    callers let a float skip it, so ``numbers`` is imported on the first
    other value only."""
    import numbers
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")


def as_tolerance(value, name: str = "tolerance"):
    """``value``, unchanged, if it is a real number (``check_real``) above
    0; otherwise a ``DomainError`` naming the argument ``name`` ("… must be
    positive, got …" for 0, a negative value or NaN). Each caller tests a
    float first, ``type(tol) is not float or not tol > 0.0``, and calls this
    only for what that lets through: one call frame per run costs about 2%
    of a ``sin`` call."""
    check_real(value, name)
    if not value > 0.0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return value


def check_arc(a, b, what: str) -> None:
    """Raise ``DegenerateArcError`` ("``what`` of a degenerate arc") when the
    endpoints ``a`` and ``b`` of an arc share their ordinate."""
    if a.y == b.y:
        raise DegenerateArcError(f"{what} of a degenerate arc")


def check_descending(points, what: str) -> None:
    """Raise ``DomainError`` unless ``points`` holds two or more points whose
    ordinates strictly decrease; a NaN ordinate fails too. The messages name
    the ``what`` ("a ``what`` needs at least two points", "``what``
    ordinates must be strictly decreasing")."""
    if len(points) < 2:
        raise DomainError(f"a {what} needs at least two points")
    for prev, cur in zip(points, points[1:]):
        if not prev.y > cur.y:
            raise DomainError(f"{what} ordinates must be strictly decreasing")


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
