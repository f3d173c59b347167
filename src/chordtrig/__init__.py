"""Constructive trigonometry on the unit quarter circle.

Arc length, sector area, pi, arcsin and sin are built from chord bisection
alone and reported as certified [lo, hi] enclosures; a partition engine
checks that the limit does not depend on the approximating partition scheme.
"""

from .arclength import (
    arc_length,
    bisection_step,
    circle_midpoint,
    length_sequence,
    upper_bound,
)
from .errors import CapacityError, ConvergenceError, DegenerateArcError, DomainError
from .geometry import (
    CirclePoint,
    chord_length,
    height_for_chord,
    point_from_ordinate,
)
from .inverse import (
    TangentIntersection,
    arcsin,
    continuity_modulus,
    pi_constant,
    sin,
    tangent_intersection,
)
from .report import ConvergenceReport, Enclosure, IterationRow
from .sector import (
    SectorSandwich,
    gap_iterations,
    sector_area,
    sector_sandwich,
    verify_ratio,
)

__version__ = "0.1.0"


def __getattr__(name):
    # The names of chordtrig.partitions, the only ones in __all__ not bound
    # above, load it on first use (PEP 562), so scalar work never imports it.
    # Without cached bytecode (PYTHONDONTWRITEBYTECODE=1) each process compiles
    # partitions.py, about 3 ms (CPython 3.11, x86-64): an eager import made
    # the benchmark's set-up (import plus first call) a third slower.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import partitions

    value = globals()[name] = getattr(partitions, name)
    return value


__all__ = [
    "AdditivityCheck",
    "CapacityError",
    "CirclePoint",
    "ConvergenceError",
    "ConvergenceReport",
    "DegenerateArcError",
    "DomainError",
    "Enclosure",
    "IterationRow",
    "Partition",
    "SCHEMES",
    "SectorSandwich",
    "TangentIntersection",
    "additivity_check",
    "arc_length",
    "arcsin",
    "bisection_step",
    "chord_length",
    "circle_midpoint",
    "continuity_modulus",
    "gap_iterations",
    "height_for_chord",
    "length_sequence",
    "make_partition",
    "pi_constant",
    "point_from_ordinate",
    "polygonal_length",
    "refine_union",
    "refinement_gap_bound",
    "scheme_limit",
    "sector_area",
    "sector_sandwich",
    "sin",
    "tangent_intersection",
    "upper_bound",
    "verify_ratio",
]
