"""Constructive trigonometry on the unit quarter circle.

Arc length, sector area, pi, arcsin and sin are built from chord bisection
alone and reported as certified [lo, hi] enclosures; a partition engine
checks that the limit does not depend on the approximating partition scheme.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "arclength": ("arc_length", "bisection_step", "circle_midpoint", "length_sequence",
                  "upper_bound"),
    "errors": ("CapacityError", "ConvergenceError", "DegenerateArcError", "DomainError"),
    "geometry": ("CirclePoint", "chord_length", "height_for_chord", "point_from_ordinate"),
    "inverse": ("TangentIntersection", "arcsin", "continuity_modulus", "pi_constant", "sin",
                "tangent_intersection"),
    "partitions": ("AdditivityCheck", "Partition", "SCHEMES", "additivity_check",
                   "make_partition", "polygonal_length", "refine_union",
                   "refinement_gap_bound", "scheme_limit"),
    "report": ("ConvergenceReport", "Enclosure", "IterationRow"),
    "sector": ("SectorSandwich", "gap_iterations", "sector_area", "sector_sandwich",
               "verify_ratio"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Each public name loads its module on first use (PEP 562) and binds that
    # module's names here, so later lookups are plain dict hits and a process
    # loads only the layers it calls. Without cached bytecode
    # (PYTHONDONTWRITEBYTECODE=1) each process compiles every module it
    # imports: compiling inverse.py and sector.py, which partition work never
    # calls, made its import and first call about 2 ms (a fifth) slower
    # (CPython 3.11, x86-64).
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    for each in _EXPORTS[home]:
        globals()[each] = getattr(module, each)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
