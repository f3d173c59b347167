"""Each partition argument is checked once, where it enters.

``make_partition`` and ``scheme_limit`` own the seed rule (through
``_check_arguments``), ``make_partition`` owns the segment-count rule, and
``errors.check_descending`` is the one point-order rule of ``Partition`` and
``bisection_step``. The edge sweep drives both entry points over the three
schemes, 14 edge ordinates, 8 seeds and 7 sizes, and ``TABLE`` holds each
call's outcome: its value, or its exception type and message. A second
sweep runs ``bisection_step``, ``polygonal_length``, ``refinement_gap_bound``
and ``refine_union`` on the two points of each edge ordinate's arc to 0 and
to 1, and ``POINT_LIST_TABLE`` holds its outcomes. Do not regenerate the tables
to make this test pass; a difference means an outcome changed.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest

from chordtrig import (
    SCHEMES,
    DomainError,
    Partition,
    bisection_step,
    make_partition,
    point_from_ordinate,
    polygonal_length,
    refine_union,
    refinement_gap_bound,
    scheme_limit,
)
from chordtrig import errors, partitions
from chordtrig.cli import run

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)

# label -> value, for the ordinates, seeds and sizes of the sweep
ORDINATES = {
    "0.0": 0.0, "-0.0": -0.0, "5e-324": 5e-324, "1e-300": 1e-300, "0.5": 0.5,
    "1-2**-53": 1.0 - 2.0 ** -53, "1.0": 1.0, "1+2**-52": 1.0 + 2.0 ** -52,
    "-1.0": -1.0, "inf": math.inf, "-inf": -math.inf, "nan": math.nan,
    "True": True, "2**1100": 2 ** 1100,
}
SEEDS = {
    "None": None, "-1": -1, "0": 0, "2**70": 2 ** 70, "1.5": 1.5, "True": True,
    "'1'": "1", "int64(3)": np.int64(3),
}
SIZES = {"0": 0, "1": 1, "2": 2, "1<<21": 1 << 21, "True": True, "2.5": 2.5}
BISECTION_SIZES = {**SIZES, "40": 40}
TOL = 1e-12  # the random grid of the quarter arc refines, so it draws
# name -> a call on the points of an arc, for the functions that take a
# point list or a partition; a point list's outcome is its ordinates
POINT_LIST_CALLS = {
    "bisection_step": lambda a, b: tuple(pt.y for pt in bisection_step([a, b])),
    "polygonal_length": lambda a, b: polygonal_length(Partition([a, b])),
    "refinement_gap_bound": lambda a, b: refinement_gap_bound(Partition([a, b])),
    "refine_union": lambda a, b: refine_union(Partition([a, b]), Partition([a, b])),
}


def _outcome(call, *args, **kwargs):
    """A call's value (a partition as its ordinates), or its exception type
    and message."""
    try:
        value = call(*args, **kwargs)
    except Exception as exc:  # any error is an outcome the table records
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, Partition):
        return repr(tuple(pt.y for pt in value.points))
    return repr(value)


def _on_ordinates(call, a, b, *args, **kwargs):
    """``call`` on the arc between two ordinates; a point that cannot be
    built is the outcome."""
    return _outcome(lambda: call(point_from_ordinate(a), point_from_ordinate(b),
                                 *args, **kwargs))


def point_list_sweep():
    """Every call of ``POINT_LIST_CALLS`` on each edge ordinate's arc to 0
    and to 1, keyed "function a b", with its outcome."""
    return {f"{name} {label} {end}": _on_ordinates(call, y, ORDINATES[end])
            for label, y in ORDINATES.items() for end in ("0.0", "1.0")
            for name, call in POINT_LIST_CALLS.items()}


def sweep():
    """Every call of the sweep, keyed "function scheme a b seed [size]", with
    its outcome."""
    out = {}
    for scheme in SCHEMES:
        sizes = BISECTION_SIZES if scheme == "bisection" else SIZES
        for label, y in ORDINATES.items():
            for end in ("0.0", "1.0"):
                end_y = ORDINATES[end]
                out[f"make_partition {scheme} {label} {end} 0 2"] = _on_ordinates(
                    make_partition, y, end_y, scheme, 2, seed=0)
                out[f"scheme_limit {scheme} {label} {end} 0"] = _on_ordinates(
                    scheme_limit, y, end_y, scheme, TOL, seed=0)
        for seed_label, seed in SEEDS.items():
            for size_label, size in sizes.items():
                out[f"make_partition {scheme} 1.0 0.0 {seed_label} {size_label}"] = (
                    _outcome(make_partition, TOP, Q, scheme, size, seed=seed))
            # a degenerate arc: the seed is checked before the arc
            out[f"make_partition {scheme} 0.0 0.0 {seed_label} 2"] = _outcome(
                make_partition, Q, Q, scheme, 2, seed=seed)
            out[f"scheme_limit {scheme} 1.0 0.0 {seed_label}"] = _outcome(
                scheme_limit, TOP, Q, scheme, TOL, seed=seed)
            out[f"scheme_limit {scheme} 0.0 0.0 {seed_label}"] = _outcome(
                scheme_limit, Q, Q, scheme, TOL, seed=seed)
        for size_label, size in sizes.items():
            # a degenerate arc: the arc is checked before the size
            out[f"make_partition {scheme} 0.0 0.0 0 {size_label}"] = _outcome(
                make_partition, Q, Q, scheme, size, seed=0)
    return out


# outcome -> the sweep's calls that give it
TABLE = {
    'DegenerateArcError: partitions of a degenerate arc': [
        'make_partition bisection -0.0 0.0 0 2', 'make_partition bisection 0.0 0.0 0 0',
        'make_partition bisection 0.0 0.0 0 1', 'make_partition bisection 0.0 0.0 0 1<<21',
        'make_partition bisection 0.0 0.0 0 2', 'make_partition bisection 0.0 0.0 0 2.5',
        'make_partition bisection 0.0 0.0 0 40', 'make_partition bisection 0.0 0.0 0 True',
        'make_partition bisection 0.0 0.0 2**70 2', 'make_partition bisection 0.0 0.0 None 2',
        'make_partition bisection 0.0 0.0 int64(3) 2', 'make_partition bisection 1.0 1.0 0 2',
        'make_partition ordinate_uniform -0.0 0.0 0 2',
        'make_partition ordinate_uniform 0.0 0.0 0 0',
        'make_partition ordinate_uniform 0.0 0.0 0 1',
        'make_partition ordinate_uniform 0.0 0.0 0 1<<21',
        'make_partition ordinate_uniform 0.0 0.0 0 2',
        'make_partition ordinate_uniform 0.0 0.0 0 2.5',
        'make_partition ordinate_uniform 0.0 0.0 0 True',
        'make_partition ordinate_uniform 0.0 0.0 2**70 2',
        'make_partition ordinate_uniform 0.0 0.0 None 2',
        'make_partition ordinate_uniform 0.0 0.0 int64(3) 2',
        'make_partition ordinate_uniform 1.0 1.0 0 2', 'make_partition random -0.0 0.0 0 2',
        'make_partition random 0.0 0.0 0 0', 'make_partition random 0.0 0.0 0 1',
        'make_partition random 0.0 0.0 0 1<<21', 'make_partition random 0.0 0.0 0 2',
        'make_partition random 0.0 0.0 0 2.5', 'make_partition random 0.0 0.0 0 True',
        'make_partition random 0.0 0.0 2**70 2', 'make_partition random 0.0 0.0 int64(3) 2',
        'make_partition random 1.0 1.0 0 2', 'scheme_limit bisection -0.0 0.0 0',
        'scheme_limit bisection 0.0 0.0 0', 'scheme_limit bisection 0.0 0.0 2**70',
        'scheme_limit bisection 0.0 0.0 None', 'scheme_limit bisection 0.0 0.0 int64(3)',
        'scheme_limit bisection 1.0 1.0 0', 'scheme_limit ordinate_uniform -0.0 0.0 0',
        'scheme_limit ordinate_uniform 0.0 0.0 0',
        'scheme_limit ordinate_uniform 0.0 0.0 2**70',
        'scheme_limit ordinate_uniform 0.0 0.0 None',
        'scheme_limit ordinate_uniform 0.0 0.0 int64(3)',
        'scheme_limit ordinate_uniform 1.0 1.0 0', 'scheme_limit random -0.0 0.0 0',
        'scheme_limit random 0.0 0.0 0', 'scheme_limit random 0.0 0.0 2**70',
        'scheme_limit random 0.0 0.0 int64(3)', 'scheme_limit random 1.0 1.0 0',
    ],
    '(1.0, 0.9238795325112867, 0.7071067811865475, 0.3826834323650897, 0.0)': [
        'make_partition bisection -0.0 1.0 0 2', 'make_partition bisection 0.0 1.0 0 2',
        'make_partition bisection 1.0 0.0 0 2', 'make_partition bisection 1.0 0.0 2**70 2',
        'make_partition bisection 1.0 0.0 None 2',
        'make_partition bisection 1.0 0.0 int64(3) 2',
    ],
    '1.5707963267948966': [
        'scheme_limit bisection -0.0 1.0 0', 'scheme_limit bisection 0.0 1.0 0',
        'scheme_limit bisection 1.0 0.0 0', 'scheme_limit bisection 1.0 0.0 2**70',
        'scheme_limit bisection 1.0 0.0 None', 'scheme_limit bisection 1.0 0.0 int64(3)',
        'scheme_limit bisection 1e-300 1.0 0', 'scheme_limit bisection 5e-324 1.0 0',
    ],
    'DegenerateArcError: arc spans too few representable ordinates to bisect': [
        'make_partition bisection 1-2**-53 1.0 0 2', 'make_partition bisection 5e-324 0.0 0 2',
    ],
    '1e-323': [
        'scheme_limit bisection 5e-324 0.0 0',
    ],
    '(1.0, 0.9238795325112867, 0.7071067811865475, 0.3826834323650897, 5e-324)': [
        'make_partition bisection 5e-324 1.0 0 2',
    ],
    '(1e-300, 7.5e-301, 5e-301, 2.5e-301, 0.0)': [
        'make_partition bisection 1e-300 0.0 0 2',
    ],
    '1e-300': [
        'scheme_limit bisection 1e-300 0.0 0', 'scheme_limit ordinate_uniform 1e-300 0.0 0',
        'scheme_limit random 1e-300 0.0 0',
    ],
    '(1.0, 0.9238795325112867, 0.7071067811865475, 0.3826834323650897, 1e-300)': [
        'make_partition bisection 1e-300 1.0 0 2',
    ],
    '(0.5, 0.3826834323650897, 0.25881904510252074, 0.13052619222005157, 0.0)': [
        'make_partition bisection 0.5 0.0 0 2',
    ],
    '0.5235987755982947': [
        'scheme_limit bisection 0.5 0.0 0', 'scheme_limit ordinate_uniform 0.5 0.0 0',
        'scheme_limit random 0.5 0.0 0',
    ],
    '(1.0, 0.9659258262890683, 0.8660254037844387, 0.7071067811865477, 0.5)': [
        'make_partition bisection 0.5 1.0 0 2',
    ],
    '1.0471975511965894': [
        'scheme_limit bisection 0.5 1.0 0',
    ],
    '(0.9999999999999999, 0.9238795282344661, 0.7071067759181915, 0.3826834289233704, 0.0)': [
        'make_partition bisection 1-2**-53 0.0 0 2',
    ],
    '1.570796311893735': [
        'scheme_limit bisection 1-2**-53 0.0 0',
    ],
    '1.4901161193847656e-08': [
        'scheme_limit bisection 1-2**-53 1.0 0',
        'scheme_limit ordinate_uniform 1-2**-53 1.0 0', 'scheme_limit random 1-2**-53 1.0 0',
    ],
    'DomainError: ordinate must lie in [0, 1], got 1.0000000000000002': [
        'make_partition bisection 1+2**-52 0.0 0 2',
        'make_partition bisection 1+2**-52 1.0 0 2',
        'make_partition ordinate_uniform 1+2**-52 0.0 0 2',
        'make_partition ordinate_uniform 1+2**-52 1.0 0 2',
        'make_partition random 1+2**-52 0.0 0 2', 'make_partition random 1+2**-52 1.0 0 2',
        'scheme_limit bisection 1+2**-52 0.0 0', 'scheme_limit bisection 1+2**-52 1.0 0',
        'scheme_limit ordinate_uniform 1+2**-52 0.0 0',
        'scheme_limit ordinate_uniform 1+2**-52 1.0 0', 'scheme_limit random 1+2**-52 0.0 0',
        'scheme_limit random 1+2**-52 1.0 0',
    ],
    'DomainError: ordinate must lie in [0, 1], got -1.0': [
        'make_partition bisection -1.0 0.0 0 2', 'make_partition bisection -1.0 1.0 0 2',
        'make_partition ordinate_uniform -1.0 0.0 0 2',
        'make_partition ordinate_uniform -1.0 1.0 0 2', 'make_partition random -1.0 0.0 0 2',
        'make_partition random -1.0 1.0 0 2', 'scheme_limit bisection -1.0 0.0 0',
        'scheme_limit bisection -1.0 1.0 0', 'scheme_limit ordinate_uniform -1.0 0.0 0',
        'scheme_limit ordinate_uniform -1.0 1.0 0', 'scheme_limit random -1.0 0.0 0',
        'scheme_limit random -1.0 1.0 0',
    ],
    'DomainError: ordinate must lie in [0, 1], got inf': [
        'make_partition bisection inf 0.0 0 2', 'make_partition bisection inf 1.0 0 2',
        'make_partition ordinate_uniform inf 0.0 0 2',
        'make_partition ordinate_uniform inf 1.0 0 2', 'make_partition random inf 0.0 0 2',
        'make_partition random inf 1.0 0 2', 'scheme_limit bisection inf 0.0 0',
        'scheme_limit bisection inf 1.0 0', 'scheme_limit ordinate_uniform inf 0.0 0',
        'scheme_limit ordinate_uniform inf 1.0 0', 'scheme_limit random inf 0.0 0',
        'scheme_limit random inf 1.0 0',
    ],
    'DomainError: ordinate must lie in [0, 1], got -inf': [
        'make_partition bisection -inf 0.0 0 2', 'make_partition bisection -inf 1.0 0 2',
        'make_partition ordinate_uniform -inf 0.0 0 2',
        'make_partition ordinate_uniform -inf 1.0 0 2', 'make_partition random -inf 0.0 0 2',
        'make_partition random -inf 1.0 0 2', 'scheme_limit bisection -inf 0.0 0',
        'scheme_limit bisection -inf 1.0 0', 'scheme_limit ordinate_uniform -inf 0.0 0',
        'scheme_limit ordinate_uniform -inf 1.0 0', 'scheme_limit random -inf 0.0 0',
        'scheme_limit random -inf 1.0 0',
    ],
    'DomainError: ordinate must lie in [0, 1], got nan': [
        'make_partition bisection nan 0.0 0 2', 'make_partition bisection nan 1.0 0 2',
        'make_partition ordinate_uniform nan 0.0 0 2',
        'make_partition ordinate_uniform nan 1.0 0 2', 'make_partition random nan 0.0 0 2',
        'make_partition random nan 1.0 0 2', 'scheme_limit bisection nan 0.0 0',
        'scheme_limit bisection nan 1.0 0', 'scheme_limit ordinate_uniform nan 0.0 0',
        'scheme_limit ordinate_uniform nan 1.0 0', 'scheme_limit random nan 0.0 0',
        'scheme_limit random nan 1.0 0',
    ],
    'DomainError: ordinate must be a real number, got True': [
        'make_partition bisection True 0.0 0 2', 'make_partition bisection True 1.0 0 2',
        'make_partition ordinate_uniform True 0.0 0 2',
        'make_partition ordinate_uniform True 1.0 0 2', 'make_partition random True 0.0 0 2',
        'make_partition random True 1.0 0 2', 'scheme_limit bisection True 0.0 0',
        'scheme_limit bisection True 1.0 0', 'scheme_limit ordinate_uniform True 0.0 0',
        'scheme_limit ordinate_uniform True 1.0 0', 'scheme_limit random True 0.0 0',
        'scheme_limit random True 1.0 0',
    ],
    f"DomainError: ordinate must lie in [0, 1], got {2 ** 1100}": [
        'make_partition bisection 2**1100 0.0 0 2', 'make_partition bisection 2**1100 1.0 0 2',
        'make_partition ordinate_uniform 2**1100 0.0 0 2',
        'make_partition ordinate_uniform 2**1100 1.0 0 2',
        'make_partition random 2**1100 0.0 0 2', 'make_partition random 2**1100 1.0 0 2',
        'scheme_limit bisection 2**1100 0.0 0', 'scheme_limit bisection 2**1100 1.0 0',
        'scheme_limit ordinate_uniform 2**1100 0.0 0',
        'scheme_limit ordinate_uniform 2**1100 1.0 0', 'scheme_limit random 2**1100 0.0 0',
        'scheme_limit random 2**1100 1.0 0',
    ],
    '(1.0, 0.0)': [
        'make_partition bisection 1.0 0.0 0 0', 'make_partition bisection 1.0 0.0 2**70 0',
        'make_partition bisection 1.0 0.0 None 0',
        'make_partition bisection 1.0 0.0 int64(3) 0',
        'make_partition ordinate_uniform 1.0 0.0 0 1',
        'make_partition ordinate_uniform 1.0 0.0 2**70 1',
        'make_partition ordinate_uniform 1.0 0.0 None 1',
        'make_partition ordinate_uniform 1.0 0.0 int64(3) 1',
        'make_partition random 1.0 0.0 0 1', 'make_partition random 1.0 0.0 2**70 1',
        'make_partition random 1.0 0.0 int64(3) 1',
    ],
    '(1.0, 0.7071067811865475, 0.0)': [
        'make_partition bisection 1.0 0.0 0 1', 'make_partition bisection 1.0 0.0 2**70 1',
        'make_partition bisection 1.0 0.0 None 1',
        'make_partition bisection 1.0 0.0 int64(3) 1',
    ],
    'CapacityError: level 2097152 is above the cap of 20: 2^2097152 segments are too many': [
        'make_partition bisection 1.0 0.0 0 1<<21',
        'make_partition bisection 1.0 0.0 2**70 1<<21',
        'make_partition bisection 1.0 0.0 None 1<<21',
        'make_partition bisection 1.0 0.0 int64(3) 1<<21',
    ],
    'DomainError: level must be an integer, got True': [
        'make_partition bisection 1.0 0.0 0 True',
        'make_partition bisection 1.0 0.0 2**70 True',
        'make_partition bisection 1.0 0.0 None True',
        'make_partition bisection 1.0 0.0 int64(3) True',
    ],
    'DomainError: level must be an integer, got 2.5': [
        'make_partition bisection 1.0 0.0 0 2.5', 'make_partition bisection 1.0 0.0 2**70 2.5',
        'make_partition bisection 1.0 0.0 None 2.5',
        'make_partition bisection 1.0 0.0 int64(3) 2.5',
    ],
    'CapacityError: level 40 is above the cap of 20: 2^40 segments are too many': [
        'make_partition bisection 1.0 0.0 0 40', 'make_partition bisection 1.0 0.0 2**70 40',
        'make_partition bisection 1.0 0.0 None 40',
        'make_partition bisection 1.0 0.0 int64(3) 40',
    ],
    'DomainError: seed must be non-negative, got -1': [
        'make_partition bisection 0.0 0.0 -1 2', 'make_partition bisection 1.0 0.0 -1 0',
        'make_partition bisection 1.0 0.0 -1 1', 'make_partition bisection 1.0 0.0 -1 1<<21',
        'make_partition bisection 1.0 0.0 -1 2', 'make_partition bisection 1.0 0.0 -1 2.5',
        'make_partition bisection 1.0 0.0 -1 40', 'make_partition bisection 1.0 0.0 -1 True',
        'make_partition ordinate_uniform 0.0 0.0 -1 2',
        'make_partition ordinate_uniform 1.0 0.0 -1 0',
        'make_partition ordinate_uniform 1.0 0.0 -1 1',
        'make_partition ordinate_uniform 1.0 0.0 -1 1<<21',
        'make_partition ordinate_uniform 1.0 0.0 -1 2',
        'make_partition ordinate_uniform 1.0 0.0 -1 2.5',
        'make_partition ordinate_uniform 1.0 0.0 -1 True',
        'make_partition random 0.0 0.0 -1 2', 'make_partition random 1.0 0.0 -1 0',
        'make_partition random 1.0 0.0 -1 1', 'make_partition random 1.0 0.0 -1 1<<21',
        'make_partition random 1.0 0.0 -1 2', 'make_partition random 1.0 0.0 -1 2.5',
        'make_partition random 1.0 0.0 -1 True', 'scheme_limit bisection 0.0 0.0 -1',
        'scheme_limit bisection 1.0 0.0 -1', 'scheme_limit ordinate_uniform 0.0 0.0 -1',
        'scheme_limit ordinate_uniform 1.0 0.0 -1', 'scheme_limit random 0.0 0.0 -1',
        'scheme_limit random 1.0 0.0 -1',
    ],
    'DomainError: seed must be an integer, got 1.5': [
        'make_partition bisection 0.0 0.0 1.5 2', 'make_partition bisection 1.0 0.0 1.5 0',
        'make_partition bisection 1.0 0.0 1.5 1', 'make_partition bisection 1.0 0.0 1.5 1<<21',
        'make_partition bisection 1.0 0.0 1.5 2', 'make_partition bisection 1.0 0.0 1.5 2.5',
        'make_partition bisection 1.0 0.0 1.5 40', 'make_partition bisection 1.0 0.0 1.5 True',
        'make_partition ordinate_uniform 0.0 0.0 1.5 2',
        'make_partition ordinate_uniform 1.0 0.0 1.5 0',
        'make_partition ordinate_uniform 1.0 0.0 1.5 1',
        'make_partition ordinate_uniform 1.0 0.0 1.5 1<<21',
        'make_partition ordinate_uniform 1.0 0.0 1.5 2',
        'make_partition ordinate_uniform 1.0 0.0 1.5 2.5',
        'make_partition ordinate_uniform 1.0 0.0 1.5 True',
        'make_partition random 0.0 0.0 1.5 2', 'make_partition random 1.0 0.0 1.5 0',
        'make_partition random 1.0 0.0 1.5 1', 'make_partition random 1.0 0.0 1.5 1<<21',
        'make_partition random 1.0 0.0 1.5 2', 'make_partition random 1.0 0.0 1.5 2.5',
        'make_partition random 1.0 0.0 1.5 True', 'scheme_limit bisection 0.0 0.0 1.5',
        'scheme_limit bisection 1.0 0.0 1.5', 'scheme_limit ordinate_uniform 0.0 0.0 1.5',
        'scheme_limit ordinate_uniform 1.0 0.0 1.5', 'scheme_limit random 0.0 0.0 1.5',
        'scheme_limit random 1.0 0.0 1.5',
    ],
    'DomainError: seed must be an integer, got True': [
        'make_partition bisection 0.0 0.0 True 2', 'make_partition bisection 1.0 0.0 True 0',
        'make_partition bisection 1.0 0.0 True 1',
        'make_partition bisection 1.0 0.0 True 1<<21',
        'make_partition bisection 1.0 0.0 True 2', 'make_partition bisection 1.0 0.0 True 2.5',
        'make_partition bisection 1.0 0.0 True 40',
        'make_partition bisection 1.0 0.0 True True',
        'make_partition ordinate_uniform 0.0 0.0 True 2',
        'make_partition ordinate_uniform 1.0 0.0 True 0',
        'make_partition ordinate_uniform 1.0 0.0 True 1',
        'make_partition ordinate_uniform 1.0 0.0 True 1<<21',
        'make_partition ordinate_uniform 1.0 0.0 True 2',
        'make_partition ordinate_uniform 1.0 0.0 True 2.5',
        'make_partition ordinate_uniform 1.0 0.0 True True',
        'make_partition random 0.0 0.0 True 2', 'make_partition random 1.0 0.0 True 0',
        'make_partition random 1.0 0.0 True 1', 'make_partition random 1.0 0.0 True 1<<21',
        'make_partition random 1.0 0.0 True 2', 'make_partition random 1.0 0.0 True 2.5',
        'make_partition random 1.0 0.0 True True', 'scheme_limit bisection 0.0 0.0 True',
        'scheme_limit bisection 1.0 0.0 True', 'scheme_limit ordinate_uniform 0.0 0.0 True',
        'scheme_limit ordinate_uniform 1.0 0.0 True', 'scheme_limit random 0.0 0.0 True',
        'scheme_limit random 1.0 0.0 True',
    ],
    "DomainError: seed must be an integer, got '1'": [
        "make_partition bisection 0.0 0.0 '1' 2", "make_partition bisection 1.0 0.0 '1' 0",
        "make_partition bisection 1.0 0.0 '1' 1", "make_partition bisection 1.0 0.0 '1' 1<<21",
        "make_partition bisection 1.0 0.0 '1' 2", "make_partition bisection 1.0 0.0 '1' 2.5",
        "make_partition bisection 1.0 0.0 '1' 40", "make_partition bisection 1.0 0.0 '1' True",
        "make_partition ordinate_uniform 0.0 0.0 '1' 2",
        "make_partition ordinate_uniform 1.0 0.0 '1' 0",
        "make_partition ordinate_uniform 1.0 0.0 '1' 1",
        "make_partition ordinate_uniform 1.0 0.0 '1' 1<<21",
        "make_partition ordinate_uniform 1.0 0.0 '1' 2",
        "make_partition ordinate_uniform 1.0 0.0 '1' 2.5",
        "make_partition ordinate_uniform 1.0 0.0 '1' True",
        "make_partition random 0.0 0.0 '1' 2", "make_partition random 1.0 0.0 '1' 0",
        "make_partition random 1.0 0.0 '1' 1", "make_partition random 1.0 0.0 '1' 1<<21",
        "make_partition random 1.0 0.0 '1' 2", "make_partition random 1.0 0.0 '1' 2.5",
        "make_partition random 1.0 0.0 '1' True", "scheme_limit bisection 0.0 0.0 '1'",
        "scheme_limit bisection 1.0 0.0 '1'", "scheme_limit ordinate_uniform 0.0 0.0 '1'",
        "scheme_limit ordinate_uniform 1.0 0.0 '1'", "scheme_limit random 0.0 0.0 '1'",
        "scheme_limit random 1.0 0.0 '1'",
    ],
    '(1.0, 0.5, 0.0)': [
        'make_partition ordinate_uniform -0.0 1.0 0 2',
        'make_partition ordinate_uniform 0.0 1.0 0 2',
        'make_partition ordinate_uniform 1.0 0.0 0 2',
        'make_partition ordinate_uniform 1.0 0.0 2**70 2',
        'make_partition ordinate_uniform 1.0 0.0 None 2',
        'make_partition ordinate_uniform 1.0 0.0 int64(3) 2',
    ],
    '1.5707963267948946': [
        'scheme_limit ordinate_uniform -0.0 1.0 0', 'scheme_limit ordinate_uniform 0.0 1.0 0',
        'scheme_limit ordinate_uniform 1.0 0.0 0',
        'scheme_limit ordinate_uniform 1.0 0.0 2**70',
        'scheme_limit ordinate_uniform 1.0 0.0 None',
        'scheme_limit ordinate_uniform 1.0 0.0 int64(3)',
        'scheme_limit ordinate_uniform 1e-300 1.0 0',
        'scheme_limit ordinate_uniform 5e-324 1.0 0',
    ],
    '(5e-324, 0.0)': [
        'make_partition ordinate_uniform 5e-324 0.0 0 2',
        'make_partition random 5e-324 0.0 0 2',
    ],
    '5e-324': [
        'scheme_limit ordinate_uniform 5e-324 0.0 0', 'scheme_limit random 5e-324 0.0 0',
    ],
    '(1.0, 0.5, 5e-324)': [
        'make_partition ordinate_uniform 5e-324 1.0 0 2',
    ],
    '(1e-300, 5e-301, 0.0)': [
        'make_partition ordinate_uniform 1e-300 0.0 0 2',
    ],
    '(1.0, 0.5, 1e-300)': [
        'make_partition ordinate_uniform 1e-300 1.0 0 2',
    ],
    '(0.5, 0.25, 0.0)': [
        'make_partition ordinate_uniform 0.5 0.0 0 2',
    ],
    '(1.0, 0.75, 0.5)': [
        'make_partition ordinate_uniform 0.5 1.0 0 2',
    ],
    '1.0471975511965956': [
        'scheme_limit ordinate_uniform 0.5 1.0 0',
    ],
    '(0.9999999999999999, 0.49999999999999994, 0.0)': [
        'make_partition ordinate_uniform 1-2**-53 0.0 0 2',
    ],
    '1.5707963118937334': [
        'scheme_limit ordinate_uniform 1-2**-53 0.0 0',
    ],
    '(1.0, 0.9999999999999999)': [
        'make_partition ordinate_uniform 1-2**-53 1.0 0 2',
        'make_partition random 1-2**-53 1.0 0 2',
    ],
    'DomainError: segment count must be positive, got 0': [
        'make_partition ordinate_uniform 1.0 0.0 0 0',
        'make_partition ordinate_uniform 1.0 0.0 2**70 0',
        'make_partition ordinate_uniform 1.0 0.0 None 0',
        'make_partition ordinate_uniform 1.0 0.0 int64(3) 0',
        'make_partition random 1.0 0.0 0 0', 'make_partition random 1.0 0.0 2**70 0',
        'make_partition random 1.0 0.0 int64(3) 0',
    ],
    'CapacityError: 2097152 segments exceed the partition size limit': [
        'make_partition ordinate_uniform 1.0 0.0 0 1<<21',
        'make_partition ordinate_uniform 1.0 0.0 2**70 1<<21',
        'make_partition ordinate_uniform 1.0 0.0 None 1<<21',
        'make_partition ordinate_uniform 1.0 0.0 int64(3) 1<<21',
        'make_partition random 1.0 0.0 0 1<<21', 'make_partition random 1.0 0.0 2**70 1<<21',
        'make_partition random 1.0 0.0 int64(3) 1<<21',
    ],
    'DomainError: segment count must be an integer, got True': [
        'make_partition ordinate_uniform 1.0 0.0 0 True',
        'make_partition ordinate_uniform 1.0 0.0 2**70 True',
        'make_partition ordinate_uniform 1.0 0.0 None True',
        'make_partition ordinate_uniform 1.0 0.0 int64(3) True',
        'make_partition random 1.0 0.0 0 True', 'make_partition random 1.0 0.0 2**70 True',
        'make_partition random 1.0 0.0 int64(3) True',
    ],
    'DomainError: segment count must be an integer, got 2.5': [
        'make_partition ordinate_uniform 1.0 0.0 0 2.5',
        'make_partition ordinate_uniform 1.0 0.0 2**70 2.5',
        'make_partition ordinate_uniform 1.0 0.0 None 2.5',
        'make_partition ordinate_uniform 1.0 0.0 int64(3) 2.5',
        'make_partition random 1.0 0.0 0 2.5', 'make_partition random 1.0 0.0 2**70 2.5',
        'make_partition random 1.0 0.0 int64(3) 2.5',
    ],
    '(1.0, 0.9560342718892494, 0.0)': [
        'make_partition random -0.0 1.0 0 2', 'make_partition random 0.0 1.0 0 2',
        'make_partition random 1.0 0.0 0 2',
    ],
    '1.5707963267948881': [
        'scheme_limit random -0.0 1.0 0', 'scheme_limit random 0.0 1.0 0',
        'scheme_limit random 1.0 0.0 0', 'scheme_limit random 1e-300 1.0 0',
        'scheme_limit random 5e-324 1.0 0',
    ],
    '(1.0, 0.9560342718892494, 5e-324)': [
        'make_partition random 5e-324 1.0 0 2',
    ],
    '(1e-300, 9.560342718892493e-301, 0.0)': [
        'make_partition random 1e-300 0.0 0 2',
    ],
    '(1.0, 0.9560342718892494, 1e-300)': [
        'make_partition random 1e-300 1.0 0 2',
    ],
    '(0.5, 0.4780171359446247, 0.0)': [
        'make_partition random 0.5 0.0 0 2',
    ],
    '(1.0, 0.9780171359446247, 0.5)': [
        'make_partition random 0.5 1.0 0 2',
    ],
    '1.0471975511965979': [
        'scheme_limit random 0.5 1.0 0',
    ],
    '(0.9999999999999999, 0.9560342718892493, 0.0)': [
        'make_partition random 1-2**-53 0.0 0 2',
    ],
    '1.5707963118937267': [
        'scheme_limit random 1-2**-53 0.0 0',
    ],
    'DomainError: the random scheme requires a seed': [
        'make_partition random 0.0 0.0 None 2', 'make_partition random 1.0 0.0 None 0',
        'make_partition random 1.0 0.0 None 1', 'make_partition random 1.0 0.0 None 1<<21',
        'make_partition random 1.0 0.0 None 2', 'make_partition random 1.0 0.0 None 2.5',
        'make_partition random 1.0 0.0 None True', 'scheme_limit random 0.0 0.0 None',
        'scheme_limit random 1.0 0.0 None',
    ],
    '(1.0, 0.7477231759346494, 0.0)': [
        'make_partition random 1.0 0.0 2**70 2',
    ],
    '1.5707963267948375': [
        'scheme_limit random 1.0 0.0 2**70',
    ],
    '(1.0, 0.37105205923474727, 0.0)': [
        'make_partition random 1.0 0.0 int64(3) 2',
    ],
    '1.5707963267946625': [
        'scheme_limit random 1.0 0.0 int64(3)',
    ],
}

# outcome -> the calls of point_list_sweep that give it
POINT_LIST_TABLE = {
    'DomainError: bisection state ordinates must be strictly decreasing': [
        'bisection_step -0.0 0.0', 'bisection_step -0.0 1.0', 'bisection_step 0.0 0.0',
        'bisection_step 0.0 1.0', 'bisection_step 0.5 1.0', 'bisection_step 1-2**-53 1.0',
        'bisection_step 1.0 1.0', 'bisection_step 1e-300 1.0', 'bisection_step 5e-324 1.0',
    ],
    'DomainError: partition ordinates must be strictly decreasing': [
        'polygonal_length -0.0 0.0', 'polygonal_length -0.0 1.0', 'polygonal_length 0.0 0.0',
        'polygonal_length 0.0 1.0', 'polygonal_length 0.5 1.0', 'polygonal_length 1-2**-53 1.0',
        'polygonal_length 1.0 1.0', 'polygonal_length 1e-300 1.0', 'polygonal_length 5e-324 1.0',
        'refine_union -0.0 0.0', 'refine_union -0.0 1.0', 'refine_union 0.0 0.0',
        'refine_union 0.0 1.0', 'refine_union 0.5 1.0', 'refine_union 1-2**-53 1.0',
        'refine_union 1.0 1.0', 'refine_union 1e-300 1.0', 'refine_union 5e-324 1.0',
        'refinement_gap_bound -0.0 0.0', 'refinement_gap_bound -0.0 1.0',
        'refinement_gap_bound 0.0 0.0', 'refinement_gap_bound 0.0 1.0',
        'refinement_gap_bound 0.5 1.0', 'refinement_gap_bound 1-2**-53 1.0',
        'refinement_gap_bound 1.0 1.0', 'refinement_gap_bound 1e-300 1.0',
        'refinement_gap_bound 5e-324 1.0',
    ],
    'DegenerateArcError: arc spans too few representable ordinates to bisect': [
        'bisection_step 5e-324 0.0',
    ],
    '5e-324': [
        'polygonal_length 5e-324 0.0',
    ],
    '0.0': [
        'refinement_gap_bound 1e-300 0.0', 'refinement_gap_bound 5e-324 0.0',
    ],
    '(5e-324, 0.0)': [
        'refine_union 5e-324 0.0',
    ],
    '(1e-300, 5e-301, 0.0)': [
        'bisection_step 1e-300 0.0',
    ],
    '1e-300': [
        'polygonal_length 1e-300 0.0',
    ],
    '(1e-300, 0.0)': [
        'refine_union 1e-300 0.0',
    ],
    '(0.5, 0.25881904510252074, 0.0)': [
        'bisection_step 0.5 0.0',
    ],
    '0.5176380902050415': [
        'polygonal_length 0.5 0.0',
    ],
    '0.039833051241107115': [
        'refinement_gap_bound 0.5 0.0',
    ],
    '(0.5, 0.0)': [
        'refine_union 0.5 0.0',
    ],
    '(0.9999999999999999, 0.7071067759181915, 0.0)': [
        'bisection_step 1-2**-53 0.0',
    ],
    '1.4142135518363828': [
        'polygonal_length 1-2**-53 0.0',
    ],
    '2.828426977232222': [
        'refinement_gap_bound 1-2**-53 0.0',
    ],
    '(0.9999999999999999, 0.0)': [
        'refine_union 1-2**-53 0.0',
    ],
    '(1.0, 0.7071067811865475, 0.0)': [
        'bisection_step 1.0 0.0',
    ],
    '1.4142135623730951': [
        'polygonal_length 1.0 0.0',
    ],
    '2.828427124746191': [
        'refinement_gap_bound 1.0 0.0',
    ],
    '(1.0, 0.0)': [
        'refine_union 1.0 0.0',
    ],
    'DomainError: ordinate must lie in [0, 1], got 1.0000000000000002': [
        'bisection_step 1+2**-52 0.0', 'bisection_step 1+2**-52 1.0',
        'polygonal_length 1+2**-52 0.0', 'polygonal_length 1+2**-52 1.0',
        'refine_union 1+2**-52 0.0', 'refine_union 1+2**-52 1.0',
        'refinement_gap_bound 1+2**-52 0.0', 'refinement_gap_bound 1+2**-52 1.0',
    ],
    'DomainError: ordinate must lie in [0, 1], got -1.0': [
        'bisection_step -1.0 0.0', 'bisection_step -1.0 1.0', 'polygonal_length -1.0 0.0',
        'polygonal_length -1.0 1.0', 'refine_union -1.0 0.0', 'refine_union -1.0 1.0',
        'refinement_gap_bound -1.0 0.0', 'refinement_gap_bound -1.0 1.0',
    ],
    'DomainError: ordinate must lie in [0, 1], got inf': [
        'bisection_step inf 0.0', 'bisection_step inf 1.0', 'polygonal_length inf 0.0',
        'polygonal_length inf 1.0', 'refine_union inf 0.0', 'refine_union inf 1.0',
        'refinement_gap_bound inf 0.0', 'refinement_gap_bound inf 1.0',
    ],
    'DomainError: ordinate must lie in [0, 1], got -inf': [
        'bisection_step -inf 0.0', 'bisection_step -inf 1.0', 'polygonal_length -inf 0.0',
        'polygonal_length -inf 1.0', 'refine_union -inf 0.0', 'refine_union -inf 1.0',
        'refinement_gap_bound -inf 0.0', 'refinement_gap_bound -inf 1.0',
    ],
    'DomainError: ordinate must lie in [0, 1], got nan': [
        'bisection_step nan 0.0', 'bisection_step nan 1.0', 'polygonal_length nan 0.0',
        'polygonal_length nan 1.0', 'refine_union nan 0.0', 'refine_union nan 1.0',
        'refinement_gap_bound nan 0.0', 'refinement_gap_bound nan 1.0',
    ],
    'DomainError: ordinate must be a real number, got True': [
        'bisection_step True 0.0', 'bisection_step True 1.0', 'polygonal_length True 0.0',
        'polygonal_length True 1.0', 'refine_union True 0.0', 'refine_union True 1.0',
        'refinement_gap_bound True 0.0', 'refinement_gap_bound True 1.0',
    ],
    f"DomainError: ordinate must lie in [0, 1], got {2 ** 1100}": [
        'bisection_step 2**1100 0.0', 'bisection_step 2**1100 1.0', 'polygonal_length 2**1100 0.0',
        'polygonal_length 2**1100 1.0', 'refine_union 2**1100 0.0', 'refine_union 2**1100 1.0',
        'refinement_gap_bound 2**1100 0.0', 'refinement_gap_bound 2**1100 1.0',
    ],
}


def _expected(table):
    return {key: outcome for outcome, keys in table.items() for key in keys}


EXPECTED = _expected(TABLE)


def test_edge_sweep_matches_table():
    assert sweep() == EXPECTED


def test_point_list_sweep_matches_table():
    assert point_list_sweep() == _expected(POINT_LIST_TABLE)


def _cli_value(value):
    """A sweep value as a command-line string."""
    return repr(value) if isinstance(value, float) else str(value)


def test_partition_compare_over_the_edges(capsys):
    """Over the sweep's ordinates and seeds, ``partition-compare`` exits 0, 1,
    2 or 64, prints JSON when it exits 0 and never a traceback."""
    for y in ORDINATES.values():
        for arc in (["--a", _cli_value(y), "--b", "0"], ["--a", "1", "--b", _cli_value(y)]):
            for seed in SEEDS.values():
                seed_flag = [] if seed is None else ["--seed", _cli_value(seed)]
                argv = ["partition-compare", *arc, *seed_flag]
                code = run(argv)
                captured = capsys.readouterr()
                assert code in (0, 1, 2, 64), argv
                if code == 0:
                    assert set(json.loads(captured.out)["limits"]) == set(SCHEMES), argv
                assert "Traceback" not in captured.err, argv


class TestSeedCheckedOnce:
    """The seed is checked where it enters: an ``int`` skips ``as_integer``,
    any other integer goes through it once, and no grid rung checks it
    again."""

    @pytest.mark.parametrize("seed, calls", [("0", 0), ("int64(3)", 1)])
    def test_random_limit_checks_its_seed_at_entry_only(self, seed, calls):
        with mock.patch.object(partitions, "as_integer", wraps=errors.as_integer) as spy:
            value = scheme_limit(TOP, Q, "random", TOL, seed=SEEDS[seed])
        assert spy.call_count == calls
        assert repr(value) == EXPECTED[f"scheme_limit random 1.0 0.0 {seed}"]


class TestOnePointOrderRule:
    """``Partition`` and ``bisection_step`` refuse the same point lists with
    the same message, each naming its own noun."""

    @pytest.mark.parametrize("points", [[Q, TOP], [TOP, TOP], [TOP]],
                             ids=["rising", "repeated", "one point"])
    def test_same_text_apart_from_the_noun(self, points):
        with pytest.raises(DomainError) as part:
            Partition(points)
        with pytest.raises(DomainError) as state:
            bisection_step(points)
        assert (str(part.value).replace("partition", "NOUN")
                == str(state.value).replace("bisection state", "NOUN"))
