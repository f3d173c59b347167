"""Clean errors at every domain edge, for the scalar functions.

The edge sweep calls the arc functions on the arcs from each of the 14 edge
ordinates of ``test_partition_arguments`` to 0 and to 1, and the functions
of one ordinate (``arcsin``, ``sin``, ``additivity_check``'s split point,
``tangent_intersection``, ``continuity_modulus`` and ``height_for_chord``)
at each of them. ``TABLE`` holds each call's outcome: its value repr, or its
exception type and message. Do not regenerate the table to make this test
pass; a difference means an outcome changed. The CLI commands that take an
ordinate run over the same values, in JSON and in CSV, and ``pi`` runs
over edge tolerances.
"""

import json
import re

import pytest

from chordtrig import (
    additivity_check,
    arc_length,
    arcsin,
    chord_length,
    circle_midpoint,
    continuity_modulus,
    gap_iterations,
    height_for_chord,
    length_sequence,
    point_from_ordinate,
    sector_area,
    sector_sandwich,
    sin,
    tangent_intersection,
    upper_bound,
    verify_ratio,
)
from chordtrig import errors
from chordtrig.cli import run
from chordtrig.report import CSV_COLUMNS
from test_partition_arguments import ORDINATES, _cli_value, _on_ordinates, _outcome

TOL = 1e-12
TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)

# name -> a call on the arc between two points
ARC_CALLS = {
    "arc_length": lambda a, b: arc_length(a, b, TOL),
    "sector_area": lambda a, b: sector_area(a, b, TOL),
    "verify_ratio": lambda a, b: verify_ratio(a, b, TOL),
    "gap_iterations": lambda a, b: gap_iterations(a, b, TOL),
    "sector_sandwich": lambda a, b: sector_sandwich(a, b, 3),
    "length_sequence": lambda a, b: length_sequence(a, b, 3),
    "upper_bound": upper_bound,
    "chord_length": chord_length,
    "circle_midpoint": circle_midpoint,
}
# name -> a call on one ordinate
ORDINATE_CALLS = {
    "additivity_check": lambda y: additivity_check(TOP, point_from_ordinate(y), Q, TOL),
    "arcsin": lambda y: arcsin(y, TOL),
    "sin": lambda y: sin(y, TOL),
    "tangent_intersection": lambda y: tangent_intersection(y, 0.5),
    "continuity_modulus": lambda y: continuity_modulus(0.5, y),
    "height_for_chord": height_for_chord,
}


def sweep():
    """Every call of the sweep, keyed "function y [end]", with its outcome."""
    out = {}
    for label, y in ORDINATES.items():
        for name, call in ARC_CALLS.items():
            for end in ("0.0", "1.0"):
                out[f"{name} {label} {end}"] = _on_ordinates(call, y, ORDINATES[end])
        for name, call in ORDINATE_CALLS.items():
            out[f"{name} {label}"] = _outcome(call, y)
    return out


# outcome -> the sweep's calls that give it
TABLE = {
    '(Enclosure(lo=0.0, hi=0.0), ConvergenceReport(a_ordinate=0.0, b_ordinate=0.0, '
    "tolerance=1e-12, stop_reason='tolerance_met', levels=()))": [
        'arc_length -0.0 0.0', 'arc_length 0.0 0.0', 'arcsin -0.0', 'arcsin 0.0',
        'sector_area -0.0 0.0', 'sector_area 0.0 0.0',
    ],
    '(Enclosure(lo=1.5707963267948921, hi=1.570796326794901), '
    'ConvergenceReport(a_ordinate=0.0, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135623730951, 0.7071067811865475, "
    '1.4142135623730951, 1.5707756574806515, 1.5707988327281095), (0.7653668647301796, '
    '0.9238795325112867, 1.5307337294603591, 1.570796326728077, 1.5707963267963567), '
    '(0.39018064403225655, 0.9807852804032304, 1.5607225761290262, 1.5707963267948921, '
    '1.570796326794901))))': [
        'arc_length -0.0 1.0', 'arc_length 0.0 1.0',
    ],
    '(Enclosure(lo=0.7853981633974455, hi=0.785398163397451), '
    'ConvergenceReport(a_ordinate=0.0, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135623730951, 0.7071067811865475, "
    '1.4142135623730951, 0.49999999999999734, 1.0000000000000029), (0.7653668647301796, '
    '0.9238795325112867, 1.5307337294603591, 0.7071067811865452, 0.8284271247461925), '
    '(0.39018064403225655, 0.9807852804032304, 1.5607225761290262, 0.785398163364038, '
    '0.7853981633981788), (0.1960342806591212, 0.9951847266721969, 1.5682742452729697, '
    '0.7853981633974455, 0.785398163397451))))': [
        'sector_area -0.0 1.0', 'sector_area 0.0 1.0',
    ],
    'DegenerateArcError: arc/sector ratio of a degenerate arc': [
        'verify_ratio -0.0 0.0', 'verify_ratio 0.0 0.0', 'verify_ratio 1.0 1.0',
    ],
    '2.0': [
        'verify_ratio -0.0 1.0', 'verify_ratio 0.0 1.0', 'verify_ratio 0.5 0.0',
        'verify_ratio 0.5 1.0', 'verify_ratio 1-2**-53 0.0', 'verify_ratio 1-2**-53 1.0',
        'verify_ratio 1.0 0.0', 'verify_ratio 1e-300 0.0', 'verify_ratio 1e-300 1.0',
        'verify_ratio 5e-324 1.0',
    ],
    'DegenerateArcError: gap criterion of a degenerate arc': [
        'gap_iterations -0.0 0.0', 'gap_iterations 0.0 0.0', 'gap_iterations 1.0 1.0',
    ],
    '20': [
        'gap_iterations -0.0 1.0', 'gap_iterations 0.0 1.0', 'gap_iterations 1-2**-53 0.0',
        'gap_iterations 1.0 0.0', 'gap_iterations 1e-300 1.0', 'gap_iterations 5e-324 1.0',
    ],
    'DegenerateArcError: ladder levels of a degenerate arc': [
        'length_sequence -0.0 0.0', 'length_sequence 0.0 0.0', 'length_sequence 1.0 1.0',
        'sector_sandwich -0.0 0.0', 'sector_sandwich 0.0 0.0', 'sector_sandwich 1.0 1.0',
    ],
    'SectorSandwich(m=3, inner_area=0.7803612880645131, outer_area=0.787931226857314, '
    'gap=0.007569938792800879)': [
        'sector_sandwich -0.0 1.0', 'sector_sandwich 0.0 1.0', 'sector_sandwich 1.0 0.0',
        'sector_sandwich 1e-300 1.0', 'sector_sandwich 5e-324 1.0',
    ],
    '[IterationRow(m=0, segment_length=1.4142135623730951, height=0.7071067811865475, '
    'total_length=1.4142135623730951, inner_area=0.5, outer_area=1.0000000000000002, '
    'enclosure_lo=1.5707756574806515, enclosure_hi=1.5707988327281095), IterationRow(m=1, '
    'segment_length=0.7653668647301796, height=0.9238795325112867, '
    'total_length=1.5307337294603591, inner_area=0.7071067811865476, '
    'outer_area=0.8284271247461902, enclosure_lo=1.570796326728077, '
    'enclosure_hi=1.5707963267963567), IterationRow(m=2, '
    'segment_length=0.39018064403225655, height=0.9807852804032304, '
    'total_length=1.5607225761290262, inner_area=0.7653668647301796, '
    'outer_area=0.795649469518632, enclosure_lo=1.5707963267948921, '
    'enclosure_hi=1.570796326794901), IterationRow(m=3, '
    'segment_length=0.1960342806591212, height=0.9951847266721969, '
    'total_length=1.5682742452729697, inner_area=0.7803612880645131, '
    'outer_area=0.787931226857314, enclosure_lo=1.570796326794892, '
    'enclosure_hi=1.5707963267949017)]': [
        'length_sequence -0.0 1.0', 'length_sequence 0.0 1.0', 'length_sequence 1.0 0.0',
        'length_sequence 1e-300 1.0', 'length_sequence 5e-324 1.0',
    ],
    'DegenerateArcError: upper bound of a degenerate arc': [
        'upper_bound -0.0 0.0', 'upper_bound 0.0 0.0', 'upper_bound 1.0 1.0',
    ],
    '2.8284271247461907': [
        'upper_bound -0.0 1.0', 'upper_bound 0.0 1.0', 'upper_bound 1.0 0.0',
        'upper_bound 1e-300 1.0', 'upper_bound 5e-324 1.0',
    ],
    '0.0': [
        'chord_length -0.0 0.0', 'chord_length 0.0 0.0', 'chord_length 1.0 1.0',
        'continuity_modulus 0.5', 'sin -0.0', 'sin 0.0', 'sin 1e-300', 'sin 5e-324',
    ],
    '1.4142135623730951': [
        'chord_length -0.0 1.0', 'chord_length 0.0 1.0', 'chord_length 1.0 0.0',
        'chord_length 1e-300 1.0', 'chord_length 5e-324 1.0',
    ],
    'DegenerateArcError: midpoint of a degenerate arc': [
        'circle_midpoint -0.0 0.0', 'circle_midpoint 0.0 0.0', 'circle_midpoint 1.0 1.0',
    ],
    'CirclePoint(y=0.7071067811865475)': [
        'circle_midpoint -0.0 1.0', 'circle_midpoint 0.0 1.0', 'circle_midpoint 1.0 0.0',
        'circle_midpoint 1e-300 1.0', 'circle_midpoint 5e-324 1.0',
    ],
    'AdditivityCheck(arc_whole=1.5707963267948966, arc_parts=1.5707963267948966, '
    'sector_whole=0.7853981633974483, sector_parts=0.7853981633974483)': [
        'additivity_check -0.0', 'additivity_check 0.0', 'additivity_check 1.0',
        'additivity_check 1e-300', 'additivity_check 5e-324',
    ],
    'TangentIntersection(u=-0.0, v=0.5773502691896258)': [
        'tangent_intersection -0.0', 'tangent_intersection 0.0',
        'tangent_intersection 5e-324',
    ],
    '0.28867513459481287': [
        'continuity_modulus -0.0', 'continuity_modulus 0.0', 'continuity_modulus 1e-300',
        'continuity_modulus 5e-324',
    ],
    '1.0': [
        'chord_length 0.5 1.0', 'height_for_chord -0.0', 'height_for_chord 0.0',
        'height_for_chord 1e-300', 'height_for_chord 5e-324',
    ],
    '(Enclosure(lo=0.0, hi=2.5e-323), ConvergenceReport(a_ordinate=5e-324, '
    "b_ordinate=0.0, tolerance=1e-12, stop_reason='tolerance_met', levels=((5e-324, 1.0, "
    '5e-324, 0.0, 2.5e-323),)))': [
        'arc_length 5e-324 0.0', 'arcsin 5e-324',
    ],
    '(Enclosure(lo=1.5707963267948921, hi=1.570796326794901), '
    'ConvergenceReport(a_ordinate=5e-324, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135623730951, 0.7071067811865475, "
    '1.4142135623730951, 1.5707756574806515, 1.5707988327281095), (0.7653668647301796, '
    '0.9238795325112867, 1.5307337294603591, 1.570796326728077, 1.5707963267963567), '
    '(0.39018064403225655, 0.9807852804032304, 1.5607225761290262, 1.5707963267948921, '
    '1.570796326794901))))': [
        'arc_length 5e-324 1.0',
    ],
    '(Enclosure(lo=0.0, hi=2e-323), ConvergenceReport(a_ordinate=5e-324, b_ordinate=0.0, '
    "tolerance=1e-12, stop_reason='tolerance_met', levels=((5e-324, 1.0, 5e-324, 0.0, "
    '2e-323),)))': [
        'sector_area 5e-324 0.0',
    ],
    '(Enclosure(lo=0.7853981633974455, hi=0.785398163397451), '
    'ConvergenceReport(a_ordinate=5e-324, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135623730951, 0.7071067811865475, "
    '1.4142135623730951, 0.49999999999999734, 1.0000000000000029), (0.7653668647301796, '
    '0.9238795325112867, 1.5307337294603591, 0.7071067811865452, 0.8284271247461925), '
    '(0.39018064403225655, 0.9807852804032304, 1.5607225761290262, 0.785398163364038, '
    '0.7853981633981788), (0.1960342806591212, 0.9951847266721969, 1.5682742452729697, '
    '0.7853981633974455, 0.785398163397451))))': [
        'sector_area 5e-324 1.0',
    ],
    'DomainError: arc too short for the ratio in binary64: chord 5e-324 times tol 1e-12 '
    'underflows to zero': [
        'verify_ratio 5e-324 0.0',
    ],
    '0': [
        'gap_iterations 1-2**-53 1.0', 'gap_iterations 1e-300 0.0',
        'gap_iterations 5e-324 0.0',
    ],
    'SectorSandwich(m=3, inner_area=0.0, outer_area=0.0, gap=0.0)': [
        'sector_sandwich 5e-324 0.0',
    ],
    '[IterationRow(m=0, segment_length=5e-324, height=1.0, total_length=5e-324, '
    'inner_area=0.0, outer_area=0.0, enclosure_lo=0.0, enclosure_hi=2.5e-323), '
    'IterationRow(m=1, segment_length=0.0, height=1.0, total_length=5e-324, '
    'inner_area=0.0, outer_area=0.0, enclosure_lo=0.0, enclosure_hi=4.4e-323), '
    'IterationRow(m=2, segment_length=0.0, height=1.0, total_length=5e-324, '
    'inner_area=0.0, outer_area=0.0, enclosure_lo=0.0, enclosure_hi=8.4e-323), '
    'IterationRow(m=3, segment_length=0.0, height=1.0, total_length=5e-324, '
    'inner_area=0.0, outer_area=0.0, enclosure_lo=0.0, enclosure_hi=1.63e-322)]': [
        'length_sequence 5e-324 0.0',
    ],
    '5e-324': [
        'chord_length 5e-324 0.0', 'upper_bound 5e-324 0.0',
    ],
    'DegenerateArcError: arc spans too few representable ordinates to bisect': [
        'circle_midpoint 1-2**-53 1.0', 'circle_midpoint 5e-324 0.0',
    ],
    '(Enclosure(lo=9.999999999999982e-301, hi=1.0000000000000018e-300), '
    'ConvergenceReport(a_ordinate=1e-300, b_ordinate=0.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1e-300, 1.0, 1e-300, 9.999999999999982e-301, "
    '1.0000000000000018e-300),)))': [
        'arc_length 1e-300 0.0', 'arcsin 1e-300',
    ],
    '(Enclosure(lo=1.5707963267948921, hi=1.570796326794901), '
    'ConvergenceReport(a_ordinate=1e-300, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135623730951, 0.7071067811865475, "
    '1.4142135623730951, 1.5707756574806515, 1.5707988327281095), (0.7653668647301796, '
    '0.9238795325112867, 1.5307337294603591, 1.570796326728077, 1.5707963267963567), '
    '(0.39018064403225655, 0.9807852804032304, 1.5607225761290262, 1.5707963267948921, '
    '1.570796326794901))))': [
        'arc_length 1e-300 1.0',
    ],
    '(Enclosure(lo=4.999999999999989e-301, hi=5.000000000000011e-301), '
    'ConvergenceReport(a_ordinate=1e-300, b_ordinate=0.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1e-300, 1.0, 1e-300, 4.999999999999989e-301, "
    '5.000000000000011e-301),)))': [
        'sector_area 1e-300 0.0',
    ],
    '(Enclosure(lo=0.7853981633974455, hi=0.785398163397451), '
    'ConvergenceReport(a_ordinate=1e-300, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135623730951, 0.7071067811865475, "
    '1.4142135623730951, 0.49999999999999734, 1.0000000000000029), (0.7653668647301796, '
    '0.9238795325112867, 1.5307337294603591, 0.7071067811865452, 0.8284271247461925), '
    '(0.39018064403225655, 0.9807852804032304, 1.5607225761290262, 0.785398163364038, '
    '0.7853981633981788), (0.1960342806591212, 0.9951847266721969, 1.5682742452729697, '
    '0.7853981633974455, 0.785398163397451))))': [
        'sector_area 1e-300 1.0',
    ],
    'SectorSandwich(m=3, inner_area=5e-301, outer_area=5e-301, gap=0.0)': [
        'sector_sandwich 1e-300 0.0',
    ],
    '[IterationRow(m=0, segment_length=1e-300, height=1.0, total_length=1e-300, '
    'inner_area=5e-301, outer_area=5e-301, enclosure_lo=9.999999999999982e-301, '
    'enclosure_hi=1.0000000000000018e-300), IterationRow(m=1, segment_length=5e-301, '
    'height=1.0, total_length=1e-300, inner_area=5e-301, outer_area=5e-301, '
    'enclosure_lo=9.999999999999979e-301, enclosure_hi=1.0000000000000022e-300), '
    'IterationRow(m=2, segment_length=2.5e-301, height=1.0, total_length=1e-300, '
    'inner_area=5e-301, outer_area=5e-301, enclosure_lo=9.999999999999975e-301, '
    'enclosure_hi=1.0000000000000025e-300), IterationRow(m=3, segment_length=1.25e-301, '
    'height=1.0, total_length=1e-300, inner_area=5e-301, outer_area=5e-301, '
    'enclosure_lo=9.999999999999974e-301, enclosure_hi=1.0000000000000027e-300)]': [
        'length_sequence 1e-300 0.0',
    ],
    '1e-300': [
        'chord_length 1e-300 0.0', 'upper_bound 1e-300 0.0',
    ],
    'CirclePoint(y=5e-301)': [
        'circle_midpoint 1e-300 0.0',
    ],
    'TangentIntersection(u=-5.773502691896258e-301, v=0.5773502691896258)': [
        'tangent_intersection 1e-300',
    ],
    '(Enclosure(lo=0.5235987755982894, hi=0.5235987755982999), '
    'ConvergenceReport(a_ordinate=0.5, b_ordinate=0.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((0.5176380902050415, 0.9659258262890683, "
    '0.5176380902050415, 0.5235987755982894, 0.5235987755982999),)))': [
        'arc_length 0.5 0.0', 'arcsin 0.5',
    ],
    '(Enclosure(lo=1.0471975511965783, hi=1.0471975511966003), '
    'ConvergenceReport(a_ordinate=0.5, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.0, 0.8660254037844386, 1.0, "
    '1.0471975409568706, 1.0471975516257384), (0.5176380902050415, 0.9659258262890683, '
    '1.035276180410083, 1.0471975511965783, 1.0471975511966003))))': [
        'arc_length 0.5 1.0',
    ],
    '(Enclosure(lo=0.2617993877991445, hi=0.26179938779915013), '
    'ConvergenceReport(a_ordinate=0.5, b_ordinate=0.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((0.5176380902050415, 0.9659258262890683, "
    '0.5176380902050415, 0.26179938523921753, 0.2617993879064346), (0.26105238444010315, '
    '0.9914448613738104, 0.5221047688802063, 0.2617993877991445, 0.26179938779915013))))': [
        'sector_area 0.5 0.0',
    ],
    '(Enclosure(lo=0.5235987755982888, hi=0.5235987755983005), '
    'ConvergenceReport(a_ordinate=0.5, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.0, 0.8660254037844386, 1.0, "
    '0.43301270189221797, 0.5773502691896272), (0.5176380902050415, 0.9659258262890683, '
    '1.035276180410083, 0.5235987704784348, 0.5235987758128694), (0.26105238444010315, '
    '0.9914448613738104, 1.0442095377604126, 0.5235987755982888, 0.5235987755983005))))': [
        'sector_area 0.5 1.0',
    ],
    '18': [
        'gap_iterations 0.5 0.0',
    ],
    '19': [
        'gap_iterations 0.5 1.0',
    ],
    'SectorSandwich(m=3, inner_area=0.26161251692057225, outer_area=0.26189288330378063, '
    'gap=0.0002803663832083858)': [
        'sector_sandwich 0.5 0.0',
    ],
    'SectorSandwich(m=3, inner_area=0.5221047688802063, outer_area=0.5243477025219058, '
    'gap=0.002242933641699474)': [
        'sector_sandwich 0.5 1.0',
    ],
    '[IterationRow(m=0, segment_length=0.5176380902050415, height=0.9659258262890683, '
    'total_length=0.5176380902050415, inner_area=0.24999999999999997, '
    'outer_area=0.2679491924311227, enclosure_lo=0.5235987755982894, '
    'enclosure_hi=0.5235987755982999), IterationRow(m=1, '
    'segment_length=0.26105238444010315, height=0.9914448613738104, '
    'total_length=0.5221047688802063, inner_area=0.25881904510252074, '
    'outer_area=0.26330499517479167, enclosure_lo=0.5235987755982977, '
    'enclosure_hi=0.5235987755982999), IterationRow(m=2, '
    'segment_length=0.13080625846028612, height=0.9978589232386035, '
    'total_length=0.5232250338411445, inner_area=0.26105238444010315, '
    'outer_area=0.2621738512609529, enclosure_lo=0.5235987755982975, '
    'enclosure_hi=0.5235987755983001), IterationRow(m=3, '
    'segment_length=0.06543816564355227, height=0.9994645874763657, '
    'total_length=0.5235053251484182, inner_area=0.26161251692057225, '
    'outer_area=0.26189288330378063, enclosure_lo=0.5235987755982974, '
    'enclosure_hi=0.5235987755983003)]': [
        'length_sequence 0.5 0.0',
    ],
    '[IterationRow(m=0, segment_length=1.0, height=0.8660254037844386, total_length=1.0, '
    'inner_area=0.4330127018922193, outer_area=0.5773502691896258, '
    'enclosure_lo=1.0471975409568706, enclosure_hi=1.0471975516257384), IterationRow(m=1, '
    'segment_length=0.5176380902050415, height=0.9659258262890683, '
    'total_length=1.035276180410083, inner_area=0.49999999999999994, '
    'outer_area=0.5358983848622454, enclosure_lo=1.0471975511965783, '
    'enclosure_hi=1.0471975511966003), IterationRow(m=2, '
    'segment_length=0.26105238444010315, height=0.9914448613738104, '
    'total_length=1.0442095377604126, inner_area=0.5176380902050415, '
    'outer_area=0.5266099903495833, enclosure_lo=1.047197551196595, '
    'enclosure_hi=1.0471975511966003), IterationRow(m=3, '
    'segment_length=0.13080625846028612, height=0.9978589232386035, '
    'total_length=1.046450067682289, inner_area=0.5221047688802063, '
    'outer_area=0.5243477025219058, enclosure_lo=1.0471975511965945, '
    'enclosure_hi=1.0471975511966007)]': [
        'length_sequence 0.5 1.0',
    ],
    '0.554802832968118': [
        'upper_bound 0.5 0.0',
    ],
    '1.3333333333333335': [
        'upper_bound 0.5 1.0',
    ],
    '0.5176380902050415': [
        'chord_length 0.5 0.0',
    ],
    'CirclePoint(y=0.25881904510252074)': [
        'circle_midpoint 0.5 0.0',
    ],
    'CirclePoint(y=0.8660254037844387)': [
        'circle_midpoint 0.5 1.0',
    ],
    'AdditivityCheck(arc_whole=1.5707963267948966, arc_parts=1.5707963267948841, '
    'sector_whole=0.7853981633974483, sector_parts=0.7853981633974421)': [
        'additivity_check 0.5',
    ],
    '0.479425538604203': [
        'sin 0.5',
    ],
    'TangentIntersection(u=0.0, v=-0.0)': [
        'tangent_intersection 0.5',
    ],
    '0.9682458365518543': [
        'height_for_chord 0.5',
    ],
    '(Enclosure(lo=1.5707963118937305, hi=1.5707963118937394), '
    'ConvergenceReport(a_ordinate=0.9999999999999999, b_ordinate=0.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135518363828, 0.7071067864549037, "
    '1.4142135518363828, 1.5707756425829689, 1.5707988178264554), (0.7653668578467405, '
    '0.9238795339368937, 1.530733715693481, 1.5707963118269153, 1.570796311895195), '
    '(0.3901806403785466, 0.9807852807666145, 1.5607225615141864, 1.5707963118937305, '
    '1.5707963118937394))))': [
        'arc_length 1-2**-53 0.0', 'arcsin 1-2**-53',
    ],
    '(Enclosure(lo=1.490116119384763e-08, hi=1.4901161193847683e-08), '
    'ConvergenceReport(a_ordinate=0.9999999999999999, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4901161193847656e-08, 1.0, "
    '1.4901161193847656e-08, 1.490116119384763e-08, 1.4901161193847683e-08),)))': [
        'arc_length 1-2**-53 1.0',
    ],
    '(Enclosure(lo=0.7853981559468647, hi=0.7853981559468702), '
    'ConvergenceReport(a_ordinate=0.9999999999999999, b_ordinate=0.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135518363828, 0.7071067864549037, "
    '1.4142135518363828, 0.4999999999999973, 0.9999999850988414), (0.7653668578467405, '
    '0.9238795339368937, 1.530733715693481, 0.785387821291484, 0.7853994089132281), '
    '(0.3901806403785466, 0.9807852807666145, 1.5607225615141864, 0.7853981559134572, '
    '0.785398155947598), (0.1960342788054452, 0.9951847267634825, 1.5682742304435615, '
    '0.7853981559468647, 0.7853981559468702))))': [
        'sector_area 1-2**-53 0.0',
    ],
    '(Enclosure(lo=7.450580596923812e-09, hi=7.450580596923845e-09), '
    'ConvergenceReport(a_ordinate=0.9999999999999999, b_ordinate=1.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4901161193847656e-08, 1.0, "
    '1.4901161193847656e-08, 7.450580596923812e-09, 7.450580596923845e-09),)))': [
        'sector_area 1-2**-53 1.0',
    ],
    'SectorSandwich(m=3, inner_area=0.7803612807570932, outer_area=0.7879312193344586, '
    'gap=0.0075699385773654315)': [
        'sector_sandwich 1-2**-53 0.0',
    ],
    'SectorSandwich(m=3, inner_area=7.450580596923828e-09, '
    'outer_area=7.450580596923828e-09, gap=0.0)': [
        'sector_sandwich 1-2**-53 1.0',
    ],
    '[IterationRow(m=0, segment_length=1.4142135518363828, height=0.7071067864549037, '
    'total_length=1.4142135518363828, inner_area=0.49999999999999994, '
    'outer_area=0.9999999850988387, enclosure_lo=1.5707756425829689, '
    'enclosure_hi=1.5707988178264554), IterationRow(m=1, '
    'segment_length=0.7653668578467405, height=0.9238795339368937, '
    'total_length=1.530733715693481, inner_area=0.7071067759181914, '
    'outer_area=0.8284271160172918, enclosure_lo=1.5707963118269153, '
    'enclosure_hi=1.570796311895195), IterationRow(m=2, '
    'segment_length=0.3901806403785466, height=0.9807852807666145, '
    'total_length=1.5607225615141864, inner_area=0.7653668578467405, '
    'outer_area=0.7956494617732607, enclosure_lo=1.5707963118937305, '
    'enclosure_hi=1.5707963118937394), IterationRow(m=3, '
    'segment_length=0.1960342788054452, height=0.9951847267634825, '
    'total_length=1.5682742304435615, inner_area=0.7803612807570932, '
    'outer_area=0.7879312193344586, enclosure_lo=1.5707963118937303, '
    'enclosure_hi=1.57079631189374)]': [
        'length_sequence 1-2**-53 0.0',
    ],
    '[IterationRow(m=0, segment_length=1.4901161193847656e-08, height=1.0, '
    'total_length=1.4901161193847656e-08, inner_area=7.450580596923828e-09, '
    'outer_area=7.450580596923828e-09, enclosure_lo=1.490116119384763e-08, '
    'enclosure_hi=1.4901161193847683e-08), IterationRow(m=1, '
    'segment_length=7.450580596923828e-09, height=1.0, '
    'total_length=1.4901161193847656e-08, inner_area=7.450580596923828e-09, '
    'outer_area=7.450580596923828e-09, enclosure_lo=1.4901161193847625e-08, '
    'enclosure_hi=1.4901161193847686e-08), IterationRow(m=2, '
    'segment_length=3.725290298461914e-09, height=1.0, '
    'total_length=1.4901161193847656e-08, inner_area=7.450580596923828e-09, '
    'outer_area=7.450580596923828e-09, enclosure_lo=1.490116119384762e-08, '
    'enclosure_hi=1.4901161193847693e-08), IterationRow(m=3, '
    'segment_length=1.862645149230957e-09, height=1.0, '
    'total_length=1.4901161193847656e-08, inner_area=7.450580596923828e-09, '
    'outer_area=7.450580596923828e-09, enclosure_lo=1.4901161193847615e-08, '
    'enclosure_hi=1.4901161193847696e-08)]': [
        'length_sequence 1-2**-53 1.0',
    ],
    '2.8284270615259173': [
        'upper_bound 1-2**-53 0.0',
    ],
    '1.4901161193847656e-08': [
        'chord_length 1-2**-53 1.0', 'upper_bound 1-2**-53 1.0',
    ],
    '1.4142135518363828': [
        'chord_length 1-2**-53 0.0',
    ],
    'CirclePoint(y=0.7071067759181915)': [
        'circle_midpoint 1-2**-53 0.0',
    ],
    'AdditivityCheck(arc_whole=1.5707963267948966, arc_parts=1.5707963267948961, '
    'sector_whole=0.7853981633974483, sector_parts=0.7853981633974481)': [
        'additivity_check 1-2**-53',
    ],
    '0.8414709848078964': [
        'sin 1-2**-53',
    ],
    'TangentIntersection(u=1.7320507479642335, v=-2.5809567391339447e-08)': [
        'tangent_intersection 1-2**-53',
    ],
    '0.8660253739821168': [
        'continuity_modulus 1-2**-53',
    ],
    '0.8660254037844386': [
        'height_for_chord 1+2**-52', 'height_for_chord 1-2**-53', 'height_for_chord 1.0',
    ],
    '(Enclosure(lo=1.5707963267948921, hi=1.570796326794901), '
    'ConvergenceReport(a_ordinate=1.0, b_ordinate=0.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135623730951, 0.7071067811865475, "
    '1.4142135623730951, 1.5707756574806515, 1.5707988327281095), (0.7653668647301796, '
    '0.9238795325112867, 1.5307337294603591, 1.570796326728077, 1.5707963267963567), '
    '(0.39018064403225655, 0.9807852804032304, 1.5607225761290262, 1.5707963267948921, '
    '1.570796326794901))))': [
        'arc_length 1.0 0.0', 'arcsin 1.0',
    ],
    '(Enclosure(lo=0.0, hi=0.0), ConvergenceReport(a_ordinate=1.0, b_ordinate=1.0, '
    "tolerance=1e-12, stop_reason='tolerance_met', levels=()))": [
        'arc_length 1.0 1.0', 'sector_area 1.0 1.0',
    ],
    '(Enclosure(lo=0.7853981633974455, hi=0.785398163397451), '
    'ConvergenceReport(a_ordinate=1.0, b_ordinate=0.0, tolerance=1e-12, '
    "stop_reason='tolerance_met', levels=((1.4142135623730951, 0.7071067811865475, "
    '1.4142135623730951, 0.49999999999999734, 1.0000000000000029), (0.7653668647301796, '
    '0.9238795325112867, 1.5307337294603591, 0.7071067811865452, 0.8284271247461925), '
    '(0.39018064403225655, 0.9807852804032304, 1.5607225761290262, 0.785398163364038, '
    '0.7853981633981788), (0.1960342806591212, 0.9951847266721969, 1.5682742452729697, '
    '0.7853981633974455, 0.785398163397451))))': [
        'sector_area 1.0 0.0',
    ],
    '0.8414709848078965': [
        'sin 1.0',
    ],
    'TangentIntersection(u=1.7320508075688772, v=-0.0)': [
        'tangent_intersection 1.0',
    ],
    '0.8660254037844385': [
        'continuity_modulus 1.0',
    ],
    'DomainError: ordinate must lie in [0, 1], got 1.0000000000000002': [
        'additivity_check 1+2**-52', 'arc_length 1+2**-52 0.0', 'arc_length 1+2**-52 1.0',
        'arcsin 1+2**-52', 'chord_length 1+2**-52 0.0', 'chord_length 1+2**-52 1.0',
        'circle_midpoint 1+2**-52 0.0', 'circle_midpoint 1+2**-52 1.0',
        'continuity_modulus 1+2**-52', 'gap_iterations 1+2**-52 0.0',
        'gap_iterations 1+2**-52 1.0', 'length_sequence 1+2**-52 0.0',
        'length_sequence 1+2**-52 1.0', 'sector_area 1+2**-52 0.0',
        'sector_area 1+2**-52 1.0', 'sector_sandwich 1+2**-52 0.0',
        'sector_sandwich 1+2**-52 1.0', 'tangent_intersection 1+2**-52',
        'upper_bound 1+2**-52 0.0', 'upper_bound 1+2**-52 1.0', 'verify_ratio 1+2**-52 0.0',
        'verify_ratio 1+2**-52 1.0',
    ],
    '0.8414709848078966': [
        'sin 1+2**-52',
    ],
    'DomainError: ordinate must lie in [0, 1], got -1.0': [
        'additivity_check -1.0', 'arc_length -1.0 0.0', 'arc_length -1.0 1.0',
        'arcsin -1.0', 'chord_length -1.0 0.0', 'chord_length -1.0 1.0',
        'circle_midpoint -1.0 0.0', 'circle_midpoint -1.0 1.0', 'continuity_modulus -1.0',
        'gap_iterations -1.0 0.0', 'gap_iterations -1.0 1.0', 'length_sequence -1.0 0.0',
        'length_sequence -1.0 1.0', 'sector_area -1.0 0.0', 'sector_area -1.0 1.0',
        'sector_sandwich -1.0 0.0', 'sector_sandwich -1.0 1.0', 'tangent_intersection -1.0',
        'upper_bound -1.0 0.0', 'upper_bound -1.0 1.0', 'verify_ratio -1.0 0.0',
        'verify_ratio -1.0 1.0',
    ],
    'DomainError: argument must lie in [0, 1.570796326794901] (a quarter turn), got -1.0': [
        'sin -1.0',
    ],
    'DomainError: chord length must lie in [0, 2], got -1.0': [
        'height_for_chord -1.0',
    ],
    'DomainError: ordinate must lie in [0, 1], got inf': [
        'additivity_check inf', 'arc_length inf 0.0', 'arc_length inf 1.0', 'arcsin inf',
        'chord_length inf 0.0', 'chord_length inf 1.0', 'circle_midpoint inf 0.0',
        'circle_midpoint inf 1.0', 'continuity_modulus inf', 'gap_iterations inf 0.0',
        'gap_iterations inf 1.0', 'length_sequence inf 0.0', 'length_sequence inf 1.0',
        'sector_area inf 0.0', 'sector_area inf 1.0', 'sector_sandwich inf 0.0',
        'sector_sandwich inf 1.0', 'tangent_intersection inf', 'upper_bound inf 0.0',
        'upper_bound inf 1.0', 'verify_ratio inf 0.0', 'verify_ratio inf 1.0',
    ],
    'DomainError: argument must lie in [0, 1.570796326794901] (a quarter turn), got inf': [
        'sin inf',
    ],
    'DomainError: chord length must lie in [0, 2], got inf': [
        'height_for_chord inf',
    ],
    'DomainError: ordinate must lie in [0, 1], got -inf': [
        'additivity_check -inf', 'arc_length -inf 0.0', 'arc_length -inf 1.0',
        'arcsin -inf', 'chord_length -inf 0.0', 'chord_length -inf 1.0',
        'circle_midpoint -inf 0.0', 'circle_midpoint -inf 1.0', 'continuity_modulus -inf',
        'gap_iterations -inf 0.0', 'gap_iterations -inf 1.0', 'length_sequence -inf 0.0',
        'length_sequence -inf 1.0', 'sector_area -inf 0.0', 'sector_area -inf 1.0',
        'sector_sandwich -inf 0.0', 'sector_sandwich -inf 1.0', 'tangent_intersection -inf',
        'upper_bound -inf 0.0', 'upper_bound -inf 1.0', 'verify_ratio -inf 0.0',
        'verify_ratio -inf 1.0',
    ],
    'DomainError: argument must lie in [0, 1.570796326794901] (a quarter turn), got -inf': [
        'sin -inf',
    ],
    'DomainError: chord length must lie in [0, 2], got -inf': [
        'height_for_chord -inf',
    ],
    'DomainError: ordinate must lie in [0, 1], got nan': [
        'additivity_check nan', 'arc_length nan 0.0', 'arc_length nan 1.0', 'arcsin nan',
        'chord_length nan 0.0', 'chord_length nan 1.0', 'circle_midpoint nan 0.0',
        'circle_midpoint nan 1.0', 'continuity_modulus nan', 'gap_iterations nan 0.0',
        'gap_iterations nan 1.0', 'length_sequence nan 0.0', 'length_sequence nan 1.0',
        'sector_area nan 0.0', 'sector_area nan 1.0', 'sector_sandwich nan 0.0',
        'sector_sandwich nan 1.0', 'tangent_intersection nan', 'upper_bound nan 0.0',
        'upper_bound nan 1.0', 'verify_ratio nan 0.0', 'verify_ratio nan 1.0',
    ],
    'DomainError: argument must lie in [0, 1.570796326794901] (a quarter turn), got nan': [
        'sin nan',
    ],
    'DomainError: chord length must lie in [0, 2], got nan': [
        'height_for_chord nan',
    ],
    'DomainError: ordinate must be a real number, got True': [
        'additivity_check True', 'arc_length True 0.0', 'arc_length True 1.0',
        'arcsin True', 'chord_length True 0.0', 'chord_length True 1.0',
        'circle_midpoint True 0.0', 'circle_midpoint True 1.0', 'continuity_modulus True',
        'gap_iterations True 0.0', 'gap_iterations True 1.0', 'length_sequence True 0.0',
        'length_sequence True 1.0', 'sector_area True 0.0', 'sector_area True 1.0',
        'sector_sandwich True 0.0', 'sector_sandwich True 1.0', 'tangent_intersection True',
        'upper_bound True 0.0', 'upper_bound True 1.0', 'verify_ratio True 0.0',
        'verify_ratio True 1.0',
    ],
    'DomainError: argument must be a real number, got True': [
        'sin True',
    ],
    'DomainError: chord length must be a real number, got True': [
        'height_for_chord True',
    ],
    'DomainError: ordinate must lie in [0, 1], got '
    '13582985290493858492773514283592667786034938469317445497485196697278130927542418487205'
    '39208320756059229857826295384738347503872554323492997115554834280062872188576349940639'
    '03317828641441646807307668371605262231765127984357721299565533552860322030803807757597'
    '32320198985094884004069116123084147875437183658467465148948790552744165376': [
        'additivity_check 2**1100', 'arc_length 2**1100 0.0', 'arc_length 2**1100 1.0',
        'arcsin 2**1100', 'chord_length 2**1100 0.0', 'chord_length 2**1100 1.0',
        'circle_midpoint 2**1100 0.0', 'circle_midpoint 2**1100 1.0',
        'continuity_modulus 2**1100', 'gap_iterations 2**1100 0.0',
        'gap_iterations 2**1100 1.0', 'length_sequence 2**1100 0.0',
        'length_sequence 2**1100 1.0', 'sector_area 2**1100 0.0', 'sector_area 2**1100 1.0',
        'sector_sandwich 2**1100 0.0', 'sector_sandwich 2**1100 1.0',
        'tangent_intersection 2**1100', 'upper_bound 2**1100 0.0',
        'upper_bound 2**1100 1.0', 'verify_ratio 2**1100 0.0', 'verify_ratio 2**1100 1.0',
    ],
    'DomainError: argument must lie in [0, 1.570796326794901] (a quarter turn), '
    'got '
    '13582985290493858492773514283592667786034938469317445497485196697278130927542418487205'
    '39208320756059229857826295384738347503872554323492997115554834280062872188576349940639'
    '03317828641441646807307668371605262231765127984357721299565533552860322030803807757597'
    '32320198985094884004069116123084147875437183658467465148948790552744165376': [
        'sin 2**1100',
    ],
    'DomainError: chord length must lie in [0, 2], '
    'got '
    '13582985290493858492773514283592667786034938469317445497485196697278130927542418487205'
    '39208320756059229857826295384738347503872554323492997115554834280062872188576349940639'
    '03317828641441646807307668371605262231765127984357721299565533552860322030803807757597'
    '32320198985094884004069116123084147875437183658467465148948790552744165376': [
        'height_for_chord 2**1100',
    ],
}


EXPECTED = {key: outcome for outcome, keys in TABLE.items() for key in keys}


def test_edge_sweep_matches_table():
    assert sweep() == EXPECTED


def test_every_error_is_a_domain_or_a_convergence_error():
    raised = {match[1] for outcome in TABLE
              if (match := re.match(r"(\w+Error): ", outcome))}
    assert raised and all(
        issubclass(getattr(errors, name), (errors.DomainError, errors.ConvergenceError))
        for name in raised), raised


def _arcs(s):
    return [["--a", s, "--b", "0"], ["--a", "1", "--b", s]]


# command -> the argv of the command for one ordinate string
COMMANDS = {
    "arc": _arcs,
    "sector": _arcs,
    "ratio": _arcs,
    "additivity": lambda s: [["--a", "1", "--m", s, "--b", "0"]],
    "arcsin": lambda s: [[s]],
    "sin": lambda s: [[s]],
}


# the --tol strings that pi runs over
PI_TOLS = ["0", "-1", "nan", "inf", "-inf", "5e-324", "1e-17", "1e-16", "1e-15", "8e-15",
           "1e-14", "1e-8", "1e300", "abc"]


def _run_cleanly(argv, fmt, capsys):
    """Run the CLI on ``argv`` in ``fmt``: it exits 0, 1, 2 or 64, prints
    its JSON object (or a CSV table that starts with the iteration header
    or ``name,value``) when it exits 0, and never a traceback."""
    code = run([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 64), argv
    if code == 0 and fmt == "json":
        assert json.loads(captured.out)["command"] == argv[0], argv
    elif code == 0:
        header = captured.out.split("\n", 1)[0]
        assert header in (",".join(CSV_COLUMNS), "name,value"), argv
    assert "Traceback" not in captured.err, argv


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_over_the_edges(command, capsys):
    """Over the sweep's ordinates, each command runs cleanly in both formats."""
    for y in ORDINATES.values():
        for args in COMMANDS[command](_cli_value(y)):
            for fmt in ("json", "csv"):
                _run_cleanly([command, *args, "--tol", repr(TOL)], fmt, capsys)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_pi_over_the_edge_tolerances(fmt, capsys):
    """``pi`` runs cleanly in both formats at each edge tolerance."""
    for tol in PI_TOLS:
        _run_cleanly(["pi", "--tol", tol], fmt, capsys)
