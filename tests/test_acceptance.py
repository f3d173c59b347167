"""Acceptance suite: the package-level exit criteria, one test per criterion.

Each test pins the stated tolerance and prints a PASS line (visible with
``pytest tests/test_acceptance.py -v -s``). Host-library values (math.pi,
math.asin) appear only as reference oracles.
"""

import json
import math
import time

import numpy as np
import pytest

from chordtrig import (
    Partition,
    SCHEMES,
    additivity_check,
    arcsin,
    chord_length,
    circle_midpoint,
    continuity_modulus,
    gap_iterations,
    length_sequence,
    point_from_ordinate,
    polygonal_length,
    refine_union,
    refinement_gap_bound,
    scheme_limit,
    sector_sandwich,
    sin,
    upper_bound,
    verify_ratio,
)
from chordtrig.cli import run

from conftest import EPS, random_arc_ordinates
from oracles import ivt_midpoint_ordinate

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)
SEED = 20260808


def _rng():
    return np.random.default_rng(SEED)


def test_c01_pi_reproduction(capsys):
    t0 = time.perf_counter()
    code = run(["pi", "--tol", "1e-10"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    enc = json.loads(out)["enclosure"]
    assert enc["width"] <= 2e-10
    assert enc["lo"] <= 3.14159265358979 <= enc["hi"]
    assert enc["lo"] <= math.pi <= enc["hi"]
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS - pi enclosure width {enc['width']:.3e} <= 2e-10, "
          f"contains pi, {elapsed:.3f}s < 1s")


def test_c02_ratio_on_random_arcs():
    rng = _rng()
    t0 = time.perf_counter()
    worst = 0.0
    for ya, yb in random_arc_ordinates(rng, 100):
        ratio = verify_ratio(point_from_ordinate(ya), point_from_ordinate(yb), 1e-9)
        worst = max(worst, abs(ratio - 2.0))
        assert 2.0 - 1e-7 <= ratio <= 2.0 + 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS - 100 arc/sector ratios within 1e-7 of 2 "
          f"(worst dev {worst:.3e}), {elapsed:.3f}s < 5s")


def _fifty_arcs():
    return random_arc_ordinates(_rng(), 50)


def test_c03_lengths_increasing_and_bounded():
    for ya, yb in _fifty_arcs():
        a, b = point_from_ordinate(ya), point_from_ordinate(yb)
        records = length_sequence(a, b, 20)
        cap = upper_bound(a, b)
        totals = [r.total_length for r in records]
        for u, v in zip(totals, totals[1:]):
            assert v >= u - 8 * EPS
        for value in totals:
            assert value <= cap + 8 * EPS
    print("\nACCEPTANCE 3 PASS - L_m non-decreasing and below l0/h0^2 + 8eps "
          "on 50 random arcs, m <= 20")


def test_c04_segment_contraction():
    root_half = 1.0 / math.sqrt(2.0)
    for ya, yb in _fifty_arcs():
        records = length_sequence(point_from_ordinate(ya), point_from_ordinate(yb), 20)
        segs = [r.segment_length for r in records]
        for u, v in zip(segs, segs[1:]):
            assert v <= u * root_half + 8 * EPS
    print("\nACCEPTANCE 4 PASS - segment contraction by sqrt(2) + 8eps "
          "on 50 random arcs, m <= 20")


def test_c05_inner_chords_shorter():
    rng = _rng()
    checked = 0
    while checked < 1000:
        ys = rng.uniform(0.0, 1.0, 4)
        ys = -np.sort(-ys)
        if len(set(ys.tolist())) < 4:
            continue
        ya, y1, y2, yb = (float(v) for v in ys)
        inner = chord_length(point_from_ordinate(y1), point_from_ordinate(y2))
        outer = chord_length(point_from_ordinate(ya), point_from_ordinate(yb))
        assert inner <= outer + 4 * EPS
        checked += 1
    print("\nACCEPTANCE 5 PASS - |Q1 Q2| <= |A B| + 4eps on 1000 ordered quadruples")


def test_c06_gap_criterion_on_quarter():
    assert gap_iterations(TOP, Q, 0.3) == 1
    gap0 = sector_sandwich(TOP, Q, 0).gap
    gap1 = sector_sandwich(TOP, Q, 1).gap
    assert gap0 == pytest.approx(0.5, abs=1e-9)
    assert gap1 == pytest.approx(0.12132034, abs=1e-8)
    assert gap1 == pytest.approx(1.5 * math.sqrt(2.0) - 2.0, abs=1e-9)
    print(f"\nACCEPTANCE 6 PASS - m0(0.3) = 1 with gaps {gap0:.9f} / {gap1:.9f}")


def test_c07_refinement_bound():
    rng = _rng()
    pairs = random_arc_ordinates(rng, 100, min_sep=1e-3)
    for ya, yb in pairs:
        count_p = int(rng.integers(0, 10))
        count_q = int(rng.integers(0, 10))

        def build(count):
            interior = sorted({float(v) for v in rng.uniform(yb, ya, count)
                               if yb < v < ya}, reverse=True)
            return Partition(
                point_from_ordinate(v) for v in (ya, *interior, yb))

        p, q = build(count_p), build(count_q)
        union = refine_union(p, q)
        assert (abs(polygonal_length(union) - polygonal_length(p))
                <= refinement_gap_bound(p) + 8 * EPS)
        assert (abs(polygonal_length(p) - polygonal_length(q))
                <= refinement_gap_bound(p) + refinement_gap_bound(q) + 8 * EPS)
    print("\nACCEPTANCE 7 PASS - refinement bound and common-refinement "
          "triangle bound on 100 random pairs")


def test_c08_scheme_independence():
    rng = _rng()
    worst = 0.0
    for ya, yb in random_arc_ordinates(rng, 20):
        a, b = point_from_ordinate(ya), point_from_ordinate(yb)
        limits = [scheme_limit(a, b, scheme, 1e-9, seed=SEED) for scheme in SCHEMES]
        for u in limits:
            for v in limits:
                worst = max(worst, abs(u - v))
                assert abs(u - v) <= 1e-7
    print(f"\nACCEPTANCE 8 PASS - three scheme limits pairwise within 1e-7 "
          f"on 20 random arcs (worst {worst:.3e})")


def test_c09_additivity():
    rng = _rng()
    built = 0
    while built < 50:
        ys = -np.sort(-rng.uniform(0.0, 1.0, 3))
        if len(set(ys.tolist())) < 3:
            continue
        a, m, b = (point_from_ordinate(float(v)) for v in ys)
        check = additivity_check(a, m, b, 1e-9)
        assert abs(check.arc_whole - check.arc_parts) <= 1e-8
        assert abs(check.sector_whole - check.sector_parts) <= 5e-9
        built += 1
    print("\nACCEPTANCE 9 PASS - arc additivity within 1e-8 and sector "
          "additivity within 5e-9 on 50 random triples")


def test_c10_round_trips_and_monotonicity():
    rng = _rng()
    tol = 1e-10
    for y in rng.uniform(0.0, 1.0, 50):
        enc, _ = arcsin(float(y), tol)
        assert abs(sin(enc.mid, tol) - float(y)) <= 1e-9
    for x in rng.uniform(0.0, math.pi / 2.0, 50):
        enc, _ = arcsin(sin(float(x), tol), tol)
        assert abs(enc.mid - float(x)) <= 1e-9
    mids = [arcsin(k / 99.0, tol)[0].mid for k in range(100)]
    assert all(u < v for u, v in zip(mids, mids[1:]))
    print("\nACCEPTANCE 10 PASS - sin/arcsin round trips within 1e-9 (50 each), "
          "arcsin strictly increasing on a 100-point ladder")


def test_c11_continuity_modulus():
    rng = _rng()
    tol = 1e-9
    checked = 0
    while checked < 100:
        y0, y = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        if {y0, y} == {0.0, 1.0}:
            continue
        g = arcsin(y, tol)[0].mid / 2.0
        g0 = arcsin(y0, tol)[0].mid / 2.0
        assert abs(g - g0) <= continuity_modulus(y0, y) + 1e-9
        checked += 1
    y0 = 0.25
    ladder = [continuity_modulus(y0, y0 + 2.0 ** -k) for k in range(1, 21)]
    assert all(v <= u for u, v in zip(ladder, ladder[1:]))
    assert ladder[-1] < 1e-6
    print(f"\nACCEPTANCE 11 PASS - sector increments bounded by the tangent "
          f"triangle on 100 pairs; modulus ladder ends at {ladder[-1]:.3e} < 1e-6")


def test_c12_midpoint_against_ivt_oracle():
    rng = _rng()
    worst = 0.0
    for ya, yb in random_arc_ordinates(rng, 100):
        p = circle_midpoint(point_from_ordinate(ya), point_from_ordinate(yb))
        oracle = ivt_midpoint_ordinate(ya, yb, y_tol=1e-14)
        worst = max(worst, abs(p.y - oracle))
        assert abs(p.y - oracle) <= 1e-12
    print(f"\nACCEPTANCE 12 PASS - normalized-midpoint ordinate matches the "
          f"IVT-bisection root to 1e-12 on 100 arcs (worst {worst:.3e})")
