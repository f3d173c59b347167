import math

import pytest
from hypothesis import example, given, strategies as st

from chordtrig import (
    ConvergenceError,
    DegenerateArcError,
    DomainError,
    SectorSandwich,
    arc_length,
    gap_iterations,
    length_sequence,
    point_from_ordinate,
    sector_area,
    sector_sandwich,
    upper_bound,
    verify_ratio,
)
from chordtrig import arclength as arclength_module
from chordtrig.arclength import ladder_levels
from chordtrig.report import fan_areas
from chordtrig.sector import ratio_runs

from conftest import EPS, random_arc_ordinates
from oracles import exact_sector, holds

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)
TINY = 5e-324

# the quarter arc, one-ulp arcs and arcs at 1e-300 and 5e-324 besides drawn ones
gap_arcs = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda ys: ys[0] != ys[1]),
    st.floats(0.0, 1.0, exclude_min=True).map(lambda y: (y, math.nextafter(y, 0.0))),
    st.sampled_from([(1.0, 0.0), (1.0, math.nextafter(1.0, 0.0)), (1e-300, 0.0),
                     (TINY, 0.0), (2 * TINY, TINY)]),
)
# down to the smallest subnormal
gap_epsilons = st.one_of(st.floats(-323.0, 0.3).map(lambda e: 10.0 ** e), st.just(TINY),
                         st.floats(TINY, 2.0))


class TestFanAreas:
    def test_quarter_level_zero(self):
        sw = sector_sandwich(TOP, Q, 0)
        assert sw.inner_area == pytest.approx(0.5, abs=4 * EPS)
        assert sw.outer_area == pytest.approx(1.0, abs=4 * EPS)

    def test_quarter_level_one(self):
        sw = sector_sandwich(TOP, Q, 1)
        assert sw.inner_area == pytest.approx(0.70710678, abs=1e-8)
        assert sw.outer_area == pytest.approx(0.82842712, abs=1e-8)

    def test_outer_dominates_inner(self, rng):
        for ya, yb in random_arc_ordinates(rng, 40):
            a, b = point_from_ordinate(ya), point_from_ordinate(yb)
            for m in (0, 3, 7):
                sw = sector_sandwich(a, b, m)
                assert sw.inner_area <= sw.outer_area

    def test_inner_converges_to_sector(self):
        enc, _ = sector_area(TOP, Q, 1e-12)
        assert sector_sandwich(TOP, Q, 30).inner_area == pytest.approx(enc.mid, abs=1e-9)

    def test_gap_closed_form(self, rng):
        # outer - inner = L_m h_m (1/h_m^2 - 1) / 2, level by level
        for ya, yb in random_arc_ordinates(rng, 25):
            a, b = point_from_ordinate(ya), point_from_ordinate(yb)
            for rec in length_sequence(a, b, 20):
                sw = sector_sandwich(a, b, rec.m)
                closed = 0.5 * rec.total_length * rec.height * (1.0 / rec.height ** 2 - 1.0)
                assert sw.gap == pytest.approx(closed, abs=8 * EPS)

    @pytest.mark.parametrize("m", [0, 1, 3, 10, 27, 40, 62])
    def test_sandwich_is_the_fans_of_the_last_arc_record(self, rng, m):
        arcs = [(1.0, 0.0), (1.0, math.nextafter(1.0, 0.0)), (1e-300, 0.0), (TINY, 0.0),
                *random_arc_ordinates(rng, 10)]
        for ya, yb in arcs:
            a, b = point_from_ordinate(ya), point_from_ordinate(yb)
            _, h, total, _, _ = ladder_levels(a, b, m)[-1]
            inner, outer = fan_areas(total, h)
            sw = sector_sandwich(a, b, m)
            assert sw == SectorSandwich(m, inner, outer, outer - inner)

    def test_degenerate_rejected(self):
        p = point_from_ordinate(0.7)
        with pytest.raises(DegenerateArcError):
            sector_sandwich(p, p, 2)
        with pytest.raises(DomainError):
            sector_sandwich(TOP, Q, -1)


class TestGapIterations:
    def test_quarter_examples(self):
        assert gap_iterations(TOP, Q, 0.3) == 1
        assert gap_iterations(TOP, Q, 0.5001) == 0
        sw0 = sector_sandwich(TOP, Q, 0)
        assert sw0.gap == pytest.approx(0.5, abs=1e-9)
        sw1 = sector_sandwich(TOP, Q, 1)
        assert sw1.gap == pytest.approx(1.5 * math.sqrt(2.0) - 2.0, abs=1e-9)
        assert sw1.gap == pytest.approx(0.12132034, abs=1e-8)

    def test_threshold_is_strict(self):
        # the level-0 gap is 1/2 up to rounding; asking for exactly that gap
        # forces one more level
        gap0 = sector_sandwich(TOP, Q, 0).gap
        assert gap_iterations(TOP, Q, gap0) == 1

    @given(gap_arcs, gap_epsilons, st.integers(0, 27))
    @example((1.0, 0.0), TINY, 0)
    @example((TINY, 0.0), TINY, 0)
    @example((1.0, 0.0), 0.5, 3)
    def test_is_the_first_row_whose_fan_gap_is_below_epsilon(self, ys, epsilon, level):
        # At the drawn epsilon and at the fan gap of a drawn level, where the
        # threshold's strictness decides: the gap must fall strictly below
        # epsilon, and some level up to 27 has it fall.
        a, b = (point_from_ordinate(y) for y in ys)
        gaps = [row.outer_area - row.inner_area for row in length_sequence(a, b, 27)]
        for eps in (epsilon, gaps[level]):
            if eps > 0.0:
                first = next((m for m, gap in enumerate(gaps) if gap < eps), None)
                assert first is not None
                assert gap_iterations(a, b, eps) == first

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            gap_iterations(TOP, Q, 0.0)
        with pytest.raises(DomainError):
            gap_iterations(TOP, Q, -0.2)

    def test_degenerate_rejected_after_epsilon(self):
        a = point_from_ordinate(0.4)
        with pytest.raises(DegenerateArcError, match="gap criterion of a degenerate arc"):
            gap_iterations(a, a, 1e-3)
        with pytest.raises(DomainError, match="epsilon must be positive"):
            gap_iterations(a, a, 0.0)

    def test_displayed_inequality_implies_gap(self, rng):
        # whenever 1/(1 - (l_m/2)^2) < 1 + 2 eps h0^2 / l0 holds, the fan gap
        # at that level is below eps (the quantitative chain behind the
        # criterion); flag via assertion since it should never fail
        for ya, yb in random_arc_ordinates(rng, 15, min_sep=1e-2):
            a, b = point_from_ordinate(ya), point_from_ordinate(yb)
            records = length_sequence(a, b, 14)
            ell0 = records[0].segment_length
            h0 = records[0].height
            for eps_target in (0.5, 0.1, 1e-3, 1e-6):
                for rec in records:
                    lhs = 1.0 / (1.0 - (rec.segment_length / 2.0) ** 2)
                    if lhs < 1.0 + 2.0 * eps_target * h0 * h0 / ell0:
                        sw = sector_sandwich(a, b, rec.m)
                        assert sw.gap < eps_target


class TestSectorArea:
    def test_quarter(self):
        enc, _ = sector_area(TOP, Q, 1e-9)
        assert enc.lo <= math.pi / 4.0 <= enc.hi
        assert enc.mid == pytest.approx(0.78539816, abs=1e-8)

    def test_degenerate(self):
        p = point_from_ordinate(0.2)
        enc, rep = sector_area(p, p, 1e-9)
        assert (enc.lo, enc.hi) == (0.0, 0.0)
        assert rep.rows == ()

    def test_small_arc(self):
        enc, _ = sector_area(Q, point_from_ordinate(0.6), 1e-9)
        assert enc.lo <= math.asin(0.6) / 2.0 <= enc.hi
        assert enc.mid == pytest.approx(0.32175055, abs=1e-8)

    def test_nested_brackets(self, rng):
        for ya, yb in random_arc_ordinates(rng, 25):
            a, b = point_from_ordinate(ya), point_from_ordinate(yb)
            prev = None
            for m in range(12):
                sw = sector_sandwich(a, b, m)
                if prev is not None:
                    assert sw.inner_area >= prev.inner_area - 8 * EPS
                    assert sw.outer_area <= prev.outer_area + 8 * EPS
                prev = sw

    def test_soundness_on_random_arcs(self, rng):
        # the exact sector area, at 40 digits (see the arc-length twin)
        for ya, yb in random_arc_ordinates(rng, 50, min_sep=1e-3):
            enc, _ = sector_area(point_from_ordinate(ya), point_from_ordinate(yb), 1e-10)
            assert holds(enc.lo, enc.hi, exact_sector(ya, yb))

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(arclength_module, "_MAX_LEVEL", 1)
        with pytest.raises(ConvergenceError) as err:
            sector_area(TOP, Q, 1e-12)
        assert err.value.report.stop_reason == "iteration_cap"
        assert len(err.value.report) == 2

    def test_strict_monotonicity_in_arc(self, rng):
        # the sector from (1, 0) grows with the ordinate, by at least the
        # inscribed triangle of the increment arc
        from chordtrig import chord_length, height_for_chord

        tol = 1e-10
        for _ in range(40):
            yb, ya = sorted(rng.uniform(0.01, 1.0, 2))
            if ya - yb < 1e-3:
                continue
            big, _ = sector_area(point_from_ordinate(float(ya)), Q, tol)
            small, _ = sector_area(point_from_ordinate(float(yb)), Q, tol)
            pa, pb = point_from_ordinate(float(ya)), point_from_ordinate(float(yb))
            triangle = 0.5 * chord_length(pa, pb) * height_for_chord(chord_length(pa, pb))
            assert big.mid - small.mid >= triangle - 2.0 * tol


class TestVerifyRatio:
    def test_quarter(self):
        assert verify_ratio(TOP, Q, 1e-9) == pytest.approx(2.0, abs=1e-8)

    def test_small_arc(self):
        assert verify_ratio(Q, point_from_ordinate(0.6), 1e-9) == pytest.approx(
            2.0, abs=1e-8)

    def test_tiny_arc_still_in_contract(self):
        a = point_from_ordinate(0.5)
        b = point_from_ordinate(0.5 + 1e-7)
        assert verify_ratio(a, b, 1e-9) == pytest.approx(2.0, abs=1e-8)

    def test_orientation_independent(self):
        r1 = verify_ratio(Q, point_from_ordinate(0.6), 1e-9)
        r2 = verify_ratio(point_from_ordinate(0.6), Q, 1e-9)
        assert r1 == r2

    def test_consistent_with_separate_runs(self):
        ratio = verify_ratio(TOP, Q, 1e-9)
        arc, _ = arc_length(TOP, Q, 1e-11)
        sec, _ = sector_area(TOP, Q, 1e-11)
        assert ratio == pytest.approx(arc.mid / sec.mid, abs=1e-8)

    def test_degenerate_rejected(self):
        p = point_from_ordinate(0.9)
        with pytest.raises(DegenerateArcError):
            verify_ratio(p, p, 1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_tolerance_must_be_positive(self, tol):
        # checked before scaling: the message names the tol given, not a
        # scaled one or an underflow
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.1)
        message = f"tolerance must be positive, got {tol!r}$"
        with pytest.raises(DomainError, match=message):
            verify_ratio(a, b, tol)
        with pytest.raises(DomainError, match=message):
            ratio_runs(a, b, tol)


def test_bound_chain_ties_modules(rng):
    # L_m <= 2 outer / h_m <= l0/(h0 h_m) <= upper bound, level by level
    for ya, yb in random_arc_ordinates(rng, 10, min_sep=1e-2):
        a, b = point_from_ordinate(ya), point_from_ordinate(yb)
        cap = upper_bound(a, b)
        for rec in length_sequence(a, b, 15):
            outer = sector_sandwich(a, b, rec.m).outer_area
            assert rec.total_length <= 2.0 * outer / rec.height + 8 * EPS
            assert 2.0 * outer <= cap + 8 * EPS
