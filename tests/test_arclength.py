import math

import pytest

from chordtrig import (
    CapacityError,
    CirclePoint,
    ConvergenceError,
    DegenerateArcError,
    DomainError,
    arc_length,
    bisection_step,
    chord_length,
    circle_midpoint,
    length_sequence,
    make_partition,
    point_from_ordinate,
    upper_bound,
)
from chordtrig import arclength as arclength_module

from conftest import EPS, random_arc_ordinates
from oracles import exact_arc, half_chord_ladder, holds, ivt_midpoint_ordinate

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)


class TestCircleMidpoint:
    def test_quarter_symmetry(self):
        p = circle_midpoint(TOP, Q)
        assert p.y == pytest.approx(math.sqrt(2.0) / 2.0, abs=4 * EPS)
        assert p.x == pytest.approx(math.sqrt(2.0) / 2.0, abs=4 * EPS)

    def test_equidistant_and_contracting(self, rng):
        for ya, yb in random_arc_ordinates(rng, 200):
            a, b = point_from_ordinate(ya), point_from_ordinate(yb)
            p = circle_midpoint(a, b)
            left, right = chord_length(a, p), chord_length(p, b)
            assert abs(left - right) <= 4 * EPS
            assert left <= chord_length(a, b) / math.sqrt(2.0) + 4 * EPS
            assert yb < p.y < ya

    def test_matches_ivt_root(self):
        a, b = Q, point_from_ordinate(0.6)
        p = circle_midpoint(a, b)
        assert p.y == pytest.approx(ivt_midpoint_ordinate(0.6, 0.0), abs=1e-12)
        # frozen: the equidistant ordinate of this arc is sin of half its
        # subtended angle, 1/sqrt(10)
        assert p.y == pytest.approx(0.31622776601683794, abs=1e-12)

    def test_contraction_on_quarter(self):
        p = circle_midpoint(TOP, Q)
        assert chord_length(TOP, p) == pytest.approx(
            math.sqrt(2.0 - math.sqrt(2.0)), abs=4 * EPS)
        assert chord_length(TOP, p) <= math.sqrt(2.0) / math.sqrt(2.0)

    def test_degenerate_rejected(self):
        p = point_from_ordinate(0.3)
        with pytest.raises(DegenerateArcError):
            circle_midpoint(p, p)

    @pytest.mark.parametrize("y", [0.5, 0.9, 1e-300])
    def test_one_ulp_arc_rejected(self, y):
        # no ordinate lies strictly between the endpoints, so the computed
        # midpoint would be an endpoint
        a, b = point_from_ordinate(y), point_from_ordinate(math.nextafter(y, 0.0))
        with pytest.raises(DegenerateArcError, match="too few representable ordinates"):
            circle_midpoint(a, b)
        with pytest.raises(DegenerateArcError, match="too few representable ordinates"):
            make_partition(a, b, "bisection", 1)


class TestBisectionStep:
    def test_single_application(self):
        out = bisection_step([TOP, Q])
        assert len(out) == 3
        assert out[1].y == pytest.approx(math.sqrt(2.0) / 2.0, abs=4 * EPS)

    def test_point_doubling_and_order(self):
        pts = [TOP, Q]
        for level in range(1, 5):
            pts = bisection_step(pts)
            assert len(pts) == 2 ** level + 1
            ys = [p.y for p in pts]
            assert all(u > v for u, v in zip(ys, ys[1:]))

    def test_new_chords_congruent(self, rng):
        for ya, yb in random_arc_ordinates(rng, 20, min_sep=1e-3):
            pts = [point_from_ordinate(ya), point_from_ordinate(yb)]
            for _ in range(4):
                pts = bisection_step(pts)
            chords = [chord_length(u, v) for u, v in zip(pts, pts[1:])]
            assert max(chords) - min(chords) <= 8 * EPS

    def test_against_half_chord_recurrence(self):
        # raw-recurrence oracle keeps ~1e-10 accuracy for a few levels only
        expected = half_chord_ladder(math.sqrt(2.0), 8)
        pts = [TOP, Q]
        for level in range(1, 9):
            pts = bisection_step(pts)
            seg = chord_length(pts[0], pts[1])
            assert seg == pytest.approx(expected[level], abs=1e-10)
        assert expected[2] == pytest.approx(
            math.sqrt(2.0 - math.sqrt(2.0 + math.sqrt(2.0))), abs=4 * EPS)

    def test_unordered_input_rejected(self):
        with pytest.raises(DomainError):
            bisection_step([Q, TOP])
        with pytest.raises(DomainError):
            bisection_step([TOP, TOP])
        with pytest.raises(DomainError):
            bisection_step([TOP])

    def test_nan_ordinate_rejected(self):
        # no bisection state can hold a NaN ordinate: no point has one
        with pytest.raises(DomainError, match=r"ordinate must lie in \[0, 1\], got nan"):
            CirclePoint(math.nan)


class TestLengthSequence:
    def test_quarter_first_levels(self):
        records = length_sequence(TOP, Q, 1)
        assert records[0].total_length == pytest.approx(math.sqrt(2.0), abs=4 * EPS)
        assert records[1].total_length == pytest.approx(
            2.0 * math.sqrt(2.0 - math.sqrt(2.0)), abs=8 * EPS)

    def test_quarter_level_20_brackets_right_angle(self):
        final = length_sequence(TOP, Q, 20)[-1]
        assert 1.5707963 <= final.total_length <= 1.5707964
        assert final.total_length == pytest.approx(math.pi / 2.0, abs=1e-11)

    def test_records_internally_consistent(self, rng):
        for ya, yb in random_arc_ordinates(rng, 30):
            a, b = point_from_ordinate(ya), point_from_ordinate(yb)
            ell0 = chord_length(a, b)
            records = length_sequence(a, b, 20)
            bound = upper_bound(a, b)
            for rec in records:
                assert rec.total_length == math.ldexp(rec.segment_length, rec.m)
                assert abs(rec.height ** 2 + (rec.segment_length / 2) ** 2 - 1.0) <= 8 * EPS
                assert rec.segment_length <= ell0 / math.sqrt(2.0) ** rec.m + 8 * EPS
                assert rec.total_length <= bound + 8 * EPS
            totals = [r.total_length for r in records]
            assert all(v >= u - 8 * EPS for u, v in zip(totals, totals[1:]))
            segments = [r.segment_length for r in records]
            for u, v in zip(segments, segments[1:]):
                assert v <= u / math.sqrt(2.0) + 8 * EPS

    def test_errors(self):
        p = point_from_ordinate(0.4)
        with pytest.raises(DegenerateArcError):
            length_sequence(p, p, 3)
        with pytest.raises(DomainError):
            length_sequence(TOP, Q, -1)
        with pytest.raises(CapacityError):
            length_sequence(TOP, Q, 63)


class TestUpperBound:
    def test_quarter(self):
        assert upper_bound(TOP, Q) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)

    def test_hand_arithmetic(self):
        b = upper_bound(Q, point_from_ordinate(0.6))
        assert b == pytest.approx(0.70272837, abs=1e-8)

    def test_dominates_sequence(self, rng):
        for ya, yb in random_arc_ordinates(rng, 30):
            a, b = point_from_ordinate(ya), point_from_ordinate(yb)
            final = length_sequence(a, b, 25)[-1]
            assert final.total_length <= upper_bound(a, b) + 8 * EPS

    def test_degenerate_rejected(self):
        p = point_from_ordinate(0.8)
        with pytest.raises(DegenerateArcError):
            upper_bound(p, p)


class TestArcLength:
    def test_degenerate_arc_is_zero(self):
        p = point_from_ordinate(0.55)
        enc, rep = arc_length(p, p, 1e-9)
        assert (enc.lo, enc.hi) == (0.0, 0.0)
        assert rep.stop_reason == "tolerance_met"
        assert rep.rows == ()

    def test_quarter_encloses_right_angle(self):
        enc, _ = arc_length(TOP, Q, 1e-9)
        assert enc.width <= 1e-9
        assert enc.lo <= math.pi / 2.0 <= enc.hi
        assert enc.mid == pytest.approx(1.57079632679, abs=1e-9)

    def test_small_arc_encloses_asin(self):
        enc, _ = arc_length(Q, point_from_ordinate(0.6), 1e-9)
        assert enc.lo <= math.asin(0.6) <= enc.hi
        assert enc.mid == pytest.approx(0.64350111, abs=1e-8)

    def test_soundness_on_random_arcs(self, rng):
        # the exact arc length, at 40 digits: the difference of two host asin
        # values errs by more than the certified brackets are wide
        for ya, yb in random_arc_ordinates(rng, 60, min_sep=1e-3):
            enc, rep = arc_length(point_from_ordinate(ya), point_from_ordinate(yb), 1e-10)
            assert holds(enc.lo, enc.hi, exact_arc(ya, yb))
            widths = [r.enclosure_hi - r.enclosure_lo for r in rep.rows]
            assert all(v <= u for u, v in zip(widths, widths[1:]))

    def test_orientation_symmetric(self):
        lo_first, _ = arc_length(Q, TOP, 1e-9)
        hi_first, _ = arc_length(TOP, Q, 1e-9)
        assert (lo_first.lo, lo_first.hi) == (hi_first.lo, hi_first.hi)

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            arc_length(TOP, Q, 0.0)
        with pytest.raises(DomainError):
            arc_length(TOP, Q, -1e-9)

    def test_iteration_cap(self, monkeypatch):
        """The level-62 backstop, lowered to level 1, stops a run that has
        not met tol; its error carries the last bracket and the report."""
        monkeypatch.setattr(arclength_module, "_MAX_LEVEL", 1)
        with pytest.raises(ConvergenceError) as err:
            arc_length(TOP, Q, 1e-12)
        enc, report = err.value.enclosure, err.value.report
        assert enc.lo <= math.pi / 2.0 <= enc.hi
        assert report.stop_reason == "iteration_cap"
        assert [row.m for row in report.rows] == [0, 1]
        assert (enc.lo, enc.hi) == (report.rows[-1].enclosure_lo,
                                    report.rows[-1].enclosure_hi)

    def test_polygonal_dominates_single_chord(self, rng):
        # the first inequality of the chain, on non-uniform partitions
        from chordtrig import Partition, polygonal_length

        for ya, yb in random_arc_ordinates(rng, 40, min_sep=1e-3):
            interior = rng.uniform(yb, ya, rng.integers(1, 6))
            ys = [ya, *sorted((float(v) for v in interior), reverse=True), yb]
            pts = [point_from_ordinate(v) for v in ys]
            try:
                part = Partition(pts)
            except DomainError:
                continue
            chord = chord_length(pts[0], pts[-1])
            assert polygonal_length(part) >= chord - 8 * EPS
