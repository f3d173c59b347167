"""Certified brackets from the closed ladder: every bracket that arc_length,
sector_area, arcsin and pi_constant return holds the exact value (mpmath at
40 digits), or the call raises PrecisionFloorError, at every tolerance;
floors are reached without climbing to the backstop and named in the error;
no run needs a level cap; sin keeps its contract in a few arcsin runs."""

import json
import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from chordtrig import (
    arc_length,
    arcsin,
    gap_iterations,
    pi_constant,
    point_from_ordinate,
    scheme_limit,
    sector_area,
    sin,
)
from chordtrig import arclength, geometry, inverse
from chordtrig.arclength import ARC_BRACKET, SECTOR_BRACKET
from chordtrig.cli import run
from chordtrig.errors import PrecisionFloorError
from chordtrig.geometry import chord_length
from chordtrig.report import level_row

from oracles import exact_arc, exact_sector, holds

TINY = 5e-324
# one-ulp, 1e-300 and 5e-324 arcs besides the drawn ones
SPECIAL_ARCS = [(0.5, math.nextafter(0.5, 0.0)), (1.0, math.nextafter(1.0, 0.0)),
                (1e-300, 0.0), (TINY, 0.0), (2 * TINY, TINY), (1.0, 0.0)]

unit = st.floats(0.0, 1.0)
near_top = st.integers(1, 16).map(lambda k: 1.0 - 10.0 ** -k)
near_bottom = st.floats(-300.0, -1.0).map(lambda e: 10.0 ** e)
ordinates = st.one_of(unit, near_top, near_bottom, st.sampled_from([1e-300, TINY, 1.0]))
arcs = st.one_of(
    st.tuples(ordinates, ordinates).filter(lambda ys: ys[0] != ys[1])
    .map(lambda ys: (max(ys), min(ys))),
    st.floats(0.0, 1.0, exclude_min=True).map(lambda y: (y, math.nextafter(y, 0.0))),
    st.sampled_from(SPECIAL_ARCS),
)
tolerances = st.floats(-17.0, -8.0).map(lambda e: 10.0 ** e)
epsilons = st.one_of(st.floats(-323.0, 0.0).map(lambda e: 10.0 ** e), st.just(TINY))


def _bracket(call):
    """(lo, hi, levels run, floor raised) of a ladder call."""
    try:
        enc, report = call()
        return enc.lo, enc.hi, len(report), False
    except PrecisionFloorError as err:
        return err.enclosure.lo, err.enclosure.hi, len(err.report), True


class TestSoundness:
    @given(arc=arcs, tol=tolerances)
    def test_arc_and_sector_hold_the_exact_value(self, arc, tol):
        a, b = (point_from_ordinate(y) for y in arc)
        for call, truth in ((arc_length, exact_arc(*arc)),
                            (sector_area, exact_sector(*arc))):
            lo, hi, levels, floor = _bracket(lambda: call(a, b, tol))
            assert holds(lo, hi, truth)
            assert floor or hi - lo <= tol
            assert 0.0 <= lo and levels <= 5

    @given(y=ordinates, tol=tolerances)
    def test_arcsin_holds_the_exact_value(self, y, tol):
        lo, hi, levels, floor = _bracket(lambda: arcsin(y, tol))
        assert holds(lo, hi, exact_arc(y))
        assert floor or hi - lo <= tol
        assert levels <= 5

    @pytest.mark.parametrize("exponent", range(8, 18))
    def test_pi_holds_pi_or_raises(self, exponent):
        tol = 10.0 ** -exponent
        with mpmath.workdps(40):
            pi = +mpmath.pi
        try:
            enc = pi_constant(tol)
        except PrecisionFloorError as err:
            assert tol < 1e-14
            assert holds(err.enclosure.lo, err.enclosure.hi, pi)
            return
        assert holds(enc.lo, enc.hi, pi) and enc.width <= 2 * tol

    def test_every_recorded_level_holds_the_arc(self):
        for arc in SPECIAL_ARCS + [(0.9, 0.1), (0.999, 0.001)]:
            a, b = (point_from_ordinate(y) for y in arc)
            for bracket, truth in ((ARC_BRACKET, exact_arc(*arc)),
                                   (SECTOR_BRACKET, exact_sector(*arc))):
                for level in arclength._climb(a.y, b.y, -1.0, 62, bracket)[0]:
                    assert holds(level[3], level[4], truth)


class TestLevelBounds:
    """The bounds that leave the ladder runs without a level cap (module
    docstring of chordtrig.arclength): a closure run ends by level 4, which
    TestSoundness.test_arc_and_sector_hold_the_exact_value pins as at most
    5 levels run, and the fans meet by level 27, pinned here."""

    @given(arc=arcs, epsilon=epsilons)
    @example(arc=(1.0, 0.0), epsilon=TINY)
    def test_the_fan_gap_closes_by_level_27(self, arc, epsilon):
        a, b = (point_from_ordinate(y) for y in arc)
        assert gap_iterations(a, b, epsilon) <= 27

    def test_the_quarter_arc_reaches_level_27(self):
        quarter = point_from_ordinate(1.0), point_from_ordinate(0.0)
        assert gap_iterations(*quarter, TINY) == 27


class TestFloor:
    @pytest.mark.parametrize("tol", [1e-15, 1e-16])
    def test_pi_raises_without_climbing_to_the_cap(self, tol):
        with pytest.raises(PrecisionFloorError) as info:
            pi_constant(tol)
        report = info.value.report
        assert report.stop_reason == "precision_floor" and len(report) <= 5
        assert info.value.enclosure.width > tol

    @pytest.mark.parametrize("arc", [(1.0, 0.0), (0.9, 0.1), (1.0, 1e-300)])
    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_a_tol_below_the_floor_raises_at_the_first_closure_level(self, arc, tol):
        # The floor never falls, so the first closed bracket decides: arcs
        # close at level 0, sectors once w^2 = (l_m h_m)^2 <= 1/2.
        a, b = (point_from_ordinate(y) for y in arc)
        levels = arclength.ladder_levels(a, b, 4)
        first = next(m for m, (ell, h, *_) in enumerate(levels) if (ell * h) ** 2 <= 0.5)
        for call, level in ((arc_length, 0), (sector_area, first)):
            with pytest.raises(PrecisionFloorError) as info:
                call(a, b, tol)
            assert len(info.value.report) == level + 1

    def test_tolerance_met_by_level_two_on_the_quarter_arc(self):
        top, q = point_from_ordinate(1.0), point_from_ordinate(0.0)
        for tol in (1e-10, 1e-12, 1e-14):
            assert len(arc_length(top, q, tol)[1]) <= 3

    def test_the_error_names_the_floor_of_the_raised_bracket(self):
        # The quarter arc closes at level 0 (e_0 = 10, scale 1), and its pad
        # is (e_0 + r e_0 / 2 + 6) u hi + 2^-1072 on the raw upper arm hi.
        a, b = point_from_ordinate(1.0), point_from_ordinate(0.0)
        with pytest.raises(PrecisionFloorError) as info:
            arc_length(a, b, 1e-17)
        ell = chord_length(a, b)
        q, p = 0.25 * ell * ell, 0.0
        for a_k in reversed(arclength.SERIES[:-1]):  # Horner, as the ladder runs it
            p = q * (a_k + p)
        p += 1.0
        raw_lo, raw_hi = ell * p, ell * (p + arclength.SERIES[-1] * q ** 10 / (1.0 - q))
        pad = (10.0 + 5.0 * q / (1.0 - q) + 6.0) * 2.0 ** -53 * raw_hi + 2.0 ** -1072
        enc = info.value.enclosure
        assert enc.hi - raw_hi == pytest.approx(pad, abs=math.ulp(raw_hi))
        assert raw_lo - enc.lo == pytest.approx(pad, abs=math.ulp(raw_hi))
        printed = re.search(r"binary64 floor (\S+) of this arc", str(info.value))
        assert printed and printed[1] == f"{2.0 * pad:.3g}"

    def test_the_cli_reports_the_floor_as_a_domain_error(self, capsys):
        assert run(["pi", "--tol", "1e-16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "binary64 floor" in captured.err


class TestSeries:
    def test_coefficients_are_newtons_rounded_to_nearest(self):
        for k, a_k in enumerate(arclength.SERIES, start=1):
            exact = Fraction(math.comb(2 * k, k), 4 ** k * (2 * k + 1))
            assert a_k == float(exact)


class TestSinBelowTheFloor:
    @pytest.mark.parametrize("x", [0.1, 0.7, 1.5])
    def test_a_tol_sin_cannot_certify_raises(self, x):
        with pytest.raises(PrecisionFloorError, match="floor of sin"):
            sin(x, 1e-17)

    def test_the_cli_reports_sin_of_a_subnormal(self, capsys):
        """sin meets 5e-324 on 2e-323; the arcsin of its value cannot, so the
        payload carries that run's floor bracket."""
        assert run(["sin", "2e-323", "--tol", "5e-324"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 2e-323
        assert payload["report"]["stop_reason"] == "precision_floor"
        enc = payload["arcsin_of_value"]
        assert holds(enc["lo"], enc["hi"], exact_arc(2e-323))

    @given(x=st.floats(1e-6, 1.57), tol=st.floats(-12.0, -8.0).map(lambda e: 10.0 ** e))
    def test_within_tol_of_the_exact_sine(self, x, tol):
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(sin(x, tol)) - mpmath.sin(mpmath.mpf(x))) <= tol


HALF_PI = 0.5 * math.pi
SIN_SWEEP = ([HALF_PI - 10.0 ** -k for k in range(17)] + [10.0 ** -k for k in range(17)]
             + [HALF_PI * (i + 0.5) / 40 for i in range(40)] + [0.0, TINY, HALF_PI])


class TestSinPredictorCertifier:
    """sin picks each ordinate by a rotation and lets arcsin's arms decide."""

    def test_every_value_is_within_tol_or_the_floor_is_raised(self):
        with mpmath.workdps(40):
            truths = [mpmath.sin(mpmath.mpf(x)) for x in SIN_SWEEP]
            for tol in (10.0 ** -e for e in range(6, 17)):
                for x, truth in zip(SIN_SWEEP, truths):
                    try:
                        y = sin(x, tol)
                    except PrecisionFloorError as err:
                        assert "floor of sin" in str(err)
                        continue
                    assert abs(mpmath.mpf(y) - truth) <= tol, (x, tol)

    def test_makes_no_arcsin_call(self, monkeypatch):
        """Every run of sin, the quarter arc's too, reads bare arms; its run
        bound is counted at _climb (TestSinRunsOnlyWhatItReads)."""
        calls = []
        arcsin_run = inverse.arcsin

        def counted(*args):
            calls.append(args[0])
            return arcsin_run(*args)

        monkeypatch.setattr(inverse, "arcsin", counted)
        grid = ([HALF_PI * (i + 0.5) / 34 for i in range(34)]
                + [HALF_PI - 10.0 ** -k for k in range(1, 9)]
                + [10.0 ** -k for k in range(1, 9)])
        assert len(grid) == 50
        cases = [(x, tol) for tol in (1e-8, 1e-10, 1e-12) for x in grid]
        # sin x rounds to 1: the top exit reads the quarter arc's bracket
        cases += [(1.5707963267948963, 1.38e-14), (1.57079632, 1e-14)]
        for x, tol in cases:
            sin(x, tol)
        assert calls == []

    @pytest.mark.parametrize("x, tol", [
        (1.570796326752638, 1e-8), (1.5707963262954565, 1e-8),
        (1.570796325680184, 1e-8), (1.5707963267391674, 1e-12)])
    def test_a_first_guess_that_rounds_above_one_stays_inside(self, x, tol):
        """The degree-21 guess rounds to 1.0000000000000002 here, past the
        ordinate interval; the loop's own rules bring it back below 1."""
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(sin(x, tol)) - mpmath.sin(mpmath.mpf(x))) <= tol


class TestSinRunsOnlyWhatItReads:
    """The quarter arc never runs: sin reads its bracket from the records
    inverse keeps from import, and only for x above its level-0 lower arm."""

    def _count_runs(self, monkeypatch):
        runs = []
        climb = arclength._climb

        def counted(*args, **kwargs):
            runs.append(args[0])  # the upper ordinate of each ladder run
            return climb(*args, **kwargs)

        monkeypatch.setattr(arclength, "_climb", counted)
        return runs

    def test_the_bound_is_below_half_pi(self):
        assert inverse._HALF_PI_LO < math.pi / 2

    def test_no_quarter_arc_run_below_the_bound(self, monkeypatch):
        runs = self._count_runs(monkeypatch)
        sin(0.5, 1e-10)
        assert runs and 1.0 not in runs

    def test_no_quarter_arc_run_above_the_bound(self, monkeypatch):
        runs = self._count_runs(monkeypatch)
        sin(HALF_PI - 1e-6, 1e-12)
        assert runs and 1.0 not in runs

    def test_at_most_eight_ladder_runs_per_call(self, monkeypatch):
        runs = self._count_runs(monkeypatch)
        grid = ([HALF_PI * (i + 0.5) / 34 for i in range(34)]
                + [HALF_PI - 10.0 ** -k for k in range(1, 9)]
                + [10.0 ** -k for k in range(1, 9)])
        for tol in (1e-8, 1e-10, 1e-12):
            for x in grid:
                runs.clear()
                sin(x, tol)
                assert len(runs) <= 8, (x, tol, runs)
        # sin x rounds to 1: at most three certifier runs, no quarter-arc run
        for x, tol in ((1.5707963267948963, 1.38e-14), (1.57079632, 1e-14)):
            runs.clear()
            sin(x, tol)
            assert len(runs) <= 3 and 1.0 not in runs, (x, tol, runs)

    def test_builds_no_point(self, monkeypatch):
        """sin hands each run the bare ordinates y and 0, y strictly inside
        (0, 1), and constructs no CirclePoint anywhere on the grid."""
        points, ends = [], []
        init, climb = geometry.CirclePoint.__init__, arclength._climb

        def counted_init(self, *args):
            points.append(args)
            init(self, *args)

        def counted_climb(*args):
            ends.append(args[:2])
            return climb(*args)

        monkeypatch.setattr(geometry.CirclePoint, "__init__", counted_init)
        monkeypatch.setattr(arclength, "_climb", counted_climb)
        grid = ([HALF_PI * (i + 0.5) / 34 for i in range(34)]
                + [HALF_PI - 10.0 ** -k for k in range(1, 9)]
                + [10.0 ** -k for k in range(1, 9)])
        for tol in (1e-8, 1e-10, 1e-12):
            for x in grid:
                sin(x, tol)
        assert points == []
        assert ends and all(0.0 < ay < 1.0 and by == 0.0 for ay, by in ends)

    def test_one_certifier_run_off_the_top(self, monkeypatch):
        """Below x = 1.456 the first guess is a few ulps from sin x, so the
        arms of its one run already fall around x."""
        runs = self._count_runs(monkeypatch)
        for tol in (1e-8, 1e-10, 1e-12, 1e-14):
            for x in (HALF_PI * (i + 0.5) / 34 for i in range(32)):
                runs.clear()
                sin(x, tol)
                assert len(runs) == 1, (x, tol, runs)


class TestOneRunPerCommand:
    def _count_runs(self, monkeypatch):
        runs = []
        climb = arclength._climb

        def counted(*args, **kwargs):
            runs.append(args[4])
            return climb(*args, **kwargs)

        monkeypatch.setattr(arclength, "_climb", counted)
        return runs

    def test_pi_runs_no_ladder(self, monkeypatch, capsys):
        """pi's report rows are the records of the quarter arc that inverse
        ran on import, up to the first that meets tol (level 1 at 1e-10)."""
        runs = self._count_runs(monkeypatch)
        assert run(["pi", "--tol", "1e-10"]) == 0
        assert runs == []
        rows = json.loads(capsys.readouterr().out)["report"]["rows"]
        assert rows == [level_row(m, *record).to_dict()
                        for m, record in enumerate(inverse._QUARTER[:2])]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv, expected", [
        (["arc", "--a", "0.9", "--b", "0.2"], [ARC_BRACKET]),
        (["arcsin", "0.5"], [ARC_BRACKET]),
        (["sector", "--a", "0.6", "--b", "0.0"], [SECTOR_BRACKET]),
        (["ratio", "--a", "1.0", "--b", "0.0"], [ARC_BRACKET, SECTOR_BRACKET]),
    ], ids=["arc", "arcsin", "sector", "ratio"])
    def test_each_ladder_command_runs_once_per_report(self, argv, expected, fmt,
                                                      monkeypatch, capsys):
        runs = self._count_runs(monkeypatch)
        assert run([*argv, "--tol", "1e-10", "--format", fmt]) == 0
        assert runs == expected

    def test_the_bisection_limit_is_one_arc_closure_run(self, monkeypatch):
        runs = self._count_runs(monkeypatch)
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.1)
        scheme_limit(a, b, "bisection", 1e-9)
        assert runs == [ARC_BRACKET]
