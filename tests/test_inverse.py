import math

import pytest
from hypothesis import given, strategies as st

from chordtrig import (
    ConvergenceError,
    DomainError,
    arcsin,
    continuity_modulus,
    pi_constant,
    point_from_ordinate,
    sector_area,
    sin,
    tangent_intersection,
)
from chordtrig import arclength, inverse

from conftest import EPS

Q = point_from_ordinate(0.0)
ordinates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestArcsin:
    def test_zero(self):
        enc, rep = arcsin(0.0, 1e-10)
        assert (enc.lo, enc.hi) == (0.0, 0.0)
        assert rep.rows == ()

    def test_one_is_right_angle(self):
        enc, _ = arcsin(1.0, 1e-10)
        assert enc.lo <= math.pi / 2.0 <= enc.hi
        assert enc.mid == pytest.approx(1.5707963268, abs=1e-9)

    def test_half(self):
        enc, _ = arcsin(0.5, 1e-10)
        assert enc.mid == pytest.approx(0.5235987756, abs=1e-9)
        assert enc.lo <= math.asin(0.5) <= enc.hi

    @pytest.mark.parametrize("bad", [-0.5, 1.5, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            arcsin(bad, 1e-10)

    def test_strictly_increasing_on_ladder(self):
        tol = 1e-10
        prev = None
        for k in range(101):
            enc, _ = arcsin(k / 100.0, tol)
            if prev is not None:
                assert prev.hi < enc.lo + 2.0 * tol
                assert prev.mid < enc.mid
            prev = enc


class TestPiConstant:
    def test_encloses_pi(self):
        enc = pi_constant(1e-10)
        assert enc.width <= 2e-10
        assert enc.lo <= 3.14159265359 <= enc.hi
        assert enc.lo <= math.pi <= enc.hi

    def test_doubles_quarter_bracket(self):
        quarter, _ = arcsin(1.0, 1e-10)
        enc = pi_constant(1e-10)
        assert enc.lo == 2.0 * quarter.lo
        assert enc.hi == 2.0 * quarter.hi

    def test_tightening_never_widens(self):
        widths = [pi_constant(t).width for t in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11)]
        assert all(v <= u for u, v in zip(widths, widths[1:]))


def _outcome(call):
    """A quarter-arc run's arms and level records, or the type, message,
    bracket and report of the error it raises."""
    try:
        lo, hi, levels = call()
    except (ConvergenceError, DomainError) as err:
        return (type(err), str(err), getattr(err, "enclosure", None),
                getattr(err, "report", None))
    return lo, hi, list(levels)


def _quarter_widths_and_floors():
    """The width and the floor of each of the quarter arc's levels 0 to 4:
    the table's three and the two after them."""
    return ([hi - lo for _, _, _, lo, hi in
             arclength._climb(1.0, 0.0, -1.0, 4, arclength.ARC_BRACKET)[0]],
            [arclength._climb(1.0, 0.0, -1.0, m, arclength.ARC_BRACKET)[2]
             for m in range(5)])


def _table_tols():
    """Every tol where a quarter-arc run can change: each level's width and
    floor and one ulp either side, and the edge tolerances."""
    tols = [0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-17]
    for width, floor in zip(*_quarter_widths_and_floors()):
        for edge in (width, floor):
            tols += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    return tols


class TestQuarterTable:
    """``inverse._quarter_arms`` reads the quarter arc's records of levels 0
    to 2, run on import, where ``arclength.arms`` runs the ladder. Where
    each stops, and whether it raises, depends on tol only through
    comparisons with the widths and the floors of levels 0 to 4 (tol itself
    only passes into the error and report), so each is a step function of
    tol, and equal outcomes at those ten constants, one ulp either side and
    the edges make them equal at every tol. They are equal because of the
    inequalities that ``test_level_2_is_the_narrowest_and_above_the_floors``
    pins (``_quarter_arms``' docstring has the argument): at levels 3 and 4
    the width is below the floor, but level 2 is narrower than both. A
    backstop lowered to level 2 or 3 still leaves every level the table
    answers from within reach of the run."""

    @pytest.mark.parametrize("backstop", [None, 2, 3])
    def test_the_table_is_the_run_at_every_tol(self, backstop, monkeypatch):
        if backstop is not None:
            monkeypatch.setattr(arclength, "_MAX_LEVEL", backstop)
        for tol in _table_tols():
            table = _outcome(lambda: inverse._quarter_arms(tol))
            run = _outcome(lambda: arclength.arms(1.0, 0.0, tol))
            assert table == run, tol

    def test_level_2_is_the_narrowest_and_above_the_floors(self):
        widths, floors = _quarter_widths_and_floors()
        assert widths[0] > widths[1] > widths[2] < widths[3] < widths[4]
        assert floors == sorted(floors)  # the floor never falls
        assert all(floor <= width for width, floor in zip(widths[:3], floors[:3]))

    def test_the_table_is_the_first_three_levels(self):
        assert inverse._QUARTER == tuple(arclength.ladder_levels(inverse._TOP, Q, 2))
        assert inverse._HALF_PI_LO == inverse._QUARTER[0][3]


class TestSin:
    def test_zero(self):
        assert sin(0.0, 1e-10) == 0.0

    def test_top_of_range(self):
        top, _ = arcsin(1.0, 1e-10)
        assert sin(top.hi, 1e-10) == 1.0

    def test_sixth_turn(self):
        assert sin(0.5235987755982989, 1e-10) == pytest.approx(0.5, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            sin(-0.1, 1e-10)
        with pytest.raises(DomainError):
            sin(1.6, 1e-10)
        with pytest.raises(DomainError):
            sin(0.5, 0.0)

    @pytest.mark.parametrize("x, tol", [(0.0, 0.0), (1e-9, -1.0), (0.5, float("nan"))])
    def test_a_tol_that_is_not_positive_raises_before_any_exit(self, x, tol):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            sin(x, tol)

    def test_round_trips(self, rng):
        tol = 1e-10
        for y in rng.uniform(0.0, 1.0, 15):
            enc, _ = arcsin(float(y), tol)
            assert sin(enc.mid, tol) == pytest.approx(float(y), abs=10 * tol)
        for x in rng.uniform(0.0, math.pi / 2.0, 15):
            enc, _ = arcsin(sin(float(x), tol), tol)
            assert enc.mid == pytest.approx(float(x), abs=10 * tol)

    def test_matches_host_library(self, rng):
        for x in rng.uniform(0.0, 1.5, 10):
            assert sin(float(x), 1e-10) == pytest.approx(math.sin(float(x)), abs=1e-9)


class TestTangentIntersection:
    def test_coincident_is_zero(self):
        ti = tangent_intersection(0.6, 0.6)
        assert ti.u == 0.0 and ti.v == 0.0

    def test_hand_example(self):
        ti = tangent_intersection(0.0, 0.6)
        assert ti.u == pytest.approx(0.0, abs=1e-15)
        assert ti.v == pytest.approx(0.75, abs=1e-15)

    @given(ordinates, ordinates)
    def test_perpendicular_to_radius(self, y0, y):
        p0 = point_from_ordinate(y0)
        p = point_from_ordinate(y)
        if p.x * p0.x + p.y * p0.y == 0.0:
            return
        ti = tangent_intersection(y0, y)
        scale = max(1.0, abs(ti.u), abs(ti.v))
        assert abs(ti.u * p0.x + ti.v * p0.y) <= 8 * EPS * scale

    def test_ray_relation(self, rng):
        # Z sits on the ray through Y: (x0 + u) / x == (y0 + v) / y
        for _ in range(200):
            y0, y = rng.uniform(0.05, 0.95, 2)
            ti = tangent_intersection(float(y0), float(y))
            p0 = point_from_ordinate(float(y0))
            p = point_from_ordinate(float(y))
            left = (p0.x + ti.u) / p.x
            right = (p0.y + ti.v) / p.y
            assert left == pytest.approx(right, abs=8 * EPS * max(1.0, abs(left)))

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(DomainError):
            tangent_intersection(0.0, 1.0)
        with pytest.raises(DomainError):
            tangent_intersection(1.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            tangent_intersection(-0.2, 0.5)
        with pytest.raises(DomainError):
            tangent_intersection(0.5, 1.2)


class TestContinuityModulus:
    def test_degenerate(self):
        assert continuity_modulus(0.25, 0.25) == 0.0

    def test_hand_example(self):
        mod = continuity_modulus(0.0, 0.6)
        assert mod == pytest.approx(0.375, abs=1e-15)
        assert math.asin(0.6) / 2.0 <= mod

    def test_bounds_sector_increment(self, rng):
        tol = 1e-9
        for _ in range(60):
            y0, y = rng.uniform(0.0, 0.999, 2)
            g = sector_area(point_from_ordinate(float(y)), Q, tol)[0].mid
            g0 = sector_area(point_from_ordinate(float(y0)), Q, tol)[0].mid
            assert abs(g - g0) <= continuity_modulus(float(y0), float(y)) + 10 * tol

    def test_vanishes_with_the_gap(self):
        y0 = 0.25
        values = [continuity_modulus(y0, y0 + 2.0 ** -k) for k in range(1, 21)]
        assert all(v <= u for u, v in zip(values, values[1:]))
        assert values[-1] < 1e-6
