"""Edge cases: arguments near the binary64 floor, the endpoint flags' help
text, integer ladder levels, the one level backstop that replaced the level
cap, and the single partition builder and report path."""

import math
from unittest import mock

import numpy as np
import pytest

from chordtrig import (
    ConvergenceError,
    ConvergenceReport,
    DomainError,
    additivity_check,
    arc_length,
    arcsin,
    gap_iterations,
    inner_polygon_area,
    length_sequence,
    outer_polygon_area,
    pi_constant,
    point_from_ordinate,
    random_partition,
    sector_area,
    sector_sandwich,
    sin,
    verify_ratio,
)
from chordtrig import arclength as arclength_module
from chordtrig import sector as sector_module
from chordtrig.cli import run

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)


class TestSinSmallArguments:
    """Reaching an ordinate near x takes about log2(1/x) + 53 halvings, so
    arguments below ~1e-63 need more than four float widths of them."""

    @pytest.mark.parametrize("x, tol", [(1e-300, 1e-305), (1e-200, 1e-205),
                                        (2e-323, 5e-324)])
    def test_matches_host_sin_within_tol(self, x, tol):
        assert abs(sin(x, tol) - math.sin(x)) <= tol


class TestRatioBelowBinary64:
    """On arcs shorter than ~1e-314 the ratio's scaled tolerance, 3 tol times
    the chord, underflows to zero; the error must name the arc, not the
    caller's tolerance."""

    def test_library(self):
        with pytest.raises(DomainError, match="too short for the ratio") as raised:
            verify_ratio(point_from_ordinate(1e-320), Q, 1e-10)
        assert "got 0.0" not in str(raised.value)

    def test_cli(self, capsys):
        code = run(["ratio", "--a", "1e-320", "--b", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "domain error" in lines[0]
        assert "got 0.0" not in lines[0]

    def test_shortest_arcs_that_fit_still_give_two(self):
        assert verify_ratio(point_from_ordinate(1e-310), Q, 1e-10) == pytest.approx(
            2.0, abs=1e-9)


@pytest.mark.parametrize("command", ["arc", "sector", "ratio", "partition-compare",
                                     "additivity"])
def test_help_describes_both_endpoints(capsys, command):
    code = run([command, "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "first endpoint ordinate" in out
    assert "second endpoint ordinate" in out


class TestIntegerLevels:
    """Ladder levels are integers other than bools, as partition sizes are."""

    entry_points = [length_sequence, sector_sandwich, inner_polygon_area,
                    outer_polygon_area]

    @pytest.mark.parametrize("level", [2.5, 4.0, True, "3", None])
    @pytest.mark.parametrize("entry_point", entry_points)
    def test_non_integer_level_is_a_domain_error(self, entry_point, level):
        with pytest.raises(DomainError, match="must be an integer"):
            entry_point(TOP, Q, level)

    @pytest.mark.parametrize("entry_point", entry_points)
    def test_numpy_integers_are_integers(self, entry_point):
        assert entry_point(TOP, Q, np.int64(3)) == entry_point(TOP, Q, 3)


class TestOneBackstop:
    """No entry point takes a level cap. Each one's runs end by the proven
    level (4 for closure runs, 27 where the fans meet; arclength module
    docstring), far below the level-62 backstop ``arclength._MAX_LEVEL``,
    which stops any run that reaches it with ``ConvergenceError``. The fan
    gap criterion reads the records up to level 27 (``sector._FANS_MEET``)
    and raises the same way past them."""

    # name -> (call at a tol, the deepest level its runs may reach)
    entry_points = {
        "arc_length": (lambda tol, **kw: arc_length(TOP, Q, tol, **kw), 4),
        "sector_area": (lambda tol, **kw: sector_area(TOP, Q, tol, **kw), 4),
        "degenerate_arc": (lambda tol, **kw: sector_area(Q, Q, tol, **kw), 0),
        "gap_iterations": (lambda tol, **kw: gap_iterations(TOP, Q, tol, **kw), 27),
        "arcsin": (lambda tol, **kw: arcsin(0.9, tol, **kw), 4),
        "pi_constant": (lambda tol, **kw: pi_constant(tol, **kw), 4),
        "sin": (lambda tol, **kw: sin(0.5, tol, **kw), 4),
        "verify_ratio": (lambda tol, **kw: verify_ratio(TOP, Q, tol, **kw), 4),
        "additivity_check": (
            lambda tol, **kw: additivity_check(TOP, point_from_ordinate(0.5), Q, tol,
                                               **kw), 4),
    }

    @pytest.mark.parametrize("name", entry_points)
    def test_max_iter_is_not_a_parameter(self, name):
        with pytest.raises(TypeError, match="max_iter"):
            self.entry_points[name][0](1e-9, max_iter=40)

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("name", entry_points)
    def test_runs_end_by_the_proven_level(self, name, tol):
        call, deepest = self.entry_points[name]
        with mock.patch.object(arclength_module, "_MAX_LEVEL", deepest):
            bounded = call(tol)
        assert bounded == call(tol)

    @pytest.mark.parametrize("name", entry_points)
    def test_the_backstop_stops_every_entry_point(self, name):
        call, deepest = self.entry_points[name]
        # the fan gap criterion is bounded by the level where the fans meet
        backstop = ((sector_module, "_FANS_MEET") if name == "gap_iterations"
                    else (arclength_module, "_MAX_LEVEL"))
        with mock.patch.object(*backstop, 0):
            if deepest == 0:  # a degenerate arc runs no level
                enc, report = call(1e-12)
                assert (enc.lo, enc.hi, len(report)) == (0.0, 0.0, 0)
                return
            with pytest.raises(ConvergenceError) as info:
                call(1e-12)
        assert info.value.report.stop_reason == "iteration_cap"
        assert len(info.value.report) == 1
        assert info.value.enclosure.lo < info.value.enclosure.hi


class TestOneBuilder:
    """random_partition checks its seed as make_partition does, first."""

    def test_random_partition_without_seed_is_a_domain_error(self):
        with pytest.raises(DomainError, match="requires a seed"):
            random_partition(TOP, Q, 8, seed=None)

    def test_seed_is_checked_before_the_arc(self):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            random_partition(Q, Q, 8, seed=-1)


@pytest.mark.parametrize("run_ladder", [arc_length, sector_area])
def test_degenerate_report_is_lazy_and_equals_the_empty_eager_one(run_ladder):
    p, tol = point_from_ordinate(0.3), 1e-9
    report = run_ladder(p, p, tol)[1]
    assert "rows" not in vars(report)
    assert len(report) == 0
    assert report.rows == ()
    eager = ConvergenceReport(p.y, p.y, tol, "tolerance_met")
    assert report == eager and eager == report and hash(report) == hash(eager)
