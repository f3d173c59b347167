"""Edge cases: arguments near the binary64 floor, the endpoint flags' help
text, integer ladder levels and level caps, and the single partition builder
and report path."""

import math

import numpy as np
import pytest

from chordtrig import (
    ConvergenceReport,
    DomainError,
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


class TestIntegerMaxIter:
    """The level cap of every ladder run is an integer other than a bool;
    anything else is a domain error before any level runs."""

    entry_points = {
        "arc_length": lambda cap: arc_length(TOP, Q, 1e-9, cap),
        "sector_area": lambda cap: sector_area(TOP, Q, 1e-9, cap),
        "degenerate_arc": lambda cap: sector_area(Q, Q, 1e-9, cap),
        "gap_iterations": lambda cap: gap_iterations(TOP, Q, 1e-9, cap),
        "arcsin": lambda cap: arcsin(0.4, 1e-9, cap),
        "pi_constant": lambda cap: pi_constant(1e-9, cap),
        "sin": lambda cap: sin(0.5, 1e-9, cap),
        "verify_ratio": lambda cap: verify_ratio(TOP, Q, 1e-9, cap),
    }

    @pytest.mark.parametrize("cap", [None, 2.5, 40.0, True, False, "40"])
    @pytest.mark.parametrize("name", entry_points)
    def test_non_integer_cap_is_a_domain_error(self, name, cap):
        with pytest.raises(DomainError, match="max_iter must be an integer"):
            self.entry_points[name](cap)

    @pytest.mark.parametrize("name", entry_points)
    def test_numpy_integers_are_integers(self, name):
        call = self.entry_points[name]
        assert call(np.int64(40)) == call(40)

    def test_largest_numpy_cap_runs_to_tol(self):
        """A cap at the top of int64 is taken as a Python int: stepping past
        it cannot wrap around and empty the run."""
        assert (arc_length(TOP, Q, 1e-9, np.int64(2**63 - 1))
                == arc_length(TOP, Q, 1e-9, 2**63 - 1) == arc_length(TOP, Q, 1e-9))

    def test_negative_cap_is_a_domain_error(self):
        with pytest.raises(DomainError, match="max_iter must be non-negative, got -1"):
            arc_length(TOP, Q, 1e-9, np.int64(-1))


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
