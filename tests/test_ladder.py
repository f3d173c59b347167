"""The shared chord ladder: row stream, fan areas, level cap, argument checks."""

import math

import pytest
from hypothesis import given, strategies as st

from chordtrig import (
    CapacityError,
    ConvergenceError,
    DomainError,
    IterationRow,
    arc_length,
    gap_iterations,
    inner_polygon_area,
    length_sequence,
    outer_polygon_area,
    point_from_ordinate,
    random_partition,
    scheme_limit,
    sector_area,
    sector_sandwich,
)
from chordtrig.cli import run
from chordtrig.report import fan_areas

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)


class TestRows:
    def test_length_sequence_rows_carry_arc_bracket_and_fans(self):
        rows = length_sequence(TOP, Q, 12)
        assert all(isinstance(row, IterationRow) for row in rows)
        for row in rows:
            assert row.enclosure_lo == row.total_length
            assert row.enclosure_hi == row.total_length / row.height
            assert (row.inner_area, row.outer_area) == fan_areas(row.total_length,
                                                                 row.height)

    def test_runs_report_the_same_rows_as_the_sequence(self):
        a, b = point_from_ordinate(0.8), point_from_ordinate(0.3)
        _, arc_rep = arc_length(a, b, 1e-9)
        _, sec_rep = sector_area(a, b, 1e-9)
        seq = length_sequence(a, b, len(arc_rep.rows) - 1)
        assert arc_rep.rows == tuple(seq)
        for sec_row, row in zip(sec_rep.rows, seq):
            assert (sec_row.enclosure_lo, sec_row.enclosure_hi) == (row.inner_area,
                                                                    row.outer_area)

    def test_sandwich_is_the_last_row(self):
        a, b = point_from_ordinate(0.95), point_from_ordinate(0.05)
        for m in (0, 1, 7, 30, 62):
            row = length_sequence(a, b, m)[-1]
            sw = sector_sandwich(a, b, m)
            assert (sw.m, sw.inner_area, sw.outer_area) == (m, row.inner_area,
                                                            row.outer_area)
            assert sw.gap == row.outer_area - row.inner_area


class TestFanOrder:
    @given(st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.5, max_value=1.0))
    def test_outer_never_below_inner(self, total, height):
        inner, outer = fan_areas(total, height)
        assert inner <= 0.5 * total <= outer

    def test_sub_ulp_arcs_keep_ordered_fans(self):
        for y in (0.3, 0.7, 1.0):
            a = point_from_ordinate(y)
            b = point_from_ordinate(math.nextafter(y, 0.0))
            for row in length_sequence(a, b, 62):
                assert row.inner_area <= row.outer_area


class TestLevelCap:
    def test_sandwich_above_cap_raises(self):
        for fn in (sector_sandwich, inner_polygon_area, outer_polygon_area):
            with pytest.raises(CapacityError):
                fn(TOP, Q, 1080)
            with pytest.raises(CapacityError):
                fn(TOP, Q, 63)

    def test_sandwich_at_cap_is_positive(self):
        sw = sector_sandwich(TOP, Q, 62)
        assert 0.0 < sw.inner_area <= sw.outer_area
        assert sw.inner_area == pytest.approx(math.pi / 4.0, abs=1e-12)


class TestGapIterations:
    def test_negative_max_iter_is_a_domain_error(self):
        with pytest.raises(DomainError):
            gap_iterations(TOP, Q, 0.3, max_iter=-1)
        with pytest.raises(DomainError):
            gap_iterations(TOP, Q, 0.6, max_iter=-1)

    def test_cap_error_carries_the_sector_run(self):
        with pytest.raises(ConvergenceError) as info:
            gap_iterations(TOP, Q, 1e-9, max_iter=3)
        rows = info.value.report.rows
        assert [row.m for row in rows] == [0, 1, 2, 3]
        assert info.value.enclosure.lo == rows[-1].inner_area
        assert info.value.enclosure.hi == rows[-1].outer_area


class TestNegativeSeed:
    def test_library_rejects_negative_seed(self):
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.1)
        with pytest.raises(DomainError):
            random_partition(a, b, 8, seed=-1)
        with pytest.raises(DomainError):
            scheme_limit(a, b, "random", 1e-4, seed=-1)

    def test_cli_reports_domain_error(self, capsys):
        code = run(["partition-compare", "--a", "0.9", "--b", "0.1",
                    "--tol", "1e-4", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "domain error" in lines[0]
