"""The shared chord ladder: (l, h) recurrence, level records kept by each run
and rows built from them on read, fan areas, level cap, argument checks."""

import math
from dataclasses import FrozenInstanceError
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from chordtrig import (
    CapacityError,
    ConvergenceError,
    ConvergenceReport,
    DomainError,
    IterationRow,
    arc_length,
    arcsin,
    gap_iterations,
    inner_polygon_area,
    length_sequence,
    outer_polygon_area,
    pi_constant,
    point_from_ordinate,
    random_partition,
    scheme_limit,
    sector_area,
    sector_sandwich,
    sin,
    verify_ratio,
)
from chordtrig import arclength as arclength_module
from chordtrig import report as report_module
from chordtrig import sector as sector_module
from chordtrig.arclength import ladder_levels
from chordtrig.cli import run
from chordtrig.errors import PrecisionFloorError
from chordtrig.report import ARC_BRACKET, CSV_COLUMNS, SECTOR_BRACKET, fan_areas

from oracles import exact_arc, exact_sector, holds

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)


class TestRows:
    def test_length_sequence_rows_carry_arc_bracket_and_fans(self):
        """Every row's arc closure holds the quarter arc and, its pad aside,
        lies inside the paper's bracket [L_m, L_m / h_m]; the fans are the
        paper's."""
        rows = length_sequence(TOP, Q, 12)
        assert all(isinstance(row, IterationRow) for row in rows)
        for row in rows:
            assert holds(row.enclosure_lo, row.enclosure_hi, exact_arc(1.0))
            pad = 2.0 ** -47 * row.total_length
            assert row.total_length - pad <= row.enclosure_lo
            assert row.enclosure_hi <= row.total_length / row.height + pad
            assert (row.inner_area, row.outer_area) == fan_areas(row.total_length,
                                                                 row.height)

    def test_runs_report_the_same_rows_as_the_sequence(self):
        a, b = point_from_ordinate(0.8), point_from_ordinate(0.3)
        _, arc_rep = arc_length(a, b, 1e-9)
        _, sec_rep = sector_area(a, b, 1e-9)
        seq = length_sequence(a, b, len(arc_rep.rows) - 1)
        assert arc_rep.rows == tuple(seq)
        last = len(sec_rep.rows) - 1
        closures = ladder_levels(a, b, last, SECTOR_BRACKET)
        for sec_row, ref, level in zip(sec_rep.rows, length_sequence(a, b, last), closures):
            assert (sec_row.enclosure_lo, sec_row.enclosure_hi) == level[3:]
            assert holds(*level[3:], exact_sector(0.8, 0.3))
            for name in CSV_COLUMNS[:6]:
                assert getattr(sec_row, name) == getattr(ref, name)

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
    def test_cap_error_carries_the_sector_run(self, monkeypatch):
        monkeypatch.setattr(sector_module, "_FANS_MEET", 3)
        with pytest.raises(ConvergenceError) as info:
            gap_iterations(TOP, Q, 1e-9)
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


def _ladder_run(fn, *args, **kwargs):
    """(enclosure, report) of a ladder run, also when it stops at its cap."""
    try:
        return fn(*args, **kwargs)
    except ConvergenceError as err:
        return err.enclosure, err.report


def _check_rows(enc, rep, a, b, bracket=ARC_BRACKET):
    """The report's rows are length_sequence's, field for field (with the
    ``bracket`` records' arms in the enclosure columns); reading them again
    gives the same tuple; the enclosure is the last row's bracket."""
    rows = rep.rows
    assert rows is rep.rows
    assert isinstance(rows, tuple) and rows
    seq = length_sequence(a, b, len(rows) - 1)
    levels = ladder_levels(a, b, len(rows) - 1, bracket)
    assert [row.m for row in rows] == list(range(len(rows)))
    for row, ref, level in zip(rows, seq, levels):
        for name in CSV_COLUMNS[:6]:
            assert getattr(row, name) == getattr(ref, name)
        if bracket == SECTOR_BRACKET:
            assert (row.enclosure_lo, row.enclosure_hi) == level[3:]
        else:
            assert row == ref
    assert (enc.lo, enc.hi) == (rows[-1].enclosure_lo, rows[-1].enclosure_hi)


arcs = st.tuples(st.floats(min_value=0.0, max_value=1.0),
                 st.floats(min_value=0.0, max_value=1.0)).filter(lambda p: p[0] != p[1])
tols = st.floats(min_value=6.0, max_value=14.0).map(lambda e: 10.0 ** -e)


class TestLazyRows:
    @given(arcs, tols)
    def test_runs_build_the_sequence_rows_on_read(self, ys, tol):
        a, b = (point_from_ordinate(y) for y in sorted(ys, reverse=True))
        for fn, bracket in ((arc_length, ARC_BRACKET), (sector_area, SECTOR_BRACKET)):
            enc, rep = _ladder_run(fn, a, b, tol)
            _check_rows(enc, rep, a, b, bracket)
            again = _ladder_run(fn, a, b, tol)[1]
            assert again == rep
            assert again.to_dict() == rep.to_dict()
            if len(rep.rows) > 1:
                # hypothesis rejects the function-scoped monkeypatch fixture
                with mock.patch.object(arclength_module, "_MAX_LEVEL", len(rep.rows) - 2):
                    with pytest.raises(ConvergenceError) as info:
                        fn(a, b, tol)
                    capped_again = _ladder_run(fn, a, b, tol)[1]
                capped = info.value.report
                _check_rows(info.value.enclosure, capped, a, b, bracket)
                assert capped.rows == rep.rows[:-1]
                assert capped == capped_again

    def test_positional_constructor_is_an_eager_report(self):
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.2)
        _, lazy = arc_length(a, b, 1e-10)
        eager = ConvergenceReport(lazy.a_ordinate, lazy.b_ordinate, lazy.tolerance,
                                  lazy.stop_reason, lazy.rows)
        assert eager == lazy and hash(eager) == hash(lazy)
        assert eager.to_dict() == lazy.to_dict()
        assert repr(eager) == repr(lazy)
        assert ConvergenceReport(0.5, 0.5, 1e-9, "tolerance_met").rows == ()
        assert eager != ConvergenceReport(lazy.a_ordinate, lazy.b_ordinate,
                                          lazy.tolerance, lazy.stop_reason,
                                          lazy.rows[:-1])

    def test_reports_are_frozen(self):
        _, rep = arc_length(TOP, Q, 1e-6)
        with pytest.raises(FrozenInstanceError):
            rep.stop_reason = "iteration_cap"
        with pytest.raises(FrozenInstanceError):
            rep.rows = ()
        with pytest.raises(FrozenInstanceError):
            del rep.tolerance


class TestNoRowsUnlessRead:
    """With the row constructor broken, every entry point that does not read
    ``.rows`` still returns its value: no IterationRow is built unread."""

    def test_entry_points_build_no_rows(self, monkeypatch):
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.1)
        calls = {
            "sin": lambda: sin(0.5, 1e-10),
            "arcsin": lambda: arcsin(0.3, 1e-12)[0],
            "arc_length": lambda: arc_length(a, b, 1e-12)[0],
            "sector_area": lambda: sector_area(a, b, 1e-12)[0],
            "pi_constant": lambda: pi_constant(1e-12),
            "verify_ratio": lambda: verify_ratio(a, b, 1e-10),
            "scheme_limit": lambda: scheme_limit(a, b, "bisection", 1e-9),
        }
        expected = {name: call() for name, call in calls.items()}

        def no_rows(*args):
            raise AssertionError("an IterationRow was built")

        monkeypatch.setattr(report_module, "IterationRow", no_rows)
        for name, call in calls.items():
            assert call() == expected[name], name
        with pytest.raises(AssertionError, match="IterationRow was built"):
            arc_length(a, b, 1e-12)[1].rows


class TestRunsKeepTheirLevels:
    """A run keeps its level records in its report. Reading the rows runs
    no ladder and calls no recorder, and len counts the records without
    building a row."""

    def test_scalar_entry_points_call_no_recorder(self, monkeypatch):
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.1)
        calls = {
            "arc_length": lambda: arc_length(a, b, 1e-12),
            "sector_area": lambda: sector_area(a, b, 1e-12),
            "arcsin": lambda: arcsin(0.3, 1e-12),
            "pi_constant": lambda: pi_constant(1e-12),
            "sin": lambda: sin(0.5, 1e-10),
            "verify_ratio": lambda: verify_ratio(a, b, 1e-10),
        }

        def value(call):
            # repr writes every float exactly; a report is told by its rows
            result = call()
            if isinstance(result, tuple):
                return repr(result[0]), result[1].rows
            return repr(result)

        expected = {name: value(call) for name, call in calls.items()}

        def no_levels(*args):
            raise AssertionError("a ladder was recorded")

        monkeypatch.setattr(arclength_module, "ladder_levels", no_levels)
        for name, call in calls.items():
            assert value(call) == expected[name], name

    @pytest.mark.parametrize("fn", [arc_length, sector_area])
    @pytest.mark.parametrize("run_kind, levels", [("met", 3), ("capped", 2),
                                                  ("degenerate", 0)])
    def test_rows_are_built_once_from_the_runs_records(self, fn, run_kind, levels,
                                                       monkeypatch):
        calls = []

        def counted(name, target):
            def call(*args):
                calls.append(name)
                return target(*args)
            return call

        for module, name in ((arclength_module, "_climb"),
                             (arclength_module, "ladder_levels"),
                             (report_module, "level_row")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.1)
        if run_kind == "capped":
            monkeypatch.setattr(arclength_module, "_MAX_LEVEL", levels - 1)
            with pytest.raises(ConvergenceError) as info:
                fn(a, b, 1e-14)
            report = info.value.report
        else:
            report = fn(a, a if run_kind == "degenerate" else b, 1e-14)[1]
        climbs = ["_climb"] * (levels > 0)
        assert len(report) == levels and calls == climbs
        rows = report.rows
        assert report.rows is rows
        assert report.to_dict()["rows"] == [row.to_dict() for row in rows]
        assert calls == climbs + ["level_row"] * levels
        assert len(report) == len(rows) == levels


class TestBisectionLimitOnPairs:
    @pytest.mark.parametrize("ys", [(1.0, 0.0), (0.9, 0.1), (0.97, 0.05),
                                    (0.3, 0.29), (0.5, math.nextafter(0.5, 0.0)),
                                    (0.9, 0.8999999999999889), (1.0, math.nextafter(1.0, 0.0)),
                                    (0.7, 0.6999999888977697), (1e-300, 9.999983421907883e-301)])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 2e-14, 1e-16])
    def test_is_the_arc_length_midpoint(self, ys, tol):
        """scheme_limit's bisection branch is arc_length's ladder: the same
        midpoint bit for bit, or the same floor error."""
        a, b = (point_from_ordinate(y) for y in ys)
        try:
            expected = arc_length(a, b, tol)[0].mid
        except PrecisionFloorError:
            with pytest.raises(PrecisionFloorError, match="binary64 floor"):
                scheme_limit(a, b, "bisection", tol)
        else:
            assert scheme_limit(a, b, "bisection", tol).hex() == expected.hex()


class TestGapIterationsBuildsNoRows:
    @pytest.mark.parametrize("ys, epsilon", [((1.0, 0.0), 1e-10), ((0.9, 0.1), 1e-6),
                                             ((0.3, 0.29), 1e-14)])
    def test_level_count_without_rows(self, ys, epsilon, monkeypatch):
        """gap_iterations returns its level without building one
        IterationRow, and the level is the first of length_sequence's rows
        whose fan gap is below epsilon."""
        a, b = (point_from_ordinate(y) for y in ys)
        expected = gap_iterations(a, b, epsilon)

        def no_rows(*args):
            raise AssertionError("an IterationRow was built")

        with monkeypatch.context() as patched:
            patched.setattr(report_module, "IterationRow", no_rows)
            assert gap_iterations(a, b, epsilon) == expected
        rows = length_sequence(a, b, 27)
        assert expected == next(row.m for row in rows
                                if row.outer_area - row.inner_area < epsilon)

    def test_len_of_a_report_built_from_rows(self):
        _, report = arc_length(TOP, Q, 1e-8)
        built = ConvergenceReport(1.0, 0.0, 1e-8, "tolerance_met", report.rows)
        assert len(built) == len(report.rows) == len(report)
