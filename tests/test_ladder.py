"""The shared chord ladder: (l, h) recurrence, level records kept by each run
and rows built from them on read, bare arms for the callers that return no
report, fan areas, level cap, argument checks."""

import math
import random
from dataclasses import FrozenInstanceError
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from chordtrig import (
    CapacityError,
    CirclePoint,
    ConvergenceError,
    ConvergenceReport,
    DomainError,
    Enclosure,
    IterationRow,
    additivity_check,
    arc_length,
    arcsin,
    gap_iterations,
    length_sequence,
    make_partition,
    pi_constant,
    point_from_ordinate,
    scheme_limit,
    sector_area,
    sector_sandwich,
    sin,
    verify_ratio,
)
from chordtrig import arclength as arclength_module
from chordtrig import report as report_module
from chordtrig import sector as sector_module
from chordtrig.cli import run
from chordtrig.errors import PrecisionFloorError
from chordtrig.geometry import chord_length
from chordtrig.inverse import pi_run
from chordtrig.report import ARC_BRACKET, CSV_COLUMNS, SECTOR_BRACKET, STOP_FLOOR, fan_areas
from chordtrig.sector import ratio_runs

from conftest import random_arc_ordinates
from oracles import exact_arc, exact_sector, holds

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)
HALF_PI = 0.5 * math.pi
BARE_TOLS = [10.0 ** -e for e in range(6, 17)]


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
        closures = _records(a, b, last, SECTOR_BRACKET)
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


# ±0, the smallest subnormal, a tiny normal, an interior ordinate, the last
# float below 1, and 1
EDGE_ORDINATES = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0)


def _random_ordinate(rng):
    """An ordinate in [0, 1]: uniform, near 0 or near 1 on a log scale."""
    kind, e = rng.randrange(3), rng.uniform(-300.0, 0.0)
    return (rng.random(), 10.0 ** e, 1.0 - 10.0 ** (e / 20.0))[kind]


class TestChordOnOrdinates:
    """``_climb`` runs on two ordinates and forms l_0 with chord_length's
    formula written out: its level-0 record holds the chord_length of the
    two points bit for bit, in both orders."""

    @staticmethod
    def _level_zero_chord(ay, by):
        levels = []
        arclength_module._climb(ay, by, -1.0, 0, ARC_BRACKET, levels)
        return levels[0][0]

    def _check(self, ay, by):
        for first, second in ((ay, by), (by, ay)):
            chord = chord_length(CirclePoint(first), CirclePoint(second))
            assert self._level_zero_chord(first, second).hex() == chord.hex(), (first, second)

    def test_edge_ordinates(self):
        pairs = [(ay, by) for i, ay in enumerate(EDGE_ORDINATES)
                 for by in EDGE_ORDINATES[i + 1:] if ay != by]
        assert len(pairs) == 20
        for ay, by in pairs:
            self._check(ay, by)

    def test_random_pairs(self):
        rng = random.Random(32)
        pairs = 0
        while pairs < 2000:
            ay, by = _random_ordinate(rng), _random_ordinate(rng)
            if ay != by:
                self._check(ay, by)
                pairs += 1


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
        with pytest.raises(CapacityError):
            sector_sandwich(TOP, Q, 1080)
        with pytest.raises(CapacityError):
            sector_sandwich(TOP, Q, 63)

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
            make_partition(a, b, "random", 8, seed=-1)
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


def _records(a, b, m, bracket):
    """The records of levels 0 .. ``m`` with the arms of ``bracket``, read
    from the ladder loop itself (the checked recorder gives arc ones only)."""
    levels = []
    arclength_module._climb(a.y, b.y, -1.0, m, bracket, levels)
    return levels


def _ladder_run(fn, *args, **kwargs):
    """(enclosure, report) of a ladder run, also when it stops at its cap."""
    try:
        return fn(*args, **kwargs)
    except ConvergenceError as err:
        return err.enclosure, err.report


def _check_rows(enc, rep, a, b, bracket=ARC_BRACKET):
    """The report's rows are length_sequence's, field for field (with the
    ``bracket`` records' arms in the enclosure columns); reading them again
    gives an equal tuple; the enclosure is the last row's bracket."""
    rows = rep.rows
    assert rows == rep.rows
    assert isinstance(rows, tuple) and rows
    seq = length_sequence(a, b, len(rows) - 1)
    levels = _records(a, b, len(rows) - 1, bracket)
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

    def test_reports_are_frozen(self):
        _, rep = arc_length(TOP, Q, 1e-6)
        with pytest.raises(FrozenInstanceError):
            rep.stop_reason = "iteration_cap"
        with pytest.raises(FrozenInstanceError):
            rep.rows = ()
        with pytest.raises(FrozenInstanceError):
            rep.levels = ()
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


class TestNoReportUnlessReturned:
    """With the report constructor broken, every caller that returns no report
    still returns its value: it reads the bare arms of the run. Only an
    error still carries the run's bracket and report."""

    def test_report_free_callers_build_no_report(self, monkeypatch):
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.1)
        calls = {
            "pi_constant": lambda: pi_constant(1e-12),
            "verify_ratio": lambda: verify_ratio(a, b, 1e-10),
            "scheme_limit": lambda: scheme_limit(a, b, "bisection", 1e-9),
            "sin": lambda: sin(HALF_PI - 1e-6, 1e-12),  # reads the quarter arc's bracket
            "additivity_check": lambda: additivity_check(a, point_from_ordinate(0.5), b,
                                                         1e-10),
        }
        expected = {name: repr(call()) for name, call in calls.items()}

        def no_report(*args):
            raise AssertionError("a report was built")

        monkeypatch.setattr(arclength_module, "ConvergenceReport", no_report)
        for name, call in calls.items():
            assert repr(call()) == expected[name], name
        with pytest.raises(AssertionError, match="report was built"):
            arc_length(a, b, 1e-12)

    @pytest.mark.parametrize("call", [
        lambda: pi_constant(1e-16),
        lambda: verify_ratio(point_from_ordinate(0.9), point_from_ordinate(0.1), 1e-16),
    ], ids=["pi_constant", "verify_ratio"])
    def test_errors_still_carry_the_bracket_and_the_report(self, call):
        with pytest.raises(PrecisionFloorError, match="binary64 floor") as info:
            call()
        err = info.value
        assert isinstance(err.enclosure, Enclosure)
        assert isinstance(err.report, ConvergenceReport)
        assert err.report.stop_reason == STOP_FLOOR and len(err.report) > 0
        assert (err.enclosure.lo, err.enclosure.hi) == (
            err.report.rows[-1].enclosure_lo, err.report.rows[-1].enclosure_hi)


def _outcome(call):
    """A call's value as its repr, or its error: type, message, bracket
    and report."""
    try:
        return repr(call())
    except (DomainError, ConvergenceError) as err:
        return (type(err), str(err), repr(getattr(err, "enclosure", None)),
                getattr(err, "report", None))


def _bare_path_arcs(rng):
    """(y_hi, y_lo) pairs: uniform, near the top and short, from ``rng``."""
    uniform = random_arc_ordinates(rng, 6)
    near_top = [(1.0 - 10.0 ** -rng.uniform(9.0, 16.0), 1.0 - 10.0 ** -rng.uniform(1.0, 8.0))
                for _ in range(4)] + [(1.0, 1.0 - 10.0 ** -rng.uniform(1.0, 16.0))]
    short = []
    for _ in range(6):
        y = float(rng.uniform(0.0, 1.0))
        short.append((y, y - y * 10.0 ** -rng.uniform(4.0, 15.0)))
    short.append((1e-320, 0.0))  # its scaled tol underflows
    return uniform + near_top + short


class TestBarePathsAreTheReportPaths:
    """The callers that read bare arms return what the report paths give,
    bit for bit, and raise the same errors with the same bracket and report."""

    @pytest.mark.parametrize("tol", BARE_TOLS)
    def test_pi_constant_is_pi_runs_enclosure(self, tol):
        assert _outcome(lambda: pi_constant(tol)) == _outcome(lambda: pi_run(tol)[0])

    @pytest.mark.parametrize("tol", BARE_TOLS)
    def test_verify_ratio_is_the_ratio_of_ratio_runs(self, tol, rng):
        def from_runs():
            return ratio_runs(a, b, tol)[0]

        for ys in _bare_path_arcs(rng):
            a, b = (point_from_ordinate(y) for y in ys)
            assert ys[0] > ys[1]
            assert _outcome(lambda: verify_ratio(a, b, tol)) == _outcome(from_runs), ys

    @pytest.mark.parametrize("tol", BARE_TOLS)
    def test_ratio_runs_are_the_report_runs_at_the_scaled_tol(self, tol, rng):
        """Each run ``ratio_runs`` returns is what ``arc_length`` and
        ``sector_area`` return at 3 tol chord; where one raises, the other
        raises the same error type with the same bracket and report (the
        ratio's message names the caller's tol)."""
        def carried(call):
            out = _outcome(call)
            return out if isinstance(out, str) else (out[0], *out[2:])

        for ys in _bare_path_arcs(rng):
            a, b = (point_from_ordinate(y) for y in ys)
            scaled = 3.0 * tol * chord_length(a, b)
            if scaled == 0.0:
                with pytest.raises(DomainError, match="too short for the ratio"):
                    ratio_runs(a, b, tol)
                continue
            assert carried(lambda: ratio_runs(a, b, tol)[1:]) == carried(
                lambda: (arc_length(a, b, scaled), sector_area(a, b, scaled))), ys


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
        """The run climbs once; each read of the rows, to_dict's too, then
        builds one row per record and runs no ladder and no recorder."""
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
        assert calls == climbs + ["level_row"] * levels
        assert report.rows == rows
        assert report.to_dict()["rows"] == [row.to_dict() for row in rows]
        assert calls == climbs + ["level_row"] * (3 * levels)
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
