"""One record per ladder level: (l_m, h_m, L_m, lo, hi) from
arclength.ladder_levels is the source of the rows and of the sector
sandwich; the bisection limit calls no recorder."""

import math

import pytest

from chordtrig import (
    inner_polygon_area,
    length_sequence,
    outer_polygon_area,
    point_from_ordinate,
    scheme_limit,
    sector_sandwich,
)
from chordtrig import arclength, partitions
from chordtrig import report as report_module
from chordtrig.arclength import ladder_levels
from chordtrig.report import fan_areas

ARCS = [(1.0, 0.0), (0.95, 0.05), (0.3, math.nextafter(0.3, 0.0)), (1e-300, 0.0)]


@pytest.mark.parametrize("ys", ARCS)
@pytest.mark.parametrize("view", ["arc", "fans"])
def test_records_carry_the_rows_total_length(ys, view):
    # "arc": the records' arms are the rows' enclosure columns; "fans": the
    # fans formed from a record's (L_m, h_m) are the rows' fan columns
    a, b = (point_from_ordinate(y) for y in ys)
    records = ladder_levels(a, b, 62)
    rows = length_sequence(a, b, 62)
    assert len(records) == len(rows) == 63
    for record, row in zip(records, rows):
        ell, h, total, lo, hi = record
        assert (ell, h) == (row.segment_length, row.height)
        assert total.hex() == row.total_length.hex()
        if view == "fans":
            assert fan_areas(total, h) == (row.inner_area, row.outer_area)
        else:
            assert (lo, hi) == (row.enclosure_lo, row.enclosure_hi)


@pytest.mark.parametrize("ys", ARCS)
def test_sandwich_builds_at_most_one_row(ys, monkeypatch):
    a, b = (point_from_ordinate(y) for y in ys)
    last = length_sequence(a, b, 62)[-1]
    built = []
    row_type = report_module.IterationRow

    def counted(*args):
        built.append(args)
        return row_type(*args)

    monkeypatch.setattr(report_module, "IterationRow", counted)
    sandwich = sector_sandwich(a, b, 62)
    assert len(built) <= 1
    built.clear()
    inner = inner_polygon_area(a, b, 62)
    assert len(built) <= 1
    built.clear()
    outer = outer_polygon_area(a, b, 62)
    assert len(built) <= 1
    assert (sandwich.m, sandwich.inner_area, sandwich.outer_area) == (62, last.inner_area,
                                                                      last.outer_area)
    assert sandwich.gap == last.outer_area - last.inner_area
    assert (inner, outer) == (last.inner_area, last.outer_area)


class TestBisectionRecordsNoLevel:
    """The bisection limit is arc_length's one run, which keeps its level
    records in its report and never calls the checked recorder."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        counts = []
        recorder = arclength.ladder_levels

        def counted(*args):
            levels = recorder(*args)
            counts.append(len(levels))
            return levels

        monkeypatch.setattr(arclength, "ladder_levels", counted)
        return counts

    @pytest.mark.parametrize("ys", [(1.0, 0.0), (0.9, 0.1), (0.5, math.nextafter(0.5, 0.0)),
                                    (1e-300, 0.0)])
    @pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-13])
    def test_no_level_is_recorded(self, ys, tol, recorded):
        a, b = (point_from_ordinate(y) for y in ys)
        scheme_limit(a, b, "bisection", tol)
        assert recorded == []

    def test_a_run_below_the_floor_records_none_either(self, recorded):
        a, b = point_from_ordinate(0.9999322592084545), point_from_ordinate(0.09292099090649254)
        with pytest.raises(partitions.PrecisionFloorError, match="binary64 floor"):
            scheme_limit(a, b, "bisection", 1e-16)
        assert recorded == []
