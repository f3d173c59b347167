"""The series closure behind scheme_limit: every bracket of every scheme
holds the arc (mpmath), the bisection limit is arc_length's, grids stay
small, the binary64 floor, and integer seeds and sizes."""

import math
import random
import time
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from chordtrig import (
    ConvergenceError,
    DomainError,
    SCHEMES,
    arc_length,
    make_partition,
    point_from_ordinate,
    scheme_limit,
)
from chordtrig import partitions
from chordtrig.arclength import ladder_levels
from chordtrig.cli import run
from chordtrig.errors import PrecisionFloorError

mpmath.mp.dps = 40

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)
U = 2.0 ** -53

unit = st.floats(0.0, 1.0)
# any arc, near-top arcs, one-ulp arcs and arcs near 1e-300
arcs = st.one_of(
    st.tuples(unit, unit).filter(lambda ys: ys[0] != ys[1])
    .map(lambda ys: (max(ys), min(ys))),
    st.floats(0.0, 1.0, exclude_max=True).map(lambda y: (1.0, y)),
    st.floats(0.0, 1.0, exclude_min=True).map(lambda y: (y, math.nextafter(y, 0.0))),
    st.floats(1e-300, 2e-300).map(lambda y: (y, 0.5 * y)),
)
tolerances = st.floats(-17.0, -6.0).map(lambda e: 10.0 ** e)
seeds = st.integers(0, 2 ** 32)


def _truth(hi_y, lo_y):
    return mpmath.asin(mpmath.mpf(hi_y)) - mpmath.asin(mpmath.mpf(lo_y))


def _run(hi, lo, scheme, tol, seed):
    """The brackets a scheme_limit run at ``tol`` formed, and its value
    (None if it raised PrecisionFloorError)."""
    if scheme == "bisection":
        try:
            enc, report = arc_length(hi, lo, tol)
        except PrecisionFloorError as floor:
            enc, report = None, floor.report
        levels = ladder_levels(hi, lo, len(report) - 1)
        return [(lo_arm, hi_arm) for *_, lo_arm, hi_arm in levels], enc and enc.mid
    brackets = []
    stats = partitions._polyline_stats

    def record(ys):
        brackets.append(stats(ys))
        return brackets[-1]

    with mock.patch.object(partitions, "_polyline_stats", record):
        try:
            value = scheme_limit(hi, lo, scheme, tol, seed=seed)
        except PrecisionFloorError:
            value = None
    return brackets, value


class TestSoundness:
    @given(arc=arcs, scheme=st.sampled_from(SCHEMES), tol=tolerances, seed=seeds)
    def test_every_bracket_holds_the_arc(self, arc, scheme, tol, seed):
        hi, lo = (point_from_ordinate(y) for y in arc)
        truth = _truth(*arc)
        brackets, value = _run(hi, lo, scheme, tol, seed)
        assert brackets
        for lo_arm, hi_arm in brackets:
            assert lo_arm <= truth <= hi_arm
        if value is None:
            # the floor is at most about 60 u times the arc
            assert tol < 64 * U * float(truth)
        else:
            assert abs(mpmath.mpf(value) - truth) <= tol / 2
            assert value == scheme_limit(hi, lo, scheme, tol, seed=seed)


class TestBisectionIsTheArcLadder:
    @given(arc=arcs, tol=tolerances)
    def test_the_limit_is_arc_lengths_midpoint(self, arc, tol):
        a, b = (point_from_ordinate(y) for y in arc)
        try:
            expected = arc_length(b, a, tol)[0].mid
        except PrecisionFloorError:
            with pytest.raises(PrecisionFloorError):
                scheme_limit(a, b, "bisection", tol)
        else:
            assert scheme_limit(a, b, "bisection", tol).hex() == expected.hex()


class TestGridSizes:
    @pytest.fixture
    def sizes(self, monkeypatch):
        counted = []
        stats = partitions._polyline_stats

        def record(ys):
            counted.append(len(ys) - 1)
            return stats(ys)

        monkeypatch.setattr(partitions, "_polyline_stats", record)
        return counted

    @pytest.mark.parametrize("scheme", ["ordinate_uniform", "random"])
    def test_quarter_arc_at_1e12_takes_at_most_16_chords(self, scheme, sizes):
        value = scheme_limit(TOP, Q, scheme, 1e-12, seed=1)
        assert abs(mpmath.mpf(value) - mpmath.pi / 2) <= 0.5e-12
        assert sizes[0] == 1 and max(sizes) <= 16

    @pytest.mark.parametrize("scheme", ["ordinate_uniform", "random"])
    def test_one_chord_meets_1e9_on_an_interior_arc(self, scheme, sizes):
        a, b = point_from_ordinate(0.6), point_from_ordinate(0.35)
        scheme_limit(a, b, scheme, 1e-9, seed=1)
        assert sizes == [1]

    def test_one_segment_seeds_no_generator(self):
        a, b = point_from_ordinate(0.6), point_from_ordinate(0.35)
        with mock.patch.object(partitions.random, "Random",
                               side_effect=AssertionError("a generator was seeded")):
            assert partitions._ordinates("random", 0.6, 0.35, 1, 3) == [0.6, 0.35]
            assert make_partition(a, b, "random", 1, seed=np.int64(3)).points == (a, b)
            scheme_limit(a, b, "random", 1e-9, seed=3)
        with pytest.raises(DomainError, match="seed must be an integer"):
            scheme_limit(a, b, "random", 1e-9, seed=1.5)
        assert random.Random is partitions.random.Random


class TestFloor:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_quarter_arc_at_1e12_in_under_a_second(self, scheme):
        start = time.perf_counter()
        value = scheme_limit(TOP, Q, scheme, 1e-12, seed=1)
        assert time.perf_counter() - start < 1.0
        assert abs(mpmath.mpf(value) - mpmath.pi / 2) <= 0.5e-12

    @pytest.mark.parametrize("scheme", ["ordinate_uniform", "random"])
    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_below_the_floor_raises_at_once(self, scheme, tol, monkeypatch):
        sizes = []
        stats = partitions._polyline_stats

        def record(ys):
            sizes.append(len(ys))
            return stats(ys)

        monkeypatch.setattr(partitions, "_polyline_stats", record)
        with pytest.raises(PrecisionFloorError, match="binary64 floor") as raised:
            scheme_limit(TOP, Q, scheme, tol, seed=1)
        assert isinstance(raised.value, ConvergenceError)
        assert isinstance(raised.value, DomainError)
        assert sizes == [2]

    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_below_the_floor_bisection_raises_at_level_0(self, tol):
        with pytest.raises(PrecisionFloorError, match="binary64 floor") as raised:
            scheme_limit(TOP, Q, "bisection", tol)
        assert isinstance(raised.value, ConvergenceError)
        assert len(raised.value.report) == 1

    def test_cli_exits_1_with_one_line_naming_the_floor(self, capsys):
        start = time.perf_counter()
        code = run(["partition-compare", "--a", "1", "--b", "0", "--tol", "1e-17"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "binary64 floor" in lines[0]


class TestIntegerSeedsAndSizes:
    @pytest.mark.parametrize("seed", [1.5, 1.9, True, 1.0, "1"])
    def test_non_integer_seed_is_a_domain_error(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            make_partition(TOP, Q, "random", 5, seed=seed)
        with pytest.raises(DomainError, match="seed must be an integer"):
            scheme_limit(TOP, Q, "random", 1e-6, seed=seed)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("size", [2.5, True, 4.0])
    def test_non_integer_size_is_a_domain_error(self, scheme, size):
        with pytest.raises(DomainError, match="must be an integer"):
            make_partition(TOP, Q, scheme, size, seed=1)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_numpy_integers_are_integers(self, scheme):
        built = make_partition(TOP, Q, scheme, np.int64(4), seed=np.int64(3))
        assert built == make_partition(TOP, Q, scheme, 4, seed=3)
        limit = scheme_limit(TOP, Q, scheme, 1e-12, seed=np.int64(3))
        assert limit == scheme_limit(TOP, Q, scheme, 1e-12, seed=3)
