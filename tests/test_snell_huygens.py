"""Snell-Huygens brackets behind scheme_limit: soundness against mpmath,
the predicted start of the grid ladder, the binary64 floor, and integer
seeds and sizes."""

import math
import time
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from chordtrig import (
    ConvergenceError,
    DomainError,
    SCHEMES,
    make_partition,
    point_from_ordinate,
    scheme_limit,
)
from chordtrig import partitions
from chordtrig.cli import run
from chordtrig.errors import PrecisionFloorError

mpmath.mp.dps = 40

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)

unit = st.floats(0.0, 1.0)
arcs = st.one_of(
    st.tuples(unit, unit).filter(lambda ys: ys[0] != ys[1])
    .map(lambda ys: (max(ys), min(ys))),
    st.floats(0.0, 1.0, exclude_min=True).map(lambda y: (y, math.nextafter(y, 0.0))),
    st.floats(0.0, 1.0, exclude_max=True).map(lambda y: (1.0, y)),
)
tolerances = st.floats(-14.0, -6.0).map(lambda e: 10.0 ** e)
seeds = st.integers(0, 2 ** 32)


def _truth(hi_y, lo_y):
    return mpmath.asin(mpmath.mpf(hi_y)) - mpmath.asin(mpmath.mpf(lo_y))


class TestSoundness:
    @given(arc=arcs, scheme=st.sampled_from(SCHEMES), tol=tolerances, seed=seeds)
    def test_within_half_tol_or_raises(self, arc, scheme, tol, seed):
        a, b = (point_from_ordinate(y) for y in arc)
        try:
            value = scheme_limit(a, b, scheme, tol, seed=seed)
        except ConvergenceError:
            # the floor is below 4e-14 on every arc, and 2^20 + 1 points
            # meet 1e-12 even on the quarter arc
            assert tol < 1e-12
            return
        assert abs(mpmath.mpf(value) - _truth(*arc)) <= tol / 2

    @given(arc=arcs, scheme=st.sampled_from(SCHEMES), seed=seeds)
    def test_every_bracket_of_the_ladder_holds_the_arc(self, arc, scheme, seed):
        # tol = 1 starts the grids at one segment; 17 sizes reach 2^16
        hi, lo = (point_from_ordinate(y) for y in arc)
        truth = _truth(*arc)
        for _, lo_arm, hi_arm in islice(partitions._ladder(hi, lo, scheme, seed, 1.0), 17):
            assert lo_arm <= truth <= hi_arm


def _limit_from_one(hi, lo, scheme, seed, tol):
    """scheme_limit's grid ladder without the predicted start: sizes 1, 2,
    4, ... until the widened bracket is at most tol wide."""
    n = 1
    while True:
        ys = partitions._ordinates(scheme, hi.y, lo.y, n, seed)
        lo_arm, hi_arm = partitions._polyline_stats(ys)
        if hi_arm - lo_arm <= tol:
            return 0.5 * (lo_arm + hi_arm)
        n *= 2


class TestPredictedStart:
    def test_same_value_as_the_ladder_from_one(self):
        rng = np.random.default_rng(20261018)
        runs = 0
        for _ in range(40):
            hi_y, lo_y = sorted(rng.uniform(0.0, 1.0, 2), reverse=True)
            if rng.random() < 0.3:
                hi_y = 1.0
            hi, lo = point_from_ordinate(float(hi_y)), point_from_ordinate(float(lo_y))
            for tol in (1e-6, 1e-9, 1e-12):
                for scheme in ("ordinate_uniform", "random"):
                    seed = int(rng.integers(0, 1000))
                    assert (scheme_limit(hi, lo, scheme, tol, seed=seed)
                            == _limit_from_one(hi, lo, scheme, seed, tol))
                    runs += 1
        assert runs == 240

    def test_starts_above_one_only_where_tol_is_tight(self):
        assert partitions._first_grid_size(TOP, Q, 0.1) == 1
        assert partitions._first_grid_size(TOP, Q, 1e-12) == 1 << 9
        assert partitions._first_grid_size(TOP, Q, 1e-300) == 1 << 19


class TestFloor:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_quarter_arc_at_1e12_in_under_a_second(self, scheme):
        start = time.perf_counter()
        value = scheme_limit(TOP, Q, scheme, 1e-12, seed=1)
        assert time.perf_counter() - start < 1.0
        assert abs(mpmath.mpf(value) - mpmath.pi / 2) <= 0.5e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
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
        assert len(sizes) <= 1 and all(n <= (1 << 20) + 1 for n in sizes)

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
