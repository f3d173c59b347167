import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from chordtrig import (
    CapacityError,
    CirclePoint,
    ConvergenceError,
    DegenerateArcError,
    DomainError,
    Partition,
    SCHEMES,
    additivity_check,
    arc_length,
    chord_length,
    make_partition,
    point_from_ordinate,
    polygonal_length,
    refine_union,
    refinement_gap_bound,
    scheme_limit,
    upper_bound,
)
from chordtrig import partitions
from chordtrig.cli import run
from chordtrig.errors import PrecisionFloorError

from conftest import EPS, random_arc_ordinates
from oracles import naive_polyline_length

TOP = point_from_ordinate(1.0)
Q = point_from_ordinate(0.0)

# ordinates k / 4096: neighbours differ by at least 2^-12, so a refinement
# lengthens the polyline by far more than its rounding error
grid_ordinates = st.integers(0, 4096).map(lambda k: k / 4096.0)
# grid ordinates and their one-ulp lower neighbours, strictly inside (0, 1)
union_ordinates = st.integers(1, 4095).flatmap(
    lambda k: st.sampled_from([k / 4096.0, math.nextafter(k / 4096.0, 0.0)]))


def _random_partition_of(rng, ya, yb, max_interior=12):
    count = int(rng.integers(0, max_interior))
    interior = sorted({float(v) for v in rng.uniform(yb, ya, count)}, reverse=True)
    ys = [ya, *(v for v in interior if yb < v < ya), yb]
    return Partition(point_from_ordinate(v) for v in ys)


class TestPartitionType:
    def test_requires_two_points(self):
        with pytest.raises(DomainError):
            Partition([TOP])

    def test_requires_strict_decrease(self):
        with pytest.raises(DomainError):
            Partition([Q, TOP])
        with pytest.raises(DomainError):
            Partition([TOP, TOP])

    def test_refuses_a_nan_ordinate(self):
        # no partition can hold a NaN ordinate: no point has one
        with pytest.raises(DomainError, match=r"ordinate must lie in \[0, 1\], got nan"):
            CirclePoint(math.nan)

    def test_norm_is_max_chord(self, rng):
        for ya, yb in random_arc_ordinates(rng, 20, min_sep=1e-3):
            p = _random_partition_of(rng, ya, yb)
            chords = [chord_length(u, v) for u, v in zip(p.points, p.points[1:])]
            assert p.norm == max(chords)
            assert p.norm <= math.sqrt(2.0) * (1.0 + 4 * EPS)


class TestPolygonalLength:
    def test_single_segment(self):
        p = Partition([TOP, Q])
        assert polygonal_length(p) == chord_length(TOP, Q)

    def test_quarter_with_diagonal(self):
        mid = point_from_ordinate(math.sqrt(2.0) / 2.0)
        p = Partition([TOP, mid, Q])
        assert polygonal_length(p) == pytest.approx(1.53073373, abs=1e-8)

    def test_against_naive_oracle(self, rng):
        for ya, yb in random_arc_ordinates(rng, 25, min_sep=1e-2):
            p = _random_partition_of(rng, ya, yb)
            ys = [pt.y for pt in p.points]
            assert polygonal_length(p) == pytest.approx(
                naive_polyline_length(ys), abs=1e-7)

    def test_refinement_never_shortens(self, rng):
        for ya, yb in random_arc_ordinates(rng, 40, min_sep=1e-3):
            p = _random_partition_of(rng, ya, yb)
            q = _random_partition_of(rng, ya, yb)
            union = refine_union(p, q)
            assert polygonal_length(union) >= polygonal_length(p) - 8 * EPS

    def test_general_cap_bound(self, rng):
        for ya, yb in random_arc_ordinates(rng, 40, min_sep=1e-3):
            p = _random_partition_of(rng, ya, yb)
            cap = upper_bound(p.points[0], p.points[-1])
            assert polygonal_length(p) <= cap + 8 * EPS


class TestRefineUnion:
    def test_idempotent(self, rng):
        p = _random_partition_of(rng, 0.9, 0.1)
        assert refine_union(p, p).points == p.points

    def test_subset_absorbed(self):
        mid = point_from_ordinate(0.5)
        coarse = Partition([TOP, Q])
        fine = Partition([TOP, mid, Q])
        assert refine_union(coarse, fine).points == fine.points
        assert refine_union(fine, coarse).points == fine.points

    def test_level2_with_uniform5(self):
        p = make_partition(TOP, Q, "bisection", 2)
        q = make_partition(TOP, Q, "ordinate_uniform", 5)
        union = refine_union(p, q)
        # the two ordinate sets share only the endpoints, so the union
        # carries all 5 + 6 - 2 = 9 distinct points
        assert len(union.points) == 9
        assert union.norm <= min(p.norm, q.norm) + 1e-13

    def test_norm_never_grows(self, rng):
        for ya, yb in random_arc_ordinates(rng, 30, min_sep=1e-3):
            p = _random_partition_of(rng, ya, yb)
            q = _random_partition_of(rng, ya, yb)
            union = refine_union(p, q)
            assert union.norm <= min(p.norm, q.norm) + 1e-13
            assert set(pt.y for pt in p.points) <= set(pt.y for pt in union.points)

    def test_near_duplicates_both_stay(self):
        # 5e-15 apart, within 1e-14 of the span: still two points
        p = Partition([TOP, point_from_ordinate(0.5), Q])
        q = Partition([TOP, point_from_ordinate(0.5 + 5e-15), Q])
        union = refine_union(p, q)
        union_ys = {pt.y for pt in union.points}
        assert len(union.points) == 4
        assert {0.5, 0.5 + 5e-15} <= union_ys
        assert {pt.y for pt in p.points} <= union_ys
        assert {pt.y for pt in q.points} <= union_ys

    @given(st.sets(union_ordinates, max_size=12), st.sets(union_ordinates, max_size=12))
    @example({0.5}, {math.nextafter(0.5, 0.0)})
    def test_is_the_exact_union(self, p_inner, q_inner):
        p_ys = [1.0, *sorted(p_inner, reverse=True), 0.0]
        q_ys = [1.0, *sorted(q_inner, reverse=True), 0.0]
        p, q = (Partition(point_from_ordinate(y) for y in ys)
                for ys in (p_ys, q_ys))
        assert ([pt.y for pt in refine_union(p, q).points]
                == sorted(set(p_ys) | set(q_ys), reverse=True))

    def test_short_arc_union_keeps_every_distinct_ordinate(self):
        # interior ordinates of a 1e-13-wide arc sit ~1e-15 apart, so an
        # absolute 1e-14 tolerance would merge them
        a, b = point_from_ordinate(0.5), point_from_ordinate(0.5 - 1e-13)
        p = make_partition(a, b, "random", 64, seed=1)
        q = make_partition(a, b, "random", 64, seed=2)
        union = refine_union(p, q)
        assert ({pt.y for pt in union.points}
                == {pt.y for pt in p.points} | {pt.y for pt in q.points})
        assert len(union.points) > len(p.points)

    def test_endpoint_mismatch_rejected(self):
        p = Partition([TOP, Q])
        q = Partition([point_from_ordinate(0.9), Q])
        with pytest.raises(DomainError):
            refine_union(p, q)
        # endpoints are compared exactly: the smallest subnormal is not 0
        tiny = Partition([TOP, point_from_ordinate(5e-324)])
        with pytest.raises(DomainError, match="different arcs"):
            refine_union(tiny, p)


class TestRefinementGapBound:
    def test_quarter_single_chord(self):
        p = Partition([TOP, Q])
        assert refinement_gap_bound(p) == pytest.approx(2.82842712, abs=1e-8)

    def test_example_refinement_within_bound(self):
        coarse = Partition([TOP, Q])
        fine = make_partition(TOP, Q, "bisection", 1)
        gap = abs(polygonal_length(fine) - polygonal_length(coarse))
        assert gap == pytest.approx(0.11652017, abs=1e-8)
        assert gap <= refinement_gap_bound(coarse)

    def test_bound_vanishes_with_norm(self):
        bounds = [refinement_gap_bound(make_partition(TOP, Q, "bisection", m))
                  for m in range(10)]
        assert all(v < u for u, v in zip(bounds, bounds[1:]))
        assert bounds[-1] < 1e-4

    def test_random_refinements_obey_bound(self, rng):
        for ya, yb in random_arc_ordinates(rng, 50, min_sep=1e-3):
            p = _random_partition_of(rng, ya, yb)
            union = refine_union(p, _random_partition_of(rng, ya, yb))
            gap = abs(polygonal_length(union) - polygonal_length(p))
            assert gap <= refinement_gap_bound(p) + 8 * EPS

    def test_triangle_route_between_partitions(self, rng):
        for ya, yb in random_arc_ordinates(rng, 50, min_sep=1e-3):
            p = _random_partition_of(rng, ya, yb)
            q = _random_partition_of(rng, ya, yb)
            gap = abs(polygonal_length(p) - polygonal_length(q))
            assert gap <= (refinement_gap_bound(p)
                           + refinement_gap_bound(q) + 8 * EPS)


class TestMakePartition:
    def test_bisection_zero(self):
        p = make_partition(TOP, Q, "bisection", 0)
        assert [pt.y for pt in p.points] == [1.0, 0.0]

    def test_ordinate_uniform_two(self):
        p = make_partition(TOP, Q, "ordinate_uniform", 2)
        assert [pt.y for pt in p.points] == [1.0, 0.5, 0.0]
        assert p.points[1].x == pytest.approx(math.sqrt(3.0) / 2.0, abs=4 * EPS)

    def test_random_reproducible(self):
        p = make_partition(TOP, Q, "random", 10, seed=42)
        q = make_partition(TOP, Q, "random", 10, seed=42)
        assert len(p.points) == 11
        ys = [pt.y for pt in p.points]
        assert all(u > v for u, v in zip(ys, ys[1:]))
        assert ys == [pt.y for pt in q.points]
        other = make_partition(TOP, Q, "random", 10, seed=43)
        assert ys != [pt.y for pt in other.points]

    def test_random_requires_seed(self):
        with pytest.raises(DomainError):
            make_partition(TOP, Q, "random", 10)

    def test_unknown_scheme(self):
        with pytest.raises(DomainError):
            make_partition(TOP, Q, "spiral", 4)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            make_partition(TOP, Q, "bisection", -1)
        with pytest.raises(DomainError):
            make_partition(TOP, Q, "ordinate_uniform", 0)
        with pytest.raises(CapacityError):
            make_partition(TOP, Q, "bisection", 40)
        with pytest.raises(CapacityError):
            make_partition(TOP, Q, "ordinate_uniform", 1 << 21)
        with pytest.raises(DegenerateArcError):
            make_partition(Q, Q, "bisection", 2)

    def test_huge_bisection_level_is_a_capacity_error(self):
        # the level is compared with the cap before any 2^m is formed
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.1)
        with pytest.raises(CapacityError):
            make_partition(a, b, "bisection", 10 ** 12)

    def test_norms_fall_along_ladder(self):
        for scheme, sizes in (("bisection", [0, 2, 4, 6, 8]),
                              ("ordinate_uniform", [1, 4, 16, 64, 256]),
                              ("random", [1, 4, 16, 64, 256])):
            norms = [make_partition(TOP, Q, scheme, s, seed=5).norm for s in sizes]
            assert all(v < u for u, v in zip(norms, norms[1:]))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_norm_is_the_longest_chord(self, scheme):
        for hi_y, lo_y in ((1.0, 0.0), (0.9, 0.1), (0.5 + 1e-9, 0.5), (1.0, 1.0 - 2.0 ** -20)):
            a, b = point_from_ordinate(hi_y), point_from_ordinate(lo_y)
            for size in (0, 1, 3, 5) if scheme == "bisection" else (1, 7, 64):
                p = make_partition(a, b, scheme, size, seed=size)
                assert p.norm == max(chord_length(u, v) for u, v in zip(p.points, p.points[1:]))

    def test_orientation_normalized(self):
        p = make_partition(Q, TOP, "bisection", 1)
        assert p.points[0].y == 1.0 and p.points[-1].y == 0.0


class TestSchemeLimit:
    def test_bisection_matches_arc_length(self):
        limit = scheme_limit(TOP, Q, "bisection", 1e-9)
        enc, _ = arc_length(TOP, Q, 1e-9)
        assert limit == pytest.approx(enc.mid, abs=1e-8)
        assert limit == pytest.approx(1.57079633, abs=1e-7)

    def test_all_schemes_agree_on_interior_arc(self):
        a, b = point_from_ordinate(0.97), point_from_ordinate(0.05)
        values = [scheme_limit(a, b, scheme, 1e-9, seed=11) for scheme in SCHEMES]
        for u in values:
            for v in values:
                assert abs(u - v) <= 1e-7
        enc, _ = arc_length(a, b, 1e-9)
        for v in values:
            assert v == pytest.approx(enc.mid, abs=1e-8)

    def test_quarter_circle_all_schemes_loose_tol(self):
        # the pole endpoint makes the ordinate schemes expensive at tight
        # tolerances (top chord ~ sqrt of the step); 1e-6 keeps this quick
        values = [scheme_limit(TOP, Q, scheme, 1e-6, seed=11) for scheme in SCHEMES]
        for v in values:
            assert v == pytest.approx(math.pi / 2.0, abs=1e-5)

    def test_quarter_circle_ordinate_schemes_tight_tol(self):
        # the full-membership version of the scheme-independence claim at
        # 1e-9; the series bracket stops at 2 segments
        reference, _ = arc_length(TOP, Q, 1e-9)
        for scheme in ("ordinate_uniform", "random"):
            v = scheme_limit(TOP, Q, scheme, 1e-9, seed=11)
            assert abs(v - reference.mid) <= 1e-8

    def test_matches_materialized_partition(self):
        # the array ladder and the object builders walk the same grids
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.2)
        for scheme, size in (("ordinate_uniform", 64), ("random", 64)):
            part = make_partition(a, b, scheme, size, seed=3)
            ys = np.array([pt.y for pt in part.points])
            value, excess, tail = partitions._chord_stats(ys)
            assert value == pytest.approx(polygonal_length(part), abs=1e-12)
            chords = [chord_length(u, v) for u, v in zip(part.points, part.points[1:])]
            # 2 arcsin(c / 2) - c, and the tail of Newton's series beyond ten terms
            assert excess == pytest.approx(math.fsum(
                2.0 * math.asin(c / 2.0) - c for c in chords), rel=1e-9)
            assert tail == pytest.approx(math.fsum(
                c * _NEWTON[10] * (c * c / 4.0) ** 10 / (1.0 - c * c / 4.0)
                for c in chords), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            scheme_limit(TOP, Q, "spiral", 1e-9)
        with pytest.raises(DomainError):
            scheme_limit(TOP, Q, "bisection", 0.0)
        with pytest.raises(DomainError):
            scheme_limit(TOP, Q, "random", 1e-9, seed=None)
        with pytest.raises(DegenerateArcError):
            scheme_limit(Q, Q, "bisection", 1e-9)


class TestPerSegmentCertificate:
    @given(st.lists(grid_ordinates, min_size=2, max_size=12, unique=True),
           st.lists(grid_ordinates, max_size=12))
    def test_bounds_every_refinement(self, coarse, extra):
        ys = sorted(coarse, reverse=True)
        fine_ys = sorted({*ys, *(y for y in extra if ys[-1] < y < ys[0])}, reverse=True)
        p = Partition(point_from_ordinate(y) for y in ys)
        fine = Partition(point_from_ordinate(y) for y in fine_ys)
        certificate = math.fsum(c ** 3 / (4.0 - c * c) for c in (
            chord_length(u, v) for u, v in zip(p.points, p.points[1:])))
        gap = polygonal_length(fine) - polygonal_length(p)
        assert 0.0 <= gap <= certificate + 8 * EPS <= refinement_gap_bound(p) + 8 * EPS


class TestSchemeLimitEdges:
    @pytest.mark.parametrize("y", [1.0, 0.5, 0.9999])
    def test_one_ulp_arcs_match_bisection(self, y):
        # at y = 1 a repeated grid ordinate would make a 0/0 chord
        a, b = point_from_ordinate(y), point_from_ordinate(math.nextafter(y, 0.0))
        reference = scheme_limit(a, b, "bisection", 1e-9)
        for scheme in SCHEMES:
            value = scheme_limit(a, b, scheme, 1e-9, seed=3)
            # one chord in every scheme, by chord_length's formula (math.hypot)
            assert value == pytest.approx(reference, rel=2 * EPS)

    def test_tol_below_the_floor_stops_on_one_chord(self, monkeypatch):
        sizes = []
        stats = partitions._polyline_stats

        def record(ys):
            sizes.append(len(ys))
            return stats(ys)

        monkeypatch.setattr(partitions, "_polyline_stats", record)
        with pytest.raises(PrecisionFloorError):
            scheme_limit(TOP, Q, "ordinate_uniform", 1e-17)
        assert sizes == [2]

    def test_stops_at_the_grid_cap(self, monkeypatch):
        # sizes 1, 2 and 4 fit under a 5-point cap; none meets 1e-14
        monkeypatch.setattr(partitions, "_MAX_PARTITION_POINTS", 5)
        with pytest.raises(ConvergenceError, match="reached its size limit") as info:
            scheme_limit(TOP, Q, "ordinate_uniform", 1e-14)
        assert not isinstance(info.value, PrecisionFloorError)


class TestSeedCheckedFirst:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a partition was evaluated before the seed check")

        monkeypatch.setattr(partitions, "arms", fail)
        monkeypatch.setattr(partitions, "_polyline_stats", fail)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_library(self, scheme):
        a, b = point_from_ordinate(0.9), point_from_ordinate(0.1)
        with pytest.raises(DomainError):
            scheme_limit(a, b, scheme, 1e-8, seed=-1)

    def test_cli(self, capsys):
        code = run(["partition-compare", "--a", "1.0", "--b", "0.1",
                    "--tol", "1e-8", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "domain error" in lines[0]


class TestAdditivity:
    def test_quarter_split_at_diagonal(self):
        mid = point_from_ordinate(math.sqrt(2.0) / 2.0)
        check = additivity_check(TOP, mid, Q, 1e-9)
        assert check.arc_whole == pytest.approx(check.arc_parts, abs=1e-8)
        assert check.arc_whole == pytest.approx(math.pi / 2.0, abs=1e-8)
        assert check.sector_whole == pytest.approx(check.sector_parts, abs=5e-9)

    def test_split_at_six_tenths(self):
        check = additivity_check(TOP, point_from_ordinate(0.6), Q, 1e-9)
        assert check.arc_whole == pytest.approx(check.arc_parts, abs=1e-8)
        assert check.arc_parts == pytest.approx(
            (math.asin(1.0) - math.asin(0.6)) + math.asin(0.6), abs=1e-8)

    def test_endpoint_split_contributes_zero(self):
        check = additivity_check(TOP, TOP, Q, 1e-9)
        assert check.arc_whole == pytest.approx(check.arc_parts, abs=1e-8)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            additivity_check(Q, point_from_ordinate(0.5), TOP, 1e-9)
        with pytest.raises(DomainError):
            additivity_check(TOP, point_from_ordinate(0.5), point_from_ordinate(0.7),
                             1e-9)


class TestOneSchemeCheck:
    @pytest.mark.parametrize("scheme, seed", [("spiral", 0), ("random", None),
                                              ("bisection", -1), ("random", -2)])
    def test_make_partition_and_scheme_limit_agree(self, scheme, seed):
        """Both entry points reject a bad scheme or seed with the same error."""
        with pytest.raises(DomainError) as built:
            make_partition(TOP, Q, scheme, 4, seed=seed)
        with pytest.raises(DomainError) as limited:
            scheme_limit(TOP, Q, scheme, 1e-8, seed=seed)
        assert str(built.value) == str(limited.value)



class TestGridsDropOnlyRepeats:
    """Both grid schemes refine by one rule: a repeated ordinate is dropped."""

    @pytest.mark.parametrize("scheme", ["ordinate_uniform", "random"])
    @given(lo=st.floats(0.0, 1.0 - 1e-10), width=st.floats(0.0, 1e-10),
           n=st.integers(1, 4096), seed=st.integers(0, 2 ** 32))
    def test_short_arcs_keep_strict_decrease_and_endpoints(self, scheme, lo, width,
                                                          n, seed):
        hi = max(lo + width, math.nextafter(lo, 2.0))  # 1 ulp up to ~1e-10 wide
        p = make_partition(point_from_ordinate(hi), point_from_ordinate(lo), scheme, n,
                           seed=seed)
        ys = [pt.y for pt in p.points]
        assert ys[0] == hi and ys[-1] == lo
        assert all(u > v for u, v in zip(ys, ys[1:]))

    def test_random_partition_refines_an_arc_below_1e12(self):
        hi = point_from_ordinate(0.5)
        p = make_partition(hi, point_from_ordinate(0.5 - 1e-13), "random", 64, seed=1)
        assert len(p.points) > 2


def _random_ordinates_reference(hi_y, lo_y, n, seed):
    """The random grid by its defining formula: ``n - 1`` draws of
    ``lo_y + (hi_y - lo_y) * random()`` from ``random.Random((seed << 21) | n)``,
    sorted descending between the endpoints, an ordinate kept only if it
    falls below the last one kept."""
    r = random.Random((seed << 21) | n)
    draws = sorted((lo_y + (hi_y - lo_y) * r.random() for _ in range(n - 1)), reverse=True)
    ys = [hi_y]
    for y in [*draws, lo_y]:
        if y < ys[-1]:
            ys.append(y)
    return ys


class TestRandomGridMatchesReference:
    @pytest.mark.parametrize("hi_y, lo_y", [(1.0, 0.0), (0.9, 0.1), (0.5, 0.5 - 1e-13)])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_bit_identical_to_uniform_draws(self, hi_y, lo_y, seed):
        for n in (1, 2, 3, 64, 1000, (1 << 16) + 1):
            ys = partitions._ordinates("random", hi_y, lo_y, n, seed)
            assert ([y.hex() for y in ys]
                    == [y.hex() for y in _random_ordinates_reference(hi_y, lo_y, n, seed)])


# a_0 .. a_10 of Newton's series for arcsin(s) / s, each rounded to nearest
_NEWTON = [float(Fraction(math.comb(2 * k, k), 4 ** k * (2 * k + 1))) for k in range(11)]


def _chord_stats_reference(ys):
    """The chord kernel by its defining formula: each chord as
    geometry.chord_length computes it, its series excess l q (a_1 + q (a_2
    + ... + q a_9)) and tail l a_10 q^10 / (1 - q) with q = (l / 2)^2, and
    each sum correctly rounded."""
    chords, excesses, tails = [], [], []
    for y0, y1 in zip(ys, ys[1:]):
        x0, x1 = math.sqrt((1.0 - y0) * (1.0 + y0)), math.sqrt((1.0 - y1) * (1.0 + y1))
        chord = (y0 - y1) * math.hypot(1.0, (y0 + y1) / (x0 + x1))
        q = 0.5 * chord * (0.5 * chord)
        inner = _NEWTON[9]
        for a_k in reversed(_NEWTON[1:9]):
            inner = a_k + q * inner
        chords.append(chord)
        excesses.append(chord * q * inner)
        tails.append(chord * _NEWTON[10] * q ** 10 / (1.0 - q))
    return math.fsum(chords), math.fsum(excesses), math.fsum(tails)


class TestChordKernelMatchesReference:
    @given(hi=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0), n=st.integers(2, 5000),
           ulp_steps=st.booleans(), seed=st.integers(0, 2 ** 32))
    def test_bit_identical_to_the_plain_expression(self, hi, width, n, ulp_steps, seed):
        if ulp_steps:  # n - 1 arcs one ulp wide each
            ys = np.empty(n)
            ys[0] = max(hi, 5e-324 * n)
            for i in range(1, n):
                ys[i] = math.nextafter(ys[i - 1], -1.0)
        else:
            lo = max(hi - width, 0.0)
            draws = np.random.default_rng(seed).uniform(lo, hi, n)
            ys = np.unique(np.concatenate(([hi, lo], draws)))[::-1].copy()
            if len(ys) < 2:
                ys = np.array([hi, math.nextafter(hi, -1.0)]) if hi > 0.0 else np.array([1.0, 0.0])
        ys = ys.tolist()
        before = list(ys)
        assert ([v.hex() for v in partitions._chord_stats(ys)]
                == [v.hex() for v in _chord_stats_reference(ys)])
        assert ys == before


unit = st.floats(0.0, 1.0)
# any arc, arcs a few ulps wide (grid steps below one ulp) and subnormal arcs
grid_arcs = st.one_of(
    st.tuples(unit, unit).filter(lambda ys: ys[0] != ys[1])
    .map(lambda ys: (max(ys), min(ys))),
    st.tuples(st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 8))
    .map(lambda t: (t[0], max(t[0] - t[1] * math.ulp(t[0]), 0.0))),
    st.floats(5e-324, 1e-300).map(lambda y: (y, 0.0)),
)


class TestGridSumIsPolygonalLength:
    """A grid's chord sum is polygonal_length of the partition built on it."""

    @pytest.mark.parametrize("scheme", ["ordinate_uniform", "random"])
    @given(arc=grid_arcs, n=st.integers(1, 4096), seed=st.integers(0, 2 ** 32))
    def test_bit_identical(self, scheme, arc, n, seed):
        hi_y, lo_y = arc
        part = make_partition(point_from_ordinate(hi_y), point_from_ordinate(lo_y),
                              scheme, n, seed=seed)
        total = partitions._chord_stats(partitions._ordinates(scheme, hi_y, lo_y, n, seed))[0]
        assert total.hex() == polygonal_length(part).hex()


def _linspace_grid(hi_y, lo_y, n):
    """``np.linspace`` with the repeat rule: an ordinate is kept only if it
    falls below the last one kept."""
    ys = [hi_y]
    for y in np.linspace(hi_y, lo_y, n + 1).tolist()[1:]:
        if y < ys[-1]:
            ys.append(y)
    return ys


class TestUniformGridMatchesLinspace:
    @given(arc=grid_arcs, n=st.integers(1, 4096))
    @example(arc=(1e-320, 0.0), n=4097)  # the step underflows to 0
    def test_bit_identical(self, arc, n):
        ys = partitions._ordinates("ordinate_uniform", *arc, n, None)
        assert [y.hex() for y in ys] == [y.hex() for y in _linspace_grid(*arc, n)]
