import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from chordtrig import (
    CirclePoint,
    DomainError,
    chord_length,
    height_for_chord,
    point_from_ordinate,
)

from conftest import EPS

ordinates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# the ends, the least subnormal, the middle and the float just below 1
EDGE_ORDINATES = (0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, 1.0)


def _abscissa(y):
    """The abscissa of the ordinate ``y`` on the circle, in factored form."""
    return math.sqrt((1.0 - y) * (1.0 + y))


def _chord(yp, yq):
    """The cancellation-free chord between two ordinates, with the
    abscissae of :func:`_abscissa`."""
    dy = yp - yq
    if dy == 0.0:
        return 0.0
    return abs(dy) * math.hypot(1.0, (yp + yq) / (_abscissa(yp) + _abscissa(yq)))


class TestPointFromOrdinate:
    def test_endpoints(self):
        q = point_from_ordinate(0.0)
        assert (q.x, q.y) == (1.0, 0.0)
        top = point_from_ordinate(1.0)
        assert (top.x, top.y) == (0.0, 1.0)

    def test_three_four_five(self):
        p = point_from_ordinate(0.6)
        assert p.x == pytest.approx(0.8, abs=4 * EPS)
        assert p.x * p.x + p.y * p.y == pytest.approx(1.0, abs=4 * EPS)

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, float("nan"), 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError) as err:
            point_from_ordinate(bad)
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize("bad", [-5e-324, 1.0 + 2.0 ** -52, 2.0, math.inf, -math.inf,
                                     math.nan])
    def test_constructor_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError, match=r"ordinate must lie in \[0, 1\], got "):
            CirclePoint(bad)

    @given(ordinates)
    @example(0.0)
    @example(5e-324)
    @example(0.5)
    @example(1.0 - 2.0 ** -53)
    @example(1.0)
    def test_abscissa_and_chord_keep_their_formulas_bit_for_bit(self, y):
        p = CirclePoint(y)
        assert p == point_from_ordinate(y) and p.x.hex() == _abscissa(y).hex()
        for other in EDGE_ORDINATES:
            q = CirclePoint(other)
            assert chord_length(p, q).hex() == _chord(y, other).hex()
            assert chord_length(q, p).hex() == _chord(other, y).hex()

    @given(ordinates)
    def test_on_circle_invariant(self, y):
        p = point_from_ordinate(y)
        assert abs(p.x * p.x + p.y * p.y - 1.0) <= 4 * EPS
        assert 0.0 <= p.x <= 1.0


class TestChordLength:
    def test_unit_right_isoceles(self):
        d = chord_length(point_from_ordinate(0.0), point_from_ordinate(1.0))
        assert d == pytest.approx(math.sqrt(2.0), abs=4 * EPS)

    def test_identity(self):
        p = point_from_ordinate(0.37)
        assert chord_length(p, p) == 0.0

    def test_hand_arithmetic(self):
        d = chord_length(point_from_ordinate(0.0), point_from_ordinate(0.6))
        assert d == pytest.approx(math.sqrt(0.04 + 0.36), abs=1e-15)

    @given(ordinates, ordinates)
    def test_symmetry(self, y1, y2):
        p, q = point_from_ordinate(y1), point_from_ordinate(y2)
        assert chord_length(p, q) == chord_length(q, p)

    @given(ordinates, ordinates)
    def test_agrees_with_naive_distance(self, y1, y2):
        # the stable form must match plain coordinate arithmetic when the
        # points are far enough apart for the naive form to be trustworthy
        from oracles import naive_dist

        p, q = point_from_ordinate(y1), point_from_ordinate(y2)
        d = chord_length(p, q)
        assert d == pytest.approx(naive_dist(y1, y2), abs=4e-8 * max(1.0, d) + 8 * EPS)

    def test_triangle_inequality(self, rng):
        for _ in range(300):
            ys = rng.uniform(0.0, 1.0, 3)
            p, q, r = (point_from_ordinate(float(v)) for v in ys)
            assert chord_length(p, r) <= (
                chord_length(p, q) + chord_length(q, r) + 8 * EPS)

    def test_nested_chords_never_longer(self, rng):
        # four ordered points: the inner chord is bounded by the outer one
        for _ in range(500):
            ya, y1, y2, yb = -np.sort(-rng.uniform(0.0, 1.0, 4))
            inner = chord_length(point_from_ordinate(float(y1)),
                                 point_from_ordinate(float(y2)))
            outer = chord_length(point_from_ordinate(float(ya)),
                                 point_from_ordinate(float(yb)))
            assert inner <= outer + 4 * EPS


class TestHeight:
    def test_quarter_chord(self):
        h = height_for_chord(chord_length(point_from_ordinate(0.0), point_from_ordinate(1.0)))
        assert h == pytest.approx(math.sqrt(2.0) / 2.0, abs=4 * EPS)

    def test_short_chord_limit(self):
        h = height_for_chord(chord_length(point_from_ordinate(0.5),
                                          point_from_ordinate(0.5 + 1e-9)))
        assert h == pytest.approx(1.0, abs=1e-12)

    def test_first_bisection_height(self):
        # height under the chord of half the quarter arc: sqrt(2 + sqrt 2)/2
        expected = math.sqrt(2.0 + math.sqrt(2.0)) / 2.0
        c = math.sqrt(2.0 - math.sqrt(2.0))
        assert height_for_chord(c) == pytest.approx(expected, abs=4 * EPS)
        assert expected == pytest.approx(0.92387953, abs=1e-8)

    @pytest.mark.parametrize("bad", [3.0, float("inf"), -1.0, float("nan")])
    def test_rejects_length_outside_the_circle(self, bad):
        with pytest.raises(DomainError) as err:
            height_for_chord(bad)
        assert repr(bad) in str(err.value)

    def test_diameter_has_height_zero(self):
        assert height_for_chord(2.0) == 0.0

    def test_monotone_in_chord(self, rng):
        for _ in range(300):
            c1, c2 = np.sort(rng.uniform(1e-6, math.sqrt(2.0), 2))
            assert height_for_chord(float(c2)) <= height_for_chord(float(c1)) + 4 * EPS
