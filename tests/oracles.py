"""Independent oracles used by the test suite only.

These deliberately avoid the production code paths: distances come from the
naive coordinate arithmetic, the equidistant point is located by interval
bisection on the signed distance difference (the existence argument run
literally), and the half-chord ladder uses the textbook recurrence in its
raw form. Host-library asin/pi stay confined to tests as reference values;
where they are too coarse, mpmath at 40 digits gives the exact value.
"""

import math

import mpmath


def naive_dist(y1: float, y2: float) -> float:
    """Straight-line distance between ordinates y1, y2 on the unit circle."""
    x1 = math.sqrt(1.0 - y1 * y1)
    x2 = math.sqrt(1.0 - y2 * y2)
    return math.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2)


def ivt_midpoint_ordinate(ya: float, yb: float, y_tol: float = 1e-14) -> float:
    """Ordinate of the equidistant point of the arc, by sign bisection.

    f(y) = |A P_y| - |P_y B| is positive at B's ordinate and negative at
    A's (for ya > yb), so the root is bracketed; bisection narrows the
    bracket to ``y_tol``.
    """
    if ya < yb:
        ya, yb = yb, ya

    def f(y):
        return naive_dist(ya, y) - naive_dist(y, yb)

    lo, hi = yb, ya  # f(lo) > 0, f(hi) < 0
    while hi - lo > y_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def half_chord_ladder(c0: float, levels: int) -> list:
    """Chords of repeated arc halving, raw recurrence c' = sqrt(2 - 2 sqrt(1 - (c/2)^2)).

    The raw form cancels for small c (relative error grows like 4^m), so
    keep ``levels`` modest (<= 10 for 1e-9 comparisons).
    """
    out = [c0]
    c = c0
    for _ in range(levels):
        c = math.sqrt(2.0 - 2.0 * math.sqrt(1.0 - (c / 2.0) ** 2))
        out.append(c)
    return out


def naive_polyline_length(ordinates) -> float:
    """Sum of naive chord distances over a descending ordinate sequence."""
    return math.fsum(naive_dist(a, b) for a, b in zip(ordinates, ordinates[1:]))


def exact_arc(y_hi: float, y_lo: float = 0.0) -> mpmath.mpf:
    """The length of the arc between two ordinates, at 40 significant
    digits (the float inputs are exact)."""
    with mpmath.workdps(40):
        return mpmath.asin(mpmath.mpf(y_hi)) - mpmath.asin(mpmath.mpf(y_lo))


def exact_sector(y_hi: float, y_lo: float = 0.0) -> mpmath.mpf:
    """The area of the sector over that arc, half its length, at 40 digits."""
    with mpmath.workdps(40):
        return exact_arc(y_hi, y_lo) / 2


def holds(lo: float, hi: float, truth: mpmath.mpf) -> bool:
    """Whether [lo, hi] contains ``truth``, compared exactly."""
    return mpmath.mpf(lo) <= truth <= mpmath.mpf(hi)
