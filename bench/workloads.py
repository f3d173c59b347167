"""Seeded inputs for the three benchmark workloads and the CLI probe.

Everything here is stdlib and never imports chordtrig: the library only ever
sees the generated ordinates, arguments and tolerances, never the seed.

A workload is a *batch*: a list of ops that one pass of the timed loop runs
once each. Every op is a JSON-friendly list ``[kind, stratum, tol, *args]``
(for the CLI probe the args are one argv list). Draws are stratified: each
(kind, stratum, tol) cell gets the same number of ops, and inside a cell the
driving variate is taken one per equal-width bin, so the batch composition,
and with it the work of one pass, is the same for every seed while the exact
inputs change; partition and the CLI probe narrow that further, as their
builders explain. Host trig (``math.sin``) is fine here: this is the test side.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("enclose", "invert", "partition")

HALF_PI = 0.5 * math.pi

ENCLOSE_KINDS = ("arc", "sector", "arcsin", "pi", "ratio")
ENCLOSE_STRATA = ("uniform", "top", "bottom", "short")
ENCLOSE_TOLS = (1e-8, 1e-10, 1e-12, 1e-14)
ENCLOSE_PER_CELL = 25          # 5 kinds x 4 strata x 4 tols x 25 = 2000 ops

INVERT_STRATA = (("uniform", 3), ("near_zero", 1), ("near_half_pi", 1))
INVERT_TOLS = (1e-8, 1e-10, 1e-12)
INVERT_PER_WEIGHT = 32         # (3 + 1 + 1) x 3 tols x 32 = 480 ops

PARTITION_TOL = 1e-9
PARTITION_INTERIOR = 20
PARTITION_NEAR_TOP = 21        # odd total: p50 is one arc's time, not a mean of two

CLI_COMMANDS = ("pi", "arc", "arcsin", "sin", "sector", "ratio",
                "additivity", "partition-compare")
CLI_TOLS = (1e-8, 1e-10, 1e-12)
CLI_PARTITION_TOL = 1e-6       # keeps partition-compare at a few ms
CLI_PER_COMMAND = 3            # x 8 commands x 2 formats = 48 argv


def stratified(rng: random.Random, n: int) -> list[float]:
    """``n`` variates in [0, 1), one per bin [i/n, (i+1)/n), shuffled."""
    out = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def log_uniform(u: float, lo_exp: float, hi_exp: float) -> float:
    """Map u in [0, 1) to 10**e with e uniform in [lo_exp, hi_exp)."""
    return 10.0 ** (lo_exp + (hi_exp - lo_exp) * u)


def enclose_arc(stratum: str, u: float, v: float) -> tuple[float, float]:
    """Endpoint ordinates (y_hi, y_lo) of an arc; ``u`` drives the stratum.

    uniform: both ordinates uniform. top: 1 - y_hi log-uniform in
    [1e-12, 1e-2]. bottom: y_lo log-uniform in [1e-12, 1e-2]. short: arcs of
    relative length (to the quarter) log-uniform in [1e-9, 1e-2], placed with
    their upper end at most at angle 1.4 so the two ordinates stay distinct.
    """
    if stratum == "uniform":
        return (u, v) if u > v else (v, u)
    if stratum == "top":
        y_hi = 1.0 - log_uniform(u, -12, -2)
        return y_hi, v * y_hi
    if stratum == "bottom":
        y_lo = log_uniform(u, -12, -2)
        return y_lo + v * (1.0 - y_lo), y_lo
    if stratum == "short":
        delta = HALF_PI * log_uniform(u, -9, -2)
        theta_hi = delta + v * (1.4 - delta)
        return math.sin(theta_hi), math.sin(theta_hi - delta)
    raise ValueError(f"unknown stratum {stratum!r}")


def enclose_ordinate(stratum: str, u: float) -> float:
    """Single ordinate for arcsin: the stratum's characteristic endpoint."""
    if stratum == "uniform":
        return u
    if stratum == "top":
        return 1.0 - log_uniform(u, -12, -2)
    if stratum == "bottom":
        return log_uniform(u, -12, -2)
    if stratum == "short":
        return math.sin(HALF_PI * log_uniform(u, -9, -2))
    raise ValueError(f"unknown stratum {stratum!r}")


def _enclose(rng: random.Random) -> list[list]:
    ops = []
    for kind in ENCLOSE_KINDS:
        for stratum in ENCLOSE_STRATA:
            for tol in ENCLOSE_TOLS:
                for u in stratified(rng, ENCLOSE_PER_CELL):
                    if kind == "pi":
                        ops.append([kind, stratum, tol])
                    elif kind == "arcsin":
                        ops.append([kind, stratum, tol, enclose_ordinate(stratum, u)])
                    else:
                        ops.append([kind, stratum, tol,
                                    *enclose_arc(stratum, u, rng.random())])
    rng.shuffle(ops)
    return ops


def invert_argument(stratum: str, u: float) -> float:
    """sin argument: uniform in (0, pi/2), or within 1e-12..1e-2 of either end."""
    if stratum == "uniform":
        return HALF_PI * u
    if stratum == "near_zero":
        return log_uniform(u, -12, -2)
    if stratum == "near_half_pi":
        return HALF_PI - log_uniform(u, -12, -2)
    raise ValueError(f"unknown stratum {stratum!r}")


def _invert(rng: random.Random) -> list[list]:
    ops = []
    for stratum, weight in INVERT_STRATA:
        for tol in INVERT_TOLS:
            for u in stratified(rng, weight * INVERT_PER_WEIGHT):
                ops.append(["sin", stratum, tol, invert_argument(stratum, u)])
    rng.shuffle(ops)
    return ops


def _partition(rng: random.Random) -> list[list]:
    """Half interior arcs (y_hi <= 0.9), half with 1 - y_hi in [1e-3, 1e-1].

    This batch is the same for every seed. The cost of an arc is a step
    function of its inputs: it doubles whenever the random scheme's size
    ladder needs one more step, and moving an arc by 6% of its cell, or
    changing its scheme seed, flips that step. With seeded arcs a pass of 20
    took 6.4 s to 11.8 s over six seeds and p50 and p75 moved by 15%; with
    seeded order alone p50 still moved by 30%, as each arc's allocations
    depend on the arrays its predecessor released. So every arc sits at the
    centre of a stratification cell, in cell order, and the random scheme's
    seed is the cell index. Near-top arcs keep their lower end between 0.4
    and 0.85 of their upper one, the closer cells getting the shorter arcs:
    that keeps a pass near 2-3.5 s, so a 35 s run times each arc over ten
    times (with lower ends down to 0 a pass took 8.5 s, and three timings
    per arc left the throughput 17% apart between runs).

    The exact quarter arc is left out: at 1e-8 one call takes 11-27 s and
    about 1.1 GB; the repository's slow test covers it.
    """
    del rng
    ops = []
    n = PARTITION_INTERIOR
    for i in range(n):
        y_hi = 0.2 + 0.7 * (i + 0.5) / n
        y_lo = y_hi * ((7 * i) % n + 0.5) / n
        ops.append(["partition", "interior", PARTITION_TOL, y_hi, y_lo, i])
    n = PARTITION_NEAR_TOP
    for i in range(n):
        y_hi = 1.0 - log_uniform((i + 0.5) / n, -3, -1)
        y_lo = y_hi * (0.4 + 0.45 * (n - i - 0.5) / n)
        ops.append(["partition", "near_top", PARTITION_TOL, y_hi, y_lo,
                    PARTITION_INTERIOR + i])
    return ops


def cli_argv(command: str, stratum: str, tol: float, draws: tuple,
             fmt: str) -> list[str]:
    """One ``chordtrig`` argv; floats are written with repr so they round-trip.

    ``draws`` is (u, v, w, seed): u drives the stratum, v places the other
    arc endpoint, w the additivity split point, seed the random scheme.
    """
    u, v, w, seed = draws
    common = ["--tol", repr(tol), "--format", fmt]
    if command == "pi":
        return ["pi", *common]
    if command == "arcsin":
        return ["arcsin", repr(enclose_ordinate(stratum, u)), *common]
    if command == "sin":
        return ["sin", repr(invert_argument("uniform", u)), *common]
    if command == "partition-compare":
        y_hi = 0.2 + 0.7 * u
        return ["partition-compare", "--a", repr(y_hi), "--b", repr(y_hi * v),
                "--tol", repr(CLI_PARTITION_TOL), "--format", fmt,
                "--seed", str(seed)]
    y_hi, y_lo = enclose_arc(stratum, u, v)
    if command == "additivity":
        y_mid = y_lo + (0.1 + 0.8 * w) * (y_hi - y_lo)
        return ["additivity", "--a", repr(y_hi), "--m", repr(y_mid),
                "--b", repr(y_lo), *common]
    return [command, "--a", repr(y_hi), "--b", repr(y_lo), *common]


def cli_batch(seed: int) -> list[list]:
    """argv for the CLI probe of a traced run: every command on
    CLI_PER_COMMAND inputs, each input in JSON and CSV.

    Strata and tolerances rotate over the commands, so each appears equally
    often; partition-compare runs on interior arcs at a loose tolerance. The
    stratum variate sits at its cell centre: whether an input hits the
    known zero-width-bracket miss depends on it alone, and with only 24
    inputs a seeded draw moved the failed share between 4% and 8%. The seed
    draws the other endpoint, the split point, the scheme seed and the order.
    """
    rng = random.Random(f"cli:{seed}")
    ops = []
    for c, command in enumerate(CLI_COMMANDS):
        for j in range(CLI_PER_COMMAND):
            u = (j + 0.5) / CLI_PER_COMMAND
            stratum = ENCLOSE_STRATA[(c + 2 * j) % len(ENCLOSE_STRATA)]
            tol = CLI_TOLS[(c + j) % len(CLI_TOLS)]
            draws = (u, rng.random(), rng.random(), rng.randrange(1000))
            for fmt in ("json", "csv"):
                ops.append(["cli", stratum, tol,
                            cli_argv(command, stratum, tol, draws, fmt)])
    rng.shuffle(ops)
    return ops


_BUILDERS = {"enclose": _enclose, "invert": _invert, "partition": _partition}


def build(workload: str, seed: int) -> list[list]:
    """The batch of ops for ``workload``; the same seed gives the same batch."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
