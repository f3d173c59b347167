"""The reference kernels that every end-to-end timing is measured against.

On a shared host the CPU runs up to twice as slow in phases of under a
second to minutes as other tenants load it, and an op as long as one
``sin`` call (about 1.5 ms) rarely runs whole inside a quiet gap, so even
its fastest execution moved by half between runs. The worker therefore
times a kernel right after every op and reports each op as a multiple of
it: the op's time over the mean of the kernel's runs just before and just
after it.

Each kernel is written like the hot path of the ops it stands next to, so
the host's slow phases slow both alike, but it shares no code with
chordtrig: a change to the library never changes it. ``kernel`` mimics the
chord ladder (frozen dataclasses, ``math.sqrt``/``hypot``/``ldexp``, a
short list of ladder rows) and serves every op but ``partition``, whose
time goes to numpy array code; ``array_kernel`` mimics that (a seeded draw,
a sort, one vectorized chord-length pass). Do not edit them. Every timing
the benchmark has reported is in their units, converted to milliseconds
with their constants, so editing one would break comparison with all
earlier runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Each kernel's median time in a quiet phase of a shared 2-vCPU x86-64 host
# under Python 3.11 and numpy with one OpenBLAS thread (the slow phases read
# up to twice as long). Reported timings are milliseconds at the speed where
# one kernel run takes this long; being constants, they add no noise.
REFERENCE_S = 60e-6
ARRAY_REFERENCE_S = 800e-6

# Set-up (a fresh interpreter importing chordtrig) is timed against a fresh
# interpreter running this instead: the one import that dominates it, of a
# package chordtrig does not ship. The host's slow phases moved the set-up
# time's median over 30 s windows between 0.074 and 0.111 s, while its
# ratio to this reference stayed within 1.154-1.175. IMPORT_REFERENCE_S is
# this child's median time in the quiet windows.
IMPORT_CODE = """
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""
IMPORT_REFERENCE_S = 0.065

_ARRAY_POINTS = 1 << 15


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


@dataclass(frozen=True)
class _Level:
    m: int
    length: float
    height: float
    total: float


def _point(y: float) -> _Point:
    return _Point(math.sqrt((1.0 - y) * (1.0 + y)), y)


def _ladder(a: _Point, b: _Point, levels: int) -> list[_Level]:
    ell = math.hypot(a.x - b.x, a.y - b.y)
    rows = []
    for m in range(levels):
        h = math.sqrt(1.0 - 0.25 * ell * ell)
        rows.append(_Level(m, ell, h, math.ldexp(ell, m)))
        ell = ell / math.sqrt(2.0 * (1.0 + h))
    return rows


def kernel() -> float:
    """Four 14-level chord ladders on fixed arcs; returns their bound sum."""
    total = 0.0
    for k in range(1, 5):
        last = _ladder(_point(0.2 * k), _point(0.1 * k), 14)[-1]
        total += last.total / last.height
    return total


def array_kernel() -> float:
    """Seeded sorted draw of 2^15 ordinates and its polyline length."""
    # Imported here, so the kernel's module adds nothing to the worker's
    # peak RSS on the workloads that never call it.
    import numpy as np

    ys = np.random.default_rng(0).uniform(0.0, 1.0, _ARRAY_POINTS)
    ys[::-1].sort()
    x = np.sqrt((1.0 - ys) * (1.0 + ys))
    t = (ys[:-1] + ys[1:]) / (x[:-1] + x[1:])
    return float(((ys[:-1] - ys[1:]) * np.sqrt(1.0 + t * t)).sum())


def for_kind(kind: str):
    """(kernel, its quiet time in s) for an op kind."""
    if kind == "partition":
        return array_kernel, ARRAY_REFERENCE_S
    return kernel, REFERENCE_S
