"""Spans around chordtrig's public functions, recorded from outside.

The tracer swaps each traced function for a wrapper in *every* loaded
``chordtrig`` module that binds it, so calls between modules (``inverse``
calling ``arc_length``, ``sector`` calling ``sector_area``) are seen too.
Spans live in memory as tuples and are written out once, at the end;
``Tracer.installed()`` puts the original functions back on exit, so no
untraced run ever goes through a wrapper.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# span name -> (defining module, function name)
TARGETS = {
    "geometry.point_from_ordinate": ("chordtrig.geometry", "point_from_ordinate"),
    "geometry.chord_length": ("chordtrig.geometry", "chord_length"),
    "arclength.arc_length": ("chordtrig.arclength", "arc_length"),
    "sector.sector_area": ("chordtrig.sector", "sector_area"),
    "sector.verify_ratio": ("chordtrig.sector", "verify_ratio"),
    "inverse.arcsin": ("chordtrig.inverse", "arcsin"),
    "inverse.sin": ("chordtrig.inverse", "sin"),
    "inverse.pi_constant": ("chordtrig.inverse", "pi_constant"),
    "partitions.scheme_limit": ("chordtrig.partitions", "scheme_limit"),
    "partitions.additivity_check": ("chordtrig.partitions", "additivity_check"),
    "cli.run": ("chordtrig.cli", "run"),
}

# Functions whose result is (Enclosure, ConvergenceReport): a span also
# records the ladder levels, len(report.rows).
_LADDERS = ("arclength.arc_length", "sector.sector_area")

SCHEMES = ("bisection", "ordinate_uniform", "random")

# Field indices of a span tuple.
NAME, START, END, PARENT, SELF, LEVELS, OP = range(7)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1            # index of the benchmark op being run
        self._stack: list[list] = []   # [span index, child ns] per open span

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        ladder = name in _LADDERS
        scheme_limit = name == "partitions.scheme_limit"

        def wrapper(*args, **kwargs):
            span_name = name
            if scheme_limit:
                span_name = f"{name}.{kwargs.get('scheme', args[2] if len(args) > 2 else '')}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            levels = 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if ladder:
                    levels = len(result[1].rows)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (span_name, start, end, parent,
                                duration - frame[1], levels, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target in every loaded chordtrig module; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "chordtrig" or n.startswith("chordtrig."))]
        swapped = []
        try:
            for name, (module_name, attr) in TARGETS.items():
                if module_name not in sys.modules:
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            swapped.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(swapped):
                setattr(module, key, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON: names once, then one row per span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[SELF], s[LEVELS], s[OP]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "self_ns",
                                  "levels", "op"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and self times from a list of span tuples.

    Every traced name appears, with zero calls when the workload never
    reached it. ``inverse.arcsin_per_sin`` counts arcsin spans nested in a
    sin span, per sin call: one run is useful, the rest are the bisection's
    attempts.
    """
    names = [n for n in TARGETS if n not in ("partitions.scheme_limit", "cli.run")]
    names += [f"partitions.scheme_limit.{s}" for s in SCHEMES]
    calls = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    levels = dict.fromkeys(names, 0)
    arcsin_in_sin = 0
    for span in spans:
        name = span[NAME]
        if name not in calls:
            continue
        calls[name] += 1
        self_ns[name] += span[SELF]
        levels[name] += span[LEVELS]
        if name == "inverse.arcsin" and _has_ancestor(spans, span, "inverse.sin"):
            arcsin_in_sin += 1
    out = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] * 1e-9
    for name in _LADDERS:
        out[f"{name}.levels_per_call"] = levels[name] / calls[name] if calls[name] else 0.0
    arc = "arclength.arc_length"
    out[f"{arc}.us_per_level"] = self_ns[arc] * 1e-3 / levels[arc] if levels[arc] else 0.0
    sins = calls["inverse.sin"]
    out["inverse.arcsin_per_sin"] = arcsin_in_sin / sins if sins else 0.0
    return out


def _has_ancestor(spans: list[tuple], span: tuple, name: str) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False

