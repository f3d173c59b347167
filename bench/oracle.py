"""Exact reference checks for every benchmark op, at 40 significant digits.

The oracle evaluates the true value for the *float* inputs the library was
given (``mpf(y)`` is exact), so a bracket is judged against the real number
it claims to contain. It runs after the timed loop, never inside it.

Every check returns one verdict string. ``ok`` passes; everything else is a
failed op and counts in ``failed``. Verdicts in ``HARD`` also make the run
incorrect; ``nondeterministic`` is given by the caller to an op that did not
repeat its first result exactly. ``miss`` is the one soft verdict: the bracket excludes the exact
value by no more than the rounding the bisection ladder can accumulate
(``SOFT_ULPS``), the known binary64 defect of the certified arms.
"""

from __future__ import annotations

import json
import math

from mpmath import mp, mpf


mp.dps = 40

# 2 ulp of rounding per ladder level, for the 41 levels the default cap allows.
SOFT_ULPS = 2 * 41

HARD = frozenset({"miss_far", "contract", "raise", "exit", "unparseable",
                  "csv_mismatch", "nondeterministic"})


def arc_truth(y_hi: float, y_lo: float):
    """Exact length of the arc between two ordinates of the quarter circle."""
    return abs(mp.asin(mpf(y_hi)) - mp.asin(mpf(y_lo)))


def bracket(lo: float, hi: float, truth, width_limit: float) -> str:
    """Verdict for a claimed enclosure [lo, hi] of ``truth``."""
    if not hi - lo <= width_limit:
        return "contract"
    lo_m, hi_m = mpf(lo), mpf(hi)
    if lo_m <= truth <= hi_m:
        return "ok"
    miss = lo_m - truth if truth < lo_m else truth - hi_m
    return "miss" if miss <= SOFT_ULPS * math.ulp(float(truth)) else "miss_far"


def within(value: float, truth, limit: float) -> str:
    """Verdict for a value whose contract is |value - truth| <= limit."""
    return "ok" if abs(mpf(value) - truth) <= limit else "contract"


def worst(*verdicts: str) -> str:
    """Combine verdicts of one op: any hard one wins, then a soft miss."""
    for v in verdicts:
        if v in HARD:
            return v
    return "miss" if "miss" in verdicts else "ok"


def check_op(op: list, result: list) -> str:
    """Verdict for one in-process op ``[kind, stratum, tol, *args]``."""
    if result and result[0] == "raise":
        return "raise"
    kind, _, tol, *args = op
    if kind in ("arc", "sector"):
        truth = arc_truth(*args) / (2 if kind == "sector" else 1)
        return bracket(result[0], result[1], truth, tol)
    if kind == "arcsin":
        return bracket(result[0], result[1], mp.asin(mpf(args[0])), tol)
    if kind == "pi":
        return bracket(result[0], result[1], +mp.pi, 2 * tol)
    if kind == "ratio":
        return within(result[0], mpf(2), 10 * tol)
    if kind == "sin":
        return within(result[0], mp.sin(mpf(args[0])), 10 * tol)
    if kind == "partition":
        truth = arc_truth(args[0], args[1])
        return worst(*(within(v, truth, tol) for v in result))
    raise ValueError(f"unknown op kind {kind!r}")


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_cli_json(argv: list[str], payload: dict) -> str:
    """Oracle verdict for the JSON output of one CLI invocation."""
    command = argv[0]
    tol = float(_argv_value(argv, "--tol"))
    if command == "pi":
        enc = payload["enclosure"]
        return bracket(enc["lo"], enc["hi"], +mp.pi, 2 * tol)
    if command in ("arc", "sector"):
        truth = arc_truth(payload["a"], payload["b"]) / (2 if command == "sector" else 1)
        enc = payload["enclosure"]
        return bracket(enc["lo"], enc["hi"], truth, tol)
    if command == "arcsin":
        enc = payload["enclosure"]
        return bracket(enc["lo"], enc["hi"], mp.asin(mpf(payload["y"])), tol)
    if command == "sin":
        return within(payload["value"], mp.sin(mpf(payload["x"])), 10 * tol)
    truth = arc_truth(payload["a"], payload["b"])
    if command == "ratio":
        arc, sec = payload["arc"], payload["sector"]
        # Both ladders run at the chord-scaled tolerance their reports carry.
        return worst(within(payload["value"], mpf(2), 10 * tol),
                     bracket(arc["enclosure"]["lo"], arc["enclosure"]["hi"], truth,
                             arc["report"]["tolerance"]),
                     bracket(sec["enclosure"]["lo"], sec["enclosure"]["hi"], truth / 2,
                             sec["report"]["tolerance"]))
    if command == "additivity":
        arc, sec = payload["arc"], payload["sector"]
        return worst(within(arc["whole"], truth, tol),
                     within(arc["parts"], truth, 2 * tol),
                     within(sec["whole"], truth / 2, tol),
                     within(sec["parts"], truth / 2, 2 * tol))
    if command == "partition-compare":
        return worst(*(within(v, truth, tol) for v in payload["limits"].values()))
    raise ValueError(f"unknown command {command!r}")


def csv_matches_json(argv: list[str], csv_text: str, payload: dict) -> bool:
    """Whether the CSV output carries exactly the numbers of the JSON output."""
    lines = csv_text.rstrip("\n").split("\n")
    rows = [line.split(",") for line in lines[1:]]
    if argv[0] in ("ratio", "partition-compare", "additivity"):
        if lines[0] != "name,value":
            return False
        return [(n, float(v)) for n, v in rows] == _name_values(argv[0], payload)
    report = payload["report"]["rows"]
    columns = lines[0].split(",")
    if len(rows) != len(report) or any(len(r) != len(columns) for r in rows):
        return False
    return all(int(r[0]) == ref["m"] and
               all(float(cell) == ref[name] for name, cell in zip(columns[1:], r[1:]))
               for r, ref in zip(rows, report))


def _name_values(command: str, payload: dict) -> list[tuple[str, float]]:
    if command == "ratio":
        return [("ratio", payload["value"]), ("arc_mid", payload["arc"]["value"]),
                ("sector_mid", payload["sector"]["value"])]
    if command == "partition-compare":
        return [*payload["limits"].items(),
                ("max_pairwise_delta", payload["max_pairwise_delta"])]
    arc, sec = payload["arc"], payload["sector"]
    return [("arc_whole", arc["whole"]), ("arc_parts", arc["parts"]),
            ("arc_delta", arc["delta"]), ("sector_whole", sec["whole"]),
            ("sector_parts", sec["parts"]), ("sector_delta", sec["delta"])]


def _json_twin(argv: list[str]) -> tuple[str, ...]:
    out = list(argv)
    out[out.index("--format") + 1] = "json"
    return tuple(out)


def check_cli(ops: list[list], outputs: list[dict]) -> list[str]:
    """Verdicts for a CLI batch; ``outputs[i]`` is {rc, stdout} of ``ops[i]``.

    A JSON output is checked against the oracle. A CSV output must exit 0,
    parse, and carry the same numbers as its JSON twin (same argv, JSON
    format), whose oracle verdict it then shares.
    """
    payloads, verdicts = {}, [None] * len(ops)
    for i, (op, out) in enumerate(zip(ops, outputs)):
        argv = op[3]
        if _argv_value(argv, "--format") != "json":
            continue
        if out["rc"] != 0:
            verdicts[i] = "exit"
            continue
        try:
            payload = json.loads(out["stdout"])
            verdicts[i] = check_cli_json(argv, payload)
        except (ValueError, KeyError, TypeError):
            verdicts[i] = "unparseable"
            continue
        payloads[tuple(argv)] = (payload, verdicts[i])
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if verdicts[i] is not None:
            continue
        twin = payloads.get(_json_twin(op[3]))
        if out["rc"] != 0:
            verdicts[i] = "exit"
        elif twin is None:
            verdicts[i] = "unparseable"
        else:
            try:
                same = csv_matches_json(op[3], out["stdout"], twin[0])
            except (ValueError, KeyError, TypeError, IndexError):
                verdicts[i] = "unparseable"
                continue
            verdicts[i] = twin[1] if same else "csv_mismatch"
    return verdicts
