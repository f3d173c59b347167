"""chordtrig benchmark: one seeded workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout; builds nothing, imports ``src/``)::

    python3 bench/run.py --workload enclose --seed 1 --seconds 35 --trace 0

Workloads: enclose, invert, partition (see workloads.py and NOTES.md).
With ``--trace 0`` the last stdout line reports setup_s, ops_per_s,
latency_p50_ms, latency_tail_ms, correct_share and peak_rss_mb, with op
timings at reference speed (reference.py); with
``--trace 1`` it reports the per-layer metrics of a traced pass plus a
probe of the CLI layer, and the spans are written to ``bench/out/``. The line before it is a JSON detail
record: tail percentile and sample count, failures by verdict, stratum and
tolerance, and exact work counters. Every output is checked against the
mpmath oracle; ``failed`` counts every op whose result is not exact-correct,
and ``correct`` is false if any op failed by more than ladder rounding
(see oracle.py). Exits 2 without a result when ``src/chordtrig`` is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oracle
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 8
WORKER_TIMEOUT_S = 150

# Set for every process the benchmark starts. chordtrig does no linear
# algebra, but importing numpy starts OpenBLAS's thread pool, whose threads
# fight the main one for the 2 vCPUs: `python -m chordtrig pi` took 135-219
# ms wall and 198-294 ms CPU with the default pool, 128-160 ms and 127-159
# ms with one thread, and the default pool moved the p50 of a workload of
# CLI children by 26% across ten runs.
ENV_PINS = {"OPENBLAS_NUM_THREADS": "1"}

# Percentiles the tail may report; the highest with >= TAIL_MIN_BEYOND
# samples above it wins. Samples are ops of the batch, so each workload
# always reports the same percentile: enclose p99.5, invert p95, partition
# p75.
TAIL_LADDER = ("50", "75", "90", "95", "99", "99.5", "99.9")
TAIL_MIN_BEYOND = 10

# One warm-up call per op kind, on fixed cheap inputs, so set-up time does
# not depend on the seed.
_WARMUP = {
    "enclose": """
a, b = chordtrig.point_from_ordinate(0.9), chordtrig.point_from_ordinate(0.1)
chordtrig.arc_length(a, b, 1e-10)
chordtrig.sector_area(a, b, 1e-10)
chordtrig.arcsin(0.5, 1e-10)
chordtrig.pi_constant(1e-10)
chordtrig.verify_ratio(a, b, 1e-10)
""",
    "invert": """
chordtrig.sin(0.5, 1e-10)
""",
    "partition": """
a, b = chordtrig.point_from_ordinate(0.6), chordtrig.point_from_ordinate(0.4)
for scheme in ("bisection", "ordinate_uniform", "random"):
    chordtrig.scheme_limit(a, b, scheme, 1e-9, seed=0)
""",
}

_SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import chordtrig
{warmup}
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark could not run; no result line is printed."""


def tail_percentile(samples) -> tuple[str, float]:
    """(percentile, value): the highest TAIL_LADDER percentile that has at
    least TAIL_MIN_BEYOND samples strictly after its nearest-rank position."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for q in TAIL_LADDER:
        rank = math.ceil(Fraction(q) * n / 100)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (q, ordered[rank - 1])
    if best is None:
        raise BenchError(f"{n} samples are too few for a tail percentile")
    return best


def setup_code(workload: str) -> str:
    """Python source of one set-up run; it prints its time in seconds."""
    return _SETUP_CODE.format(src=str(SRC), warmup=_WARMUP[workload])


def run_worker(job: dict) -> dict:
    """Run worker.py on ``job`` in its own process group; on a timeout the
    whole group (worker and any CLI child) is killed and reaped."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py"))],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def unit_for(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name == "cli.invocations":
        return "count"
    if name.endswith(".levels_per_call"):
        return "levels"
    if name.endswith(".us_per_level"):
        return "us"
    if name.endswith("_per_sin"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    raise ValueError(f"no unit for {name!r}")


def failure_summary(ops: list[list], verdicts: list[str]) -> dict:
    """Failed inputs of one batch pass, by verdict, by stratum and by tol."""
    bad = [(op, v) for op, v in zip(ops, verdicts) if v != "ok"]
    return {
        "batch_inputs": len(ops),
        "failed_inputs": len(bad),
        "by_verdict": dict(Counter(v for _, v in bad)),
        "by_stratum": dict(Counter(f"{op[0]}/{op[1]}" for op, _ in bad)),
        "by_tol": dict(Counter(repr(op[2]) for op, _ in bad)),
    }


def work_counters(workload: str, ops: list[list], results: list) -> dict:
    """Work per batch pass that repeats exactly for a fixed seed."""
    if workload == "partition":
        return {"arcs": len(ops), "scheme_calls": 3 * len(ops)}
    levels = [r[2] for op, r in zip(ops, results)
              if op[0] in ("arc", "sector", "arcsin") and r[0] != "raise"]
    return {"ops": len(ops), "ladder_levels": sum(levels),
            "ladder_calls": len(levels)}


def timed(args, ops) -> tuple[dict, dict]:
    reply = run_worker({"mode": "time", "workload": args.workload, "ops": ops,
                        "seconds": args.seconds, "src": str(SRC), "root": str(ROOT),
                        "setup_code": setup_code(args.workload),
                        "setup_runs": SETUP_REPEATS})
    verdicts = [oracle.check_op(op, r) for op, r in zip(ops, reply["results"])]
    # One attempt per input of the batch. Every pass re-runs the same
    # inputs, and an input fails if its first result is wrong or a later run
    # does not reproduce it; so both counts repeat exactly for a seed, however
    # many passes the machine's speed allowed.
    attempted = len(ops)
    nondeterministic = sum(m > 0 for m in reply["mismatches"])
    failed = sum(v != "ok" or m > 0 for v, m in zip(verdicts, reply["mismatches"]))
    hard = nondeterministic > 0 or any(v in oracle.HARD for v in verdicts)
    # Milliseconds at reference speed: each op's median ratio to the
    # reference kernel (see worker.time_mode) times the kernel's quiet time.
    quiet_s = reference.for_kind(ops[0][0])[1]
    per_op = [r * quiet_s * 1e3 for r in reply["relative"]]
    q, tail = tail_percentile(per_op)
    correct_share = (attempted - failed) / attempted
    metrics = {
        # Seconds at reference speed, as the op timings below: each set-up
        # run's ratio to the import reference times that reference's quiet
        # time (see reference.IMPORT_CODE).
        "setup_s": (statistics.median(reply["setup_relative"])
                    * reference.IMPORT_REFERENCE_S, "s"),
        "ops_per_s": (correct_share * len(ops) / (math.fsum(per_op) * 1e-3), "op/s"),
        "latency_p50_ms": (statistics.median(per_op), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "correct_share": (correct_share, "ratio"),
        "peak_rss_mb": (reply["maxrss_kb"] / 1024, "MB"),
    }
    detail = {
        "tail_percentile": q, "samples": len(per_op), "runs_per_sample": len(reply["pass_walls_s"]),
        "pass_walls_s": reply["pass_walls_s"], "setup_runs_s": reply["setup_runs_s"],
        "wall_fastest_p50_ms": statistics.median(reply["fastest_ns"]) * 1e-6,
        "kernel_us_per_pass": [ns * 1e-3 for ns in reply["kernel_ns_per_pass"]],
        "nondeterministic_ops": nondeterministic,
        "failures": failure_summary(ops, verdicts),
        "counters": work_counters(args.workload, ops, reply["results"]),
    }
    result = {"correct": not hard, "attempted": attempted, "failed": failed}
    return result | {"metrics": metrics}, detail


def traced(args, ops) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    cli_ops = workloads.cli_batch(args.seed)
    reply = run_worker({"mode": "trace", "workload": args.workload, "ops": ops,
                        "cli_ops": cli_ops, "src": str(SRC), "root": str(ROOT),
                        "trace_out": str(trace_out)})
    verdicts = [oracle.check_op(op, r) for op, r in zip(ops, reply["results"])]
    cli_verdicts = [v if out["repeats"] else "nondeterministic"
                    for v, out in zip(oracle.check_cli(cli_ops, reply["cli_outputs"]),
                                      reply["cli_outputs"])]
    metrics = {name: (value, unit_for(name)) for name, value in reply["layers"].items()}
    detail = {
        "spans": reply["spans"], "trace_file": str(trace_out.relative_to(ROOT)),
        "untraced_wall_s": reply["untraced_wall_s"],
        "traced_wall_s": reply["traced_wall_s"],
        "failures": failure_summary(ops, verdicts),
        "cli_failures": failure_summary(cli_ops, cli_verdicts),
        "counters": work_counters(args.workload, ops, reply["results"]),
    }
    every = verdicts + cli_verdicts
    result = {"correct": not any(v in oracle.HARD for v in every),
              "attempted": len(every), "failed": sum(v != "ok" for v in every)}
    return result | {"metrics": metrics}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chordtrig" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: {SRC / 'chordtrig'} not found; "
                         "run from the root of a chordtrig checkout\n")
        return 2
    os.environ.update(ENV_PINS)
    ops = workloads.build(args.workload, args.seed)
    try:
        result, detail = (traced if args.trace else timed)(args, ops)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed} | detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
