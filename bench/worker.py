"""Runs one benchmark job in its own interpreter.

Usage: ``python bench/worker.py < job.json``. The job names the workload,
its batch of ops (from workloads.build), the chordtrig source directory and
the mode. The reply is one JSON line on stdout.

Only this process imports chordtrig in-process, and it never imports the
oracle, so its peak RSS is the library's plus the batch and its first-pass
results, whose size does not depend on speed. Input generation and checks
happen in the parent, outside every timed region.

time mode: whole passes over the batch, each op timed alone and followed
by a run of the reference kernel, until ``seconds`` have elapsed and at
least MIN_PASSES passes have run. Each op's time relative to the kernel is
kept (see time_mode). Results of the first pass are returned for the
oracle; every later execution must reproduce them exactly.

trace mode: an untraced pass, a traced pass and another untraced pass over
the same batch; per-layer metrics come from the traced pass, and the tracing
overhead is its wall time minus the mean of the untraced ones. Then the CLI
layer is probed on the job's ``cli_ops`` (see _cli_layer).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter_ns

import reference
import tracing

MIN_PASSES = 2          # every op runs at least twice: determinism check
RATIO_SLOTS = 64        # reference ratios kept per op (the last passes)
CHILD_TIMEOUT_S = 60


def _extractor(kind: str):
    if kind in ("arc", "sector", "arcsin"):
        return lambda r: [r[0].lo, r[0].hi, len(r[1].rows)]
    if kind == "pi":
        return lambda r: [r.lo, r.hi]
    if kind in ("ratio", "sin"):
        return lambda r: [r]
    if kind == "partition":
        return list
    raise ValueError(f"unknown op kind {kind!r}")


def _call(ct, op):
    """A no-argument callable running one op through chordtrig's public API.

    Names are looked up on the package at call time, so a traced pass goes
    through the wrappers that Tracer.installed() put there.
    """
    kind, _, tol, *args = op
    if kind in ("arc", "sector", "ratio"):
        fn = {"arc": "arc_length", "sector": "sector_area", "ratio": "verify_ratio"}[kind]
        y_hi, y_lo = args
        return lambda: getattr(ct, fn)(ct.point_from_ordinate(y_hi),
                                       ct.point_from_ordinate(y_lo), tol)
    if kind == "arcsin":
        return lambda: ct.arcsin(args[0], tol)
    if kind == "pi":
        return lambda: ct.pi_constant(tol)
    if kind == "sin":
        return lambda: ct.sin(args[0], tol)
    if kind == "partition":
        y_hi, y_lo, seed = args
        return lambda: tuple(
            ct.scheme_limit(ct.point_from_ordinate(y_hi), ct.point_from_ordinate(y_lo),
                            scheme, tol, seed=seed)
            for scheme in tracing.SCHEMES)
    raise ValueError(f"unknown op kind {kind!r}")


def _child(job, args):
    """A callable running ``python *args`` in the checkout, output captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [job["src"], env.get("PYTHONPATH")]))
    cmd = [sys.executable, *args]
    return lambda: subprocess.run(cmd, cwd=job["root"], env=env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)


def _cli_in_process(cli, argv):
    """A callable running ``cli.run(argv)`` here, returning (rc, stdout)."""
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(argv)
        return rc, out.getvalue()
    return call


def _child_output(proc) -> dict:
    return {"rc": proc.returncode, "stdout": proc.stdout.decode("utf-8", "replace")}


def _run(call, extract):
    """Run one op; return (latency ns, extracted result or a raise marker)."""
    t0 = perf_counter_ns()
    try:
        result = call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        t1 = perf_counter_ns()
        return t1 - t0, ["raise", type(exc).__name__, str(exc)]
    t1 = perf_counter_ns()
    return t1 - t0, extract(result)


def _warm(calls, extracts, ops):
    """One untimed call per op kind, so lazy set-up is done before timing.

    The warm-up op of a kind is its first op in the cheap strata, if any:
    a near-top partition arc can take seconds.
    """
    chosen = {}
    for op, call, extract in zip(ops, calls, extracts):
        if op[0] not in chosen or (op[1] in ("uniform", "interior")
                                   and chosen[op[0]][0] not in ("uniform", "interior")):
            chosen[op[0]] = (op[1], call, extract)
    for _, call, extract in chosen.values():
        _run(call, extract)


def _child_seconds(job, code: str) -> float:
    """Run ``python -c code`` in the checkout; the time it prints, in s."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=job["root"],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_run(job) -> tuple[float, float]:
    """One set-up run (run.setup_code) between two runs of the import
    reference (reference.IMPORT_CODE): its time in s, and that time over
    the mean of the two references."""
    before = _child_seconds(job, reference.IMPORT_CODE)
    seconds = _child_seconds(job, job["setup_code"])
    after = _child_seconds(job, reference.IMPORT_CODE)
    return seconds, 2 * seconds / (before + after)


def time_mode(job, calls, extracts, kernel):
    """Passes until the deadline; each op's time relative to ``kernel``.

    On a shared machine the same pass ran anywhere from 0.70 s to 2.5 s,
    in phases of seconds to minutes, as other tenants took the CPU, and an
    op's fastest time over a whole run still moved by half between runs.
    So a reference kernel (reference.py) runs after every op, and each
    execution of an op is recorded as its time over the mean of the
    kernel's runs just before and after it. An op's figure is the median
    of its last RATIO_SLOTS such ratios: the slow phases slow op and kernel
    alike, and the median drops the executions a phase change split.
    Ratios live in one array allocated up front, so the worker's peak RSS
    does not grow with the number of passes. Each op's fastest wall time
    is kept too, for the detail record.

    The job's ``setup_runs`` set-up runs (see _setup_run) are spread evenly
    over the loop, between passes, one child at a time, so they sample the
    whole run.
    """
    deadline = int(job["seconds"] * 1e9)
    n = len(calls)
    first = [None] * n
    mismatches = [0] * n
    fastest = array("q", [2 ** 62]) * n
    ratios = array("d", [0.0]) * (n * RATIO_SLOTS)
    kernel_ns = []
    pass_walls = []
    setups = []
    n_setup = job.get("setup_runs", 0)
    start = perf_counter_ns()
    before = _run(kernel, float)[0]
    while True:
        pass_start = perf_counter_ns()
        slot = len(pass_walls) % RATIO_SLOTS
        for i in range(n):
            ns, value = _run(calls[i], extracts[i])
            after = _run(kernel, float)[0]
            ratios[i * RATIO_SLOTS + slot] = 2 * ns / (before + after)
            before = after
            if ns < fastest[i]:
                fastest[i] = ns
            if first[i] is None:
                first[i] = value
            elif value != first[i]:
                mismatches[i] += 1
        now = perf_counter_ns()
        pass_walls.append((now - pass_start) * 1e-9)
        kernel_ns.append(after)
        while len(setups) < n_setup and (now - start) * n_setup >= (len(setups) + 0.5) * deadline:
            setups.append(_setup_run(job))
        if perf_counter_ns() - start >= deadline and len(pass_walls) >= MIN_PASSES:
            break
    while len(setups) < n_setup:
        setups.append(_setup_run(job))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    filled = min(len(pass_walls), RATIO_SLOTS)
    relative = [statistics.median(ratios[i * RATIO_SLOTS:i * RATIO_SLOTS + filled])
                for i in range(n)]
    return {"pass_walls_s": pass_walls, "setup_runs_s": [t for t, _ in setups],
            "setup_relative": [r for _, r in setups], "relative": relative,
            "fastest_ns": list(fastest), "kernel_ns_per_pass": kernel_ns,
            "results": first, "mismatches": mismatches, "maxrss_kb": maxrss_kb}


def _cli_layer(job) -> tuple[dict, list[dict]]:
    """The CLI layer, probed after the traced pass on the seeded CLI batch.

    Each argv runs twice in-process (``cli.run``, stdout captured) and once
    as a ``python -m chordtrig`` child, interleaved round by round with a
    bare interpreter and a fresh ``import chordtrig.cli``. Figures are
    means: the speed of a fresh import changed by half within seconds on a
    shared machine, and interleaving keeps the parts comparable. Returns
    the layer metrics and, per argv, the child's output and whether all
    three outputs were byte-identical.
    """
    import chordtrig.cli

    bare = _child(job, ["-c", "pass"])
    imports = _child(job, ["-c", "import chordtrig.cli"])
    times = {"bare": [], "import": [], "run": [], "child": []}
    outputs = []
    for op in job["cli_ops"]:
        in_process = _cli_in_process(chordtrig.cli, op[3])
        runs = [_run(in_process, list) for _ in range(2)]
        times["run"].append(min(ns for ns, _ in runs) * 1e-9)
        times["bare"].append(_run(bare, _child_output)[0] * 1e-9)
        times["import"].append(_run(imports, _child_output)[0] * 1e-9)
        ns, out = _run(_child(job, ["-m", "chordtrig", *op[3]]), _child_output)
        times["child"].append(ns * 1e-9)
        out["repeats"] = all(r == [out["rc"], out["stdout"]] for _, r in runs)
        outputs.append(out)
    mean = {k: statistics.fmean(v) for k, v in times.items()}
    layer = {"cli.interpreter_s": mean["bare"],
             "cli.import_s": mean["import"] - mean["bare"],
             "cli.run_s": mean["run"],
             "cli.other_s": mean["child"] - mean["import"] - mean["run"],
             "cli.invocations": len(outputs)}
    return layer, outputs


def _untraced_pass(calls, extracts) -> float:
    start = perf_counter_ns()
    for call, extract in zip(calls, extracts):
        _run(call, extract)
    return (perf_counter_ns() - start) * 1e-9


def trace_mode(job, calls, extracts):
    # Untraced passes before and after the traced one: their mean is the
    # baseline, so drift during the run does not land in the overhead.
    before = _untraced_pass(calls, extracts)
    tracer = tracing.Tracer()
    results = []
    with tracer.installed():
        start = perf_counter_ns()
        for i, (call, extract) in enumerate(zip(calls, extracts)):
            tracer.op = i
            results.append(_run(call, extract)[1])
        traced_wall = (perf_counter_ns() - start) * 1e-9
    tracer.write(job["trace_out"])
    untraced_wall = 0.5 * (before + _untraced_pass(calls, extracts))

    layers = tracing.layer_metrics(tracer.spans)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    cli_layer, cli_outputs = _cli_layer(job)
    layers.update(cli_layer)
    return {"results": results, "layers": layers, "cli_outputs": cli_outputs,
            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "spans": len(tracer.spans)}


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import chordtrig

    ops = job["ops"]
    calls = [_call(chordtrig, op) for op in ops]
    extracts = [_extractor(op[0]) for op in ops]
    _warm(calls, extracts, ops)
    if job["mode"] == "time":
        # Every op of a batch is of one family, so one kernel serves it.
        kernel = reference.for_kind(ops[0][0])[0]
        reply = time_mode(job, calls, extracts, kernel)
    else:
        reply = trace_mode(job, calls, extracts)
    sys.stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
