"""Tests of the benchmark's own parts: oracle, percentile rule, seeded inputs,
tracer and the metric names it declares.

Run from the repository root: ``python -m pytest bench``.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

import oracle
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import chordtrig  # noqa: E402
import chordtrig.cli  # noqa: E402


# --- oracle -----------------------------------------------------------------

def test_bracket_verdicts():
    pi = +mp.pi
    assert oracle.bracket(3.14159, 3.1416, pi, 1e-4) == "ok"
    # math.pi lies below pi: a zero-width bracket on it misses by < 1 ulp.
    assert oracle.bracket(math.pi, math.pi, pi, 1e-4) == "miss"
    assert oracle.bracket(3.0, 3.1, pi, 1.0) == "miss_far"
    assert oracle.bracket(3.0, 3.2, pi, 0.1) == "contract"


def test_soft_miss_limit_is_ladder_rounding():
    truth = mpf(1)
    just_inside = 1.0 - oracle.SOFT_ULPS * math.ulp(1.0)
    assert oracle.bracket(just_inside - 1e-17, just_inside, truth, 1.0) == "miss"
    outside = 1.0 - (oracle.SOFT_ULPS + 2) * math.ulp(1.0)
    assert oracle.bracket(outside, outside, truth, 1.0) == "miss_far"


def test_short_arc_zero_width_bracket_is_a_counted_miss():
    # The known defect: h rounds to 1.0, so level 0 returns [L, L] below the
    # arc length. It must show up as a failed (soft) op, not pass.
    op = ["arc", "short", 1e-8, 0.5 + 1e-9, 0.5]
    a, b = (chordtrig.point_from_ordinate(y) for y in op[3:])
    enc, report = chordtrig.arc_length(a, b, 1e-8)
    assert enc.width == 0.0 and len(report.rows) == 1
    assert oracle.check_op(op, [enc.lo, enc.hi, 1]) == "miss"


def test_check_op_kinds():
    enc = chordtrig.pi_constant(1e-10)
    assert oracle.check_op(["pi", "uniform", 1e-10], [enc.lo, enc.hi]) == "ok"
    assert oracle.check_op(["sin", "uniform", 1e-10, 0.5],
                           [chordtrig.sin(0.5, 1e-10)]) == "ok"
    assert oracle.check_op(["sin", "uniform", 1e-10, 0.5], [0.48]) == "contract"
    assert oracle.check_op(["ratio", "uniform", 1e-10, 0.9, 0.1], [2.0]) == "ok"
    assert oracle.check_op(["arc", "uniform", 1e-10, 0.9, 0.1],
                           ["raise", "ConvergenceError", "cap"]) == "raise"
    truth = float(oracle.arc_truth(0.6, 0.4))
    op = ["partition", "interior", 1e-9, 0.6, 0.4, 0]
    assert oracle.check_op(op, [truth, truth + 5e-10, truth]) == "ok"
    assert oracle.check_op(op, [truth, truth + 5e-9, truth]) == "contract"


def _cli_outputs(ops):
    outputs = []
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = chordtrig.cli.run(op[3])
        outputs.append({"rc": rc, "stdout": out.getvalue()})
    return outputs


def test_cli_checks_json_against_oracle_and_csv_against_json():
    ops = [["cli", "uniform", 1e-10, argv] for argv in (
        ["ratio", "--a", "0.9", "--b", "0.1", "--tol", "1e-10", "--format", "json"],
        ["ratio", "--a", "0.9", "--b", "0.1", "--tol", "1e-10", "--format", "csv"],
        ["sin", "1.2", "--tol", "1e-10", "--format", "json"],
        ["sin", "1.2", "--tol", "1e-10", "--format", "csv"],
        ["additivity", "--a", "0.9", "--m", "0.5", "--b", "0.1", "--tol", "1e-10",
         "--format", "json"],
        ["partition-compare", "--a", "0.6", "--b", "0.4", "--tol", "1e-6",
         "--format", "csv", "--seed", "3"],
        ["partition-compare", "--a", "0.6", "--b", "0.4", "--tol", "1e-6",
         "--format", "json", "--seed", "3"],
    )]
    outputs = _cli_outputs(ops)
    assert oracle.check_cli(ops, outputs) == ["ok"] * len(ops)

    tampered = [dict(o) for o in outputs]
    tampered[3]["stdout"] = tampered[3]["stdout"].replace("1", "2", 1)
    tampered[2]["rc"] = 1
    tampered[4]["stdout"] = "{"
    verdicts = oracle.check_cli(ops, tampered)
    assert verdicts[2] == "exit" and verdicts[4] == "unparseable"
    assert verdicts[3] == "unparseable"   # its JSON twin failed
    tampered = [dict(o) for o in outputs]
    tampered[1]["stdout"] = tampered[1]["stdout"].replace("ratio,", "ratio,3", 1)
    assert oracle.check_cli(ops, tampered)[1] == "csv_mismatch"


# --- percentile rule and per-op latencies -------------------------------------

@pytest.mark.parametrize("n, q, rank", [(20, "50", 10), (39, "50", 20), (40, "75", 30),
                                        (48, "75", 36), (480, "95", 456),
                                        (2000, "99.5", 1990), (10 ** 5, "99.9", 99900)])
def test_tail_percentile_rule(n, q, rank):
    samples = list(range(n, 0, -1))          # value == nearest rank
    assert run.tail_percentile(samples) == (q, rank)
    assert n - rank >= run.TAIL_MIN_BEYOND


def test_tail_percentile_needs_ten_beyond_the_median():
    with pytest.raises(run.BenchError):
        run.tail_percentile(range(19))



# --- seeded generation ---------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_batch_and_json_round_trip(workload):
    batch = workloads.build(workload, 7)
    assert batch == workloads.build(workload, 7)
    assert json.loads(json.dumps(batch)) == batch


@pytest.mark.parametrize("workload", ["enclose", "invert"])
def test_seed_changes_inputs(workload):
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


def test_cli_batch_is_seeded():
    assert workloads.cli_batch(7) == workloads.cli_batch(7) != workloads.cli_batch(8)
    assert json.loads(json.dumps(workloads.cli_batch(7))) == workloads.cli_batch(7)


def test_partition_batch_is_fixed():
    assert workloads.build("partition", 7) == workloads.build("partition", 8)


def test_enclose_cells_are_balanced_and_arcs_valid():
    batch = workloads.build("enclose", 3)
    cells = {}
    for kind, stratum, tol, *args in batch:
        cells[kind, stratum, tol] = cells.get((kind, stratum, tol), 0) + 1
        if kind in ("arc", "sector", "ratio"):
            y_hi, y_lo = args
            assert 0.0 <= y_lo < y_hi <= 1.0
    assert len(cells) == 5 * 4 * 4
    assert set(cells.values()) == {workloads.ENCLOSE_PER_CELL}


def test_strata_ranges():
    top_hi, _ = workloads.enclose_arc("top", 0.0, 0.5)
    assert 1.0 - top_hi == pytest.approx(1e-12, rel=1e-3)
    _, bottom_lo = workloads.enclose_arc("bottom", 0.999999, 0.5)
    assert bottom_lo == pytest.approx(1e-2, rel=1e-4)
    y_hi, y_lo = workloads.enclose_arc("short", 0.0, 1.0)
    assert math.asin(y_hi) <= 1.4 + 1e-12 and y_hi > y_lo
    assert workloads.invert_argument("near_half_pi", 0.0) == pytest.approx(
        math.pi / 2 - 1e-12, abs=1e-15)


def test_cli_batch_covers_every_command_in_both_formats():
    batch = workloads.cli_batch(5)
    seen = {(op[3][0], op[3][op[3].index("--format") + 1]) for op in batch}
    assert seen == {(c, f) for c in workloads.CLI_COMMANDS for f in ("json", "csv")}


# --- tracer ----------------------------------------------------------------------

def test_tracer_nests_spans_and_restores_every_binding():
    before = (chordtrig.sin, chordtrig.inverse.arcsin, chordtrig.inverse.arc_length,
              chordtrig.cli.arcsin, chordtrig.sector.sector_area)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert chordtrig.inverse.arc_length is not before[2]
        chordtrig.sin(0.5, 1e-8)
        enc, _ = chordtrig.sector_area(chordtrig.point_from_ordinate(0.9),
                                       chordtrig.point_from_ordinate(0.1), 1e-8)
    assert (chordtrig.sin, chordtrig.inverse.arcsin, chordtrig.inverse.arc_length,
            chordtrig.cli.arcsin, chordtrig.sector.sector_area) == before

    spans = tracer.spans
    assert spans[0][tracing.NAME] == "inverse.sin" and spans[0][tracing.PARENT] == -1
    for span in spans:
        assert 0 <= span[tracing.SELF] <= span[tracing.END] - span[tracing.START]
        if span[tracing.NAME] == "arclength.arc_length":
            assert spans[span[tracing.PARENT]][tracing.NAME] == "inverse.arcsin"
    metrics = tracing.layer_metrics(spans)
    assert metrics["inverse.sin.calls"] == 1
    assert metrics["inverse.arcsin_per_sin"] == metrics["inverse.arcsin.calls"] > 10
    assert metrics["sector.sector_area.calls"] == 1
    assert metrics["sector.sector_area.levels_per_call"] >= 1
    assert metrics["partitions.scheme_limit.random.calls"] == 0


# --- declared metrics and the no-checkout exit --------------------------------

def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed = set(tracing.layer_metrics([])) | {
        "trace.overhead_s", "cli.interpreter_s", "cli.import_s", "cli.run_s",
        "cli.other_s", "cli.invocations"}
    assert set(per_layer) == printed
    assert all(run.unit_for(name) == unit for name, unit in per_layer.items())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_exits_nonzero_without_result_outside_a_checkout():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "enclose",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_short_run_prints_every_declared_metric(trace, section):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "enclose",
                           "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and 0 < result["failed"] < result["attempted"]
    if trace == 0:
        # One attempt per input, however many passes ran: counts repeat
        # exactly for a seed.
        assert result["attempted"] == len(workloads.build("enclose", 1))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_time_mode_counts_results_that_do_not_repeat():
    import worker
    counter = iter(range(10 ** 6))
    calls = [lambda: next(counter), lambda: 7]
    reply = worker.time_mode({"seconds": 0}, calls, [lambda r: [r]] * 2, lambda: 0.0)
    passes = len(reply["pass_walls_s"])
    assert passes == worker.MIN_PASSES
    assert reply["mismatches"] == [passes - 1, 0]
    assert reply["results"] == [[0], [7]]
    assert len(reply["relative"]) == 2 and all(r > 0 for r in reply["relative"])


def test_time_mode_reports_ops_relative_to_the_reference_kernel():
    import reference
    import worker
    # An op that is two reference runs reads about twice the kernel, on a
    # quiet or a loaded host alike.
    twice = lambda: (reference.kernel(), reference.kernel())
    reply = worker.time_mode({"seconds": 0.2}, [twice], [lambda r: list(r)], reference.kernel)
    assert 1.5 < reply["relative"][0] < 2.5
