import ast
import json
import math
import os
import re
import subprocess
import sys

import pytest

from chordtrig import Enclosure, arc_length, pi_constant, point_from_ordinate
from chordtrig import arclength as arclength_module
from chordtrig import cli
from chordtrig.cli import run
from chordtrig.report import CSV_COLUMNS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnclosureType:
    def test_width_and_mid(self):
        enc = Enclosure(1.0, 3.0)
        assert enc.width == 2.0
        assert enc.mid == 2.0
        assert enc.to_dict() == {"lo": 1.0, "hi": 3.0, "mid": 2.0, "width": 2.0}

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Enclosure(2.0, 1.0)

    def test_degenerate_ok(self):
        assert Enclosure(0.0, 0.0).width == 0.0


class TestReportInvariants:
    def test_rows_ordered_and_tightening(self):
        enc, rep = arc_length(point_from_ordinate(1.0), point_from_ordinate(0.0), 1e-10)
        ms = [row.m for row in rep.rows]
        assert ms == list(range(len(ms)))
        totals = [row.total_length for row in rep.rows]
        assert all(v >= u for u, v in zip(totals, totals[1:]))
        widths = [row.enclosure_hi - row.enclosure_lo for row in rep.rows]
        assert all(v <= u for u, v in zip(widths, widths[1:]))
        assert rep.rows[-1].enclosure_lo == enc.lo
        assert rep.to_dict()["stop_reason"] == "tolerance_met"


class TestJsonCommands:
    def test_pi(self, capsys):
        code, out, err = invoke(capsys, "pi", "--tol", "1e-10")
        assert code == 0 and err == ""
        payload = json.loads(out)
        enc = payload["enclosure"]
        assert enc["lo"] <= math.pi <= enc["hi"]
        assert enc["width"] <= 2e-10
        assert payload["report"]["rows"]

    def test_a_negative_zero_ordinate_is_reported_as_zero(self, capsys):
        """The report names the arc by its points, which store -0.0 as 0.0;
        the echoed argument ``b`` stays as typed."""
        code, out, _ = invoke(capsys, "arc", "--a", "1", "--b", "-0.0")
        assert code == 0
        b = json.loads(out)["report"]["b_ordinate"]
        assert b == 0.0 and math.copysign(1.0, b) == 1.0

    def test_arcsin_zero(self, capsys):
        code, out, _ = invoke(capsys, "arcsin", "0", "--tol", "1e-10")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0.0
        assert payload["enclosure"]["lo"] == 0.0
        assert payload["enclosure"]["hi"] == 0.0

    def test_ratio(self, capsys):
        code, out, _ = invoke(capsys, "ratio", "--a", "1.0", "--b", "0.0",
                              "--tol", "1e-9")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2.0, abs=1e-8)

    def test_arc_and_sector(self, capsys):
        code, out, _ = invoke(capsys, "arc", "--a", "0.6", "--b", "0.0")
        assert code == 0
        arc = json.loads(out)
        assert arc["enclosure"]["lo"] <= math.asin(0.6) <= arc["enclosure"]["hi"]
        code, out, _ = invoke(capsys, "sector", "--a", "0.6", "--b", "0.0")
        sec = json.loads(out)
        assert sec["enclosure"]["lo"] <= math.asin(0.6) / 2 <= sec["enclosure"]["hi"]

    def test_sin(self, capsys):
        code, out, _ = invoke(capsys, "sin", "0.5235987755982989")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.5, abs=1e-9)
        assert abs(payload["residual"]) <= 1e-10

    def test_partition_compare(self, capsys):
        code, out, _ = invoke(capsys, "partition-compare", "--a", "0.9",
                              "--b", "0.1", "--tol", "1e-8", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["limits"]) == {"bisection", "ordinate_uniform", "random"}
        assert payload["max_pairwise_delta"] <= 1e-6

    def test_additivity(self, capsys):
        code, out, _ = invoke(capsys, "additivity", "--a", "1.0", "--m", "0.6",
                              "--b", "0.0", "--tol", "1e-9")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["arc"]["delta"]) <= 1e-8
        assert abs(payload["sector"]["delta"]) <= 5e-9

    def test_json_round_trip_identity(self, capsys):
        _, out, _ = invoke(capsys, "arc", "--a", "0.8", "--b", "0.2")
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out


class TestCsvOutput:
    def test_fixed_columns(self, capsys):
        code, out, _ = invoke(capsys, "arc", "--a", "1.0", "--b", "0.0",
                              "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        # every data row parses as 8 floats
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(CSV_COLUMNS)
            [float(c) for c in cells]

    def test_name_value_shape(self, capsys):
        _, out, _ = invoke(capsys, "ratio", "--a", "1.0", "--b", "0.0",
                           "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "name,value"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["ratio", "arc_mid", "sector_mid"]


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys):
        argv = ("partition-compare", "--a", "0.9", "--b", "0.1",
                "--tol", "1e-8", "--seed", "17")
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second


class TestExitCodes:
    def test_domain_error(self, capsys):
        code, out, err = invoke(capsys, "arcsin", "2.0")
        assert code == 1
        assert out == ""
        assert "domain error" in err

    def test_ratio_zero_tolerance(self, capsys):
        code, out, err = invoke(capsys, "ratio", "--a", "0.9", "--b", "0.1", "--tol", "0")
        assert code == 1
        assert out == ""
        assert "tolerance must be positive" in err

    def test_non_convergence(self, capsys, monkeypatch):
        monkeypatch.setattr(arclength_module, "_MAX_LEVEL", 1)
        code, out, err = invoke(capsys, "arc", "--a", "1.0", "--b", "0.0",
                                "--tol", "1e-13")
        assert code == 2
        assert "did not converge" in err
        assert "last bracket" in err

    # each ladder command with arguments whose first run needs more than level 0
    @pytest.mark.parametrize("argv", [
        ["pi"], ["arc", "--a", "0.9", "--b", "0.2"], ["arcsin", "0.9"], ["sin", "1.2"],
        ["sector", "--a", "0.9", "--b", "0.2"], ["ratio", "--a", "0.9", "--b", "0.2"],
        ["additivity", "--a", "0.9", "--m", "0.5", "--b", "0.2"]],
        ids=lambda argv: argv[0])
    def test_the_backstop_exits_2_on_every_ladder_command(self, capsys, monkeypatch,
                                                         argv):
        monkeypatch.setattr(arclength_module, "_MAX_LEVEL", 0)
        # pi reads the quarter arc's levels 0 to 2, run on import, at any tol
        # one of them meets; at 8e-15, below level 2's width and above level
        # 0's floor, pi runs the ladder
        tol = "8e-15" if argv == ["pi"] else "1e-12"
        code, out, err = invoke(capsys, *argv, "--tol", tol)
        assert (code, out) == (2, "")
        assert "did not converge" in err and "last bracket" in err

    def test_usage_errors(self, capsys):
        code, _, err = invoke(capsys, "arc", "--a", "1.0")  # missing --b
        assert code == 64
        assert "usage" in err
        code, _, err = invoke(capsys, "no-such-command")
        assert code == 64
        code, _, err = invoke(capsys, "pi", "--no-such-flag")
        assert code == 64

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0


def test_module_entry_point_subprocess():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "chordtrig", "pi", "--tol", "1e-10"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["enclosure"]["lo"] <= math.pi <= payload["enclosure"]["hi"]


# One valid argv tail per command, for the flag checks below.
COMMAND_ARGS = {
    "pi": [],
    "arc": ["--a", "0.9", "--b", "0.2"],
    "arcsin": ["0.5"],
    "sin": ["0.5"],
    "sector": ["--a", "0.9", "--b", "0.2"],
    "ratio": ["--a", "0.9", "--b", "0.2"],
    "partition-compare": ["--a", "0.9", "--b", "0.2", "--tol", "1e-6"],
    "additivity": ["--a", "0.9", "--m", "0.5", "--b", "0.2"],
}


class _Reads:
    """Stands in for the parsed arguments and records which ones are read."""

    def __init__(self, namespace):
        self._namespace = namespace
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._namespace, name)


class TestCommandFlags:
    def test_dead_flags_are_usage_errors(self, capsys):
        code, out, err = invoke(capsys, "pi", "--seed", "1")
        assert (code, out) == (64, "") and "unrecognized arguments: --seed 1" in err
        code, out, err = invoke(capsys, "partition-compare", "--a", "0.9", "--b", "0.1",
                                "--max-iter", "3")
        assert (code, out) == (64, "") and "unrecognized arguments: --max-iter 3" in err

    # no command takes a level cap: every ladder run ends by level 4 (arclength)
    @pytest.mark.parametrize("command, flag", [
        ("pi", "--seed 1"),
        *((command, "--max-iter 3") for command in sorted(COMMAND_ARGS))])
    def test_dead_flag_error_shows_the_command_usage(self, capsys, command, flag):
        code, out, err = invoke(capsys, command, *COMMAND_ARGS[command], *flag.split())
        assert (code, out) == (64, "") and err.startswith(f"usage: chordtrig {command} ")
        assert f"chordtrig {command}: error: unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("argv", [["--tol", "1e-6", "pi"], ["--seed", "1", "pi"]])
    def test_flag_before_the_command_is_reported_as_such(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (64, "")
        assert "options go after the command" in err and "invalid choice" not in err

    def test_partition_compare_reads_its_seed(self, capsys):
        # at 1e-12 the random scheme refines past its seedless one-chord grid
        argv = ["partition-compare", "--a", "1", "--b", "0", "--tol", "1e-12"]
        code, out, _ = invoke(capsys, *argv, "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 3
        _, other, _ = invoke(capsys, *argv, "--seed", "4")
        assert json.loads(other)["limits"]["random"] != payload["limits"]["random"]

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    def test_pi_enclosure_is_pi_constant(self, capsys, tol):
        code, out, _ = invoke(capsys, "pi", "--tol", repr(tol))
        assert code == 0
        assert json.loads(out)["enclosure"] == pi_constant(tol).to_dict()

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_help_lists_exactly_the_flags_read(self, capsys, command):
        code, out, _ = invoke(capsys, command, "--help")
        assert code == 0
        names = re.findall(r"^  (?:-h, )?(?:--)?([a-z][a-z-]*)", out, re.MULTILINE)
        listed = {name.replace("-", "_") for name in names} - {"help"}
        args = cli._build_parser().parse_args([command, *COMMAND_ARGS[command]])
        reads = _Reads(args)
        args.handler(reads)
        # run() itself reads --format to choose the output
        assert listed == reads.read - {"command"} | {"format"}


def test_handlers_only_format():
    """Each command prints one library run: no handler but ``sin``'s, which
    adds an ``arcsin`` run and its residual, applies an arithmetic operator
    or calls ``max`` or ``min``."""
    with open(cli.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_") and node.name != "_cmd_sin"]
    assert len(handlers) == len(cli._COMMANDS) - 1
    for handler in handlers:
        for node in ast.walk(handler):
            assert not isinstance(node, ast.BinOp), (handler.name, ast.unparse(node))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("max", "min"), (handler.name, ast.unparse(node))
