"""``replay_golden.py``, the golden replay CI runs on the installed console
script, flags exactly the argv whose exit code or stdout bytes differ from
their golden record. Here it drives ``python -m chordtrig`` on a copy of two
golden records and of each with one recorded fact changed."""

import json
import os
import sys
from pathlib import Path

from replay_golden import GOLDEN, main, replay

SRC = Path(__file__).resolve().parent.parent / "src"
COMMAND = [sys.executable, "-m", "chordtrig"]


def test_flags_a_changed_stdout_byte_and_a_changed_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cli = json.loads(GOLDEN[0].read_text())[0]  # pi, printing JSON
    part = json.loads(GOLDEN[1].read_text())[-1]  # a tol below the floor: exit 1
    byte = dict(cli, stdout=cli["stdout"].replace("1", "2", 1))
    code = dict(part, exit_code=0)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps([cli, part, byte, code]))
    assert replay(COMMAND, [path]) == (4, [" ".join(byte["argv"]), " ".join(code["argv"])])


def test_a_missing_command_is_a_usage_error(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.startswith("usage: python tests/replay_golden.py COMMAND")
