"""The README's library example runs on the package as it stands, and every
number a comment gives is what the line beside it prints; each line of its
command-line example exits 0 with its command's JSON object."""

import contextlib
import io
import json
import re
from pathlib import Path

from chordtrig import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_what_its_comments_say():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.partition("#")[2].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments)
    # a comment's leading number, without a trailing "..."
    numbers = [(text, re.match(r"[0-9][0-9.]*", comment))
               for text, comment in zip(printed, comments)]
    checked = [(text, match.group().rstrip(".")) for text, match in numbers if match]
    assert len(checked) >= 2  # pi and sin
    for text, digits in checked:
        assert text.startswith(digits), (text, digits)


def test_command_line_example_runs_every_command(capsys):
    section = README.read_text().partition("## Command line\n")[2]
    block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    lines = [line.split() for line in block.splitlines()]
    assert sorted(argv[1] for argv in lines) == sorted(cli._COMMANDS)
    for program, *argv in lines:
        assert program == "chordtrig"
        assert cli.run(argv) == cli.EXIT_OK, argv
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict) and payload["command"] == argv[0]
