"""Replay every golden CLI argv through a command, each in a child process.

    python tests/replay_golden.py COMMAND [ARG ...]

runs each argv of ``data/cli_golden.json`` and ``data/partition_golden.json``
as ``COMMAND ARG ... argv`` and exits 1, listing each argv whose exit code or
stdout bytes differ from the recorded ones. CI runs it on the console script
of a venv that has chordtrig installed without extras, so without numpy
(``bin/chordtrig``); from a checkout, ``PYTHONPATH=src python
tests/replay_golden.py python -m chordtrig`` does the same. The script
needs only the standard library. ``test_golden.py`` checks the same list
in-process.
"""

import json
import subprocess
import sys
from pathlib import Path

GOLDEN = tuple(Path(__file__).resolve().parent / "data" / name
               for name in ("cli_golden.json", "partition_golden.json"))


def cases(paths=GOLDEN):
    """The golden records of ``paths``, in order: each an ``argv``, its
    ``exit_code`` and its ``stdout``."""
    return [case for path in paths for case in json.loads(path.read_text("utf-8"))]


def replay(command, paths=GOLDEN):
    """The number of golden argv in ``paths``, and the argv among them whose
    run through ``command`` differs from the golden."""
    records = cases(paths)
    differ = []
    for case in records:
        done = subprocess.run([*command, *case["argv"]], capture_output=True)
        if (done.returncode, done.stdout) != (case["exit_code"],
                                              case["stdout"].encode("utf-8")):
            differ.append(" ".join(case["argv"]))
    return len(records), differ


def main(command) -> int:
    if not command:
        print("usage: python tests/replay_golden.py COMMAND [ARG ...]", file=sys.stderr)
        return 2
    total, differ = replay(command)
    print(f"{total - len(differ)} of {total} golden argv match through {' '.join(command)}")
    for argv in differ:
        print(f"differs: {argv}")
    return 1 if differ or not total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
