"""The command line at the limits of what it certifies: a tolerance below
the binary64 floor exits 1 and names the floor, and ``partition-compare``
takes a seed beyond 64 bits."""

import json

import pytest

from chordtrig.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["partition-compare", "--a", "1", "--b", "0", "--tol", "1e-17"],
    ["sin", "1.5707953267948966", "--tol", "1e-17"],
])
def test_a_tol_below_the_floor_exits_1_naming_the_floor(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert "binary64 floor" in err


def test_a_seed_beyond_64_bits_drives_the_random_grid(capsys):
    code, out, _ = invoke(capsys, "partition-compare", "--a", "0.9", "--b", "0.1",
                          "--tol", "1e-12", "--seed", str(2 ** 70))
    assert code == 0 and json.loads(out)["seed"] == 2 ** 70
