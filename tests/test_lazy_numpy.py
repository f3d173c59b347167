"""No entry point loads numpy, only partition work loads
chordtrig.partitions, a family of public names loads only the modules it
calls, nothing loads dataclasses or typing, and importing chordtrig.inverse
runs the quarter arc's ladder once.

Each case runs in a fresh interpreter, because this test process has
numpy and dataclasses loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

from chordtrig import point_from_ordinate, scheme_limit

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

SCALAR_CALLS = """
import contextlib, io, json, sys
import chordtrig as ct
from chordtrig.cli import run

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        run(list(argv))

a, m, b = (ct.point_from_ordinate(y) for y in (0.9, 0.5, 0.1))
ct.arc_length(a, b, 1e-10)
ct.sector_area(a, b, 1e-10)
ct.arcsin(0.5, 1e-10)
ct.pi_constant(1e-10)
ct.sin(0.5, 1e-8)
ct.verify_ratio(a, b, 1e-10)
with open(sys.argv[1]) as golden:
    cases = json.load(golden)
for case in cases:
    assert case["argv"][0] != "partition-compare"
    if case["argv"][0] != "additivity":
        quiet(case["argv"])
print("chordtrig.partitions" in sys.modules)
"""

NON_PARTITION_CALLS = SCALAR_CALLS + """
ct.additivity_check(a, m, b, 1e-10)
for case in cases:
    if case["argv"][0] == "additivity":
        quiet(case["argv"])
print("numpy" in sys.modules)
"""

PARTITION_WORK = """
import contextlib, io, sys
import chordtrig as ct
from chordtrig.cli import run

before = "numpy" in sys.modules
a, b = ct.point_from_ordinate(0.9), ct.point_from_ordinate(0.1)
value = ct.scheme_limit(a, b, "random", 1e-9, seed=0)
for scheme in ct.SCHEMES:
    ct.scheme_limit(a, b, scheme, 1e-12, seed=0)
    ct.make_partition(a, b, scheme, 4, seed=0)
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["partition-compare", "--a", "0.9", "--b", "0.1", "--tol", "1e-9"]) == 0
print(before, "numpy" in sys.modules, repr(value))
"""

LOADED_MODULES = """
import sys
import chordtrig as ct
{calls}
print("loaded:", *sorted(name for name in sys.modules if name.startswith("chordtrig.")))
"""


def _last_line(code, *args, flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_scalar_entry_points_never_import_partitions():
    assert _last_line(SCALAR_CALLS, str(GOLDEN)) == "False"


def test_non_partition_entry_points_never_load_numpy():
    assert _last_line(NON_PARTITION_CALLS, str(GOLDEN)) == "False"


def test_partition_work_never_loads_numpy():
    """Limits, builders and partition-compare, in every scheme."""
    expected = scheme_limit(point_from_ordinate(0.9), point_from_ordinate(0.1),
                            "random", 1e-9, seed=0)
    assert _last_line(PARTITION_WORK) == f"False False {expected!r}"


def test_no_entry_point_loads_dataclasses():
    code = (NON_PARTITION_CALLS + 'scalar_inspect = "inspect" in sys.modules\n'
            + PARTITION_WORK + 'print(scalar_inspect, "dataclasses" in sys.modules)')
    assert _last_line(code, str(GOLDEN)) == "False False"


def test_no_entry_point_loads_typing():
    """Run under -S: ``site`` itself can load typing (a .pth file that imports
    it does), which would hide an import from this package."""
    code = NON_PARTITION_CALLS + PARTITION_WORK + 'print("typing" in sys.modules)'
    assert _last_line(code, str(GOLDEN), flags=("-S",)) == "False"


def test_importing_inverse_runs_one_ladder():
    code = (
        "import chordtrig.arclength as arclength\n"
        "runs, climb = [], arclength._climb\n"
        "arclength._climb = lambda *args: runs.append(args[0]) or climb(*args)\n"
        "import chordtrig.inverse\n"
        "print(runs)")
    assert _last_line(code) == "[1.0]"


def _loaded_modules(calls):
    """The chordtrig submodules a fresh interpreter holds after ``calls``."""
    return set(_last_line(LOADED_MODULES.format(calls=calls)).split()[1:])


def test_import_alone_loads_no_submodule():
    assert _loaded_modules("") == set()


def test_inverse_names_load_neither_sector_nor_partitions():
    loaded = _loaded_modules("ct.sin(0.5, 1e-8)\nct.arcsin(0.5, 1e-10)\nct.pi_constant(1e-10)")
    assert "chordtrig.inverse" in loaded
    assert not loaded & {"chordtrig.sector", "chordtrig.partitions"}


def test_partition_names_load_neither_inverse_nor_sector():
    loaded = _loaded_modules(
        "a, b = ct.point_from_ordinate(0.9), ct.point_from_ordinate(0.1)\n"
        "ct.scheme_limit(a, b, 'random', 1e-9, seed=0)\n"
        "ct.make_partition(a, b, 'random', 4, seed=0)")
    assert "chordtrig.partitions" in loaded
    assert not loaded & {"chordtrig.inverse", "chordtrig.sector"}


def test_dir_lists_every_public_name_before_first_use():
    assert _loaded_modules("assert set(ct.__all__) <= set(dir(ct))") == set()
