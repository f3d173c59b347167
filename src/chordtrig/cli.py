"""Command line surface for the quarter-circle trigonometry kernel.

Every computation is exposed as a subcommand that prints a machine-readable
result to stdout (JSON object by default, CSV with ``--format csv``) and
keeps stderr for diagnostics. Arcs are always named by their endpoint
ordinates (``--a`` / ``--b`` as y-values); abscissae never appear on the
command line.

Each subcommand prints the fields of one library run, named below, and
applies no arithmetic to them; ``sin`` alone adds an ``arcsin`` run of its
value and the residual. The input fields echo the arguments as parsed, and
the report holds the stored point: ``arc --a 1 --b -0.0`` prints
``"b": -0.0`` beside ``"b_ordinate": 0.0``, as a point stores -0.0 as 0.0.

Subcommands:
    pi                  enclosure of pi (inverse.pi_run)
    arc                 certified arc length between two ordinates (arc_length)
    arcsin Y            enclosure of arcsin(Y) (arcsin)
    sin X               ordinate with arc length X (sin)
    sector              certified sector area (sector_area)
    ratio               arc length / sector area, ~2 (sector.ratio_runs)
    partition-compare   limits of the three partition schemes
                        (partitions.compare_schemes)
    additivity          whole arc vs split arc, lengths and areas
                        (additivity_check)

CSV columns for the iteration table (fixed order): m, segment_length,
height, total_length, inner_area, outer_area, enclosure_lo, enclosure_hi.
Commands without an iteration table emit name,value rows.

Exit codes: 0 success, 1 domain error, 2 non-convergence, 64 usage.
"""

import argparse
import json
import sys

from .arclength import arc_length
from .errors import ConvergenceError, DomainError, PrecisionFloorError
from .geometry import point_from_ordinate
from .inverse import arcsin, pi_run, sin
from .report import CSV_COLUMNS, ConvergenceReport
from .sector import ratio_runs, sector_area

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NO_CONVERGENCE = 2
EXIT_USAGE = 64


def _report_csv(report: ConvergenceReport) -> list[str]:
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        cells = [str(row.m)] + [repr(getattr(row, name)) for name in CSV_COLUMNS[1:]]
        lines.append(",".join(cells))
    return lines


def _pairs_csv(pairs) -> list[str]:
    return ["name,value"] + [f"{name},{value!r}" for name, value in pairs]


def _payload(args, inputs, **fields) -> dict:
    """A command's JSON object: its name, the ``inputs`` read from ``args``,
    the tolerance, then ``fields``."""
    return {"command": args.command, **{name: getattr(args, name) for name in inputs},
            "tolerance": args.tol, **fields}


def _run_fields(enc, rep) -> dict:
    return {"value": enc.mid, "enclosure": enc.to_dict(), "report": rep.to_dict()}


def _ladder_run(args, inputs, enc, rep):
    """Output of a command that is one ladder run: JSON and iteration table."""
    return _payload(args, inputs, **_run_fields(enc, rep)), _report_csv(rep)


def _endpoints(args):
    return point_from_ordinate(args.a), point_from_ordinate(args.b)


def _cmd_pi(args):
    return _ladder_run(args, (), *pi_run(args.tol))


def _cmd_arc(args):
    return _ladder_run(args, ("a", "b"), *arc_length(*_endpoints(args), args.tol))


def _cmd_arcsin(args):
    return _ladder_run(args, ("y",), *arcsin(args.y, args.tol))


def _cmd_sin(args):
    value = sin(args.x, args.tol)
    try:
        enc, rep = arcsin(value, args.tol)
    except PrecisionFloorError as err:  # x^3 <= tol / 2 needs no arcsin to meet tol
        enc, rep = err.enclosure, err.report
    payload = _payload(args, ("x",), value=value, residual=enc.mid - args.x,
                       arcsin_of_value=enc.to_dict(), report=rep.to_dict())
    return payload, _report_csv(rep)


def _cmd_sector(args):
    return _ladder_run(args, ("a", "b"), *sector_area(*_endpoints(args), args.tol))


def _cmd_ratio(args):
    ratio, arc, sector = ratio_runs(*_endpoints(args), args.tol)
    payload = _payload(args, ("a", "b"), value=ratio, arc=_run_fields(*arc),
                       sector=_run_fields(*sector))
    pairs = [("ratio", ratio), ("arc_mid", arc[0].mid), ("sector_mid", sector[0].mid)]
    return payload, _pairs_csv(pairs)


def _cmd_partition_compare(args):
    from .partitions import compare_schemes

    limits, spread = compare_schemes(*_endpoints(args), args.tol, args.seed)
    payload = _payload(args, ("a", "b"), seed=args.seed, limits=limits,
                       max_pairwise_delta=spread)
    return payload, _pairs_csv([*limits.items(), ("max_pairwise_delta", spread)])


def _cmd_additivity(args):
    from .partitions import additivity_check

    check = additivity_check(point_from_ordinate(args.a), point_from_ordinate(args.m),
                             point_from_ordinate(args.b), args.tol)
    payload = _payload(args, ("a", "m", "b"),
                       arc={"whole": check.arc_whole, "parts": check.arc_parts,
                            "delta": check.arc_delta},
                       sector={"whole": check.sector_whole, "parts": check.sector_parts,
                               "delta": check.sector_delta})
    pairs = [(f"{kind}_{name}", value)
             for kind in ("arc", "sector") for name, value in payload[kind].items()]
    return payload, _pairs_csv(pairs)


def _ordinate(flag, help_text):
    return flag, {"type": float, "required": True, "help": help_text}


# A command's arguments besides --tol and --format, which every command takes,
# as (name, add_argument keywords); each command lists only the flags it reads.
_SEED = ("--seed", {"type": int, "default": 0,
                    "help": "seed for random partition schemes (default 0)"})
_A = _ordinate("--a", "first endpoint ordinate")
_B = _ordinate("--b", "second endpoint ordinate")

# command -> (help, arguments, handler returning the JSON payload and CSV lines)
_COMMANDS = {
    "pi": ("enclosure of pi", [], _cmd_pi),
    "arc": ("certified arc length", [_A, _B], _cmd_arc),
    "arcsin": ("enclosure of arcsin(y)", [("y", {"type": float})], _cmd_arcsin),
    "sin": ("ordinate with arc length x", [("x", {"type": float})], _cmd_sin),
    "sector": ("certified sector area", [_A, _B], _cmd_sector),
    "ratio": ("arc length over sector area", [_A, _B], _cmd_ratio),
    "partition-compare": ("limits of the three partition schemes", [_SEED, _A, _B],
                          _cmd_partition_compare),
    "additivity": ("whole arc vs split arc",
                   [_A, _ordinate("--m", "split point ordinate"), _B],
                   _cmd_additivity),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-10,
                        help="bracket tolerance (default 1e-10)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")

    parser = argparse.ArgumentParser(prog="chordtrig", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for name, options in arguments:
            p.add_argument(name, **options)
        p.set_defaults(handler=handler, parser=p)
    return parser


def run(argv=None) -> int:
    """Parse ``argv``, execute the subcommand, print the result; return the exit code."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            parser.error(f"options go after the command, got {argv[0]} before it")
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the usage of the command they were given to
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        payload, csv_lines = args.handler(args)
    except DomainError as exc:
        sys.stderr.write(f"chordtrig: domain error: {exc}\n")
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        sys.stderr.write(f"chordtrig: did not converge: {exc}\n")
        if exc.enclosure is not None:
            sys.stderr.write(
                f"chordtrig: last bracket [{exc.enclosure.lo!r}, {exc.enclosure.hi!r}]\n")
        return EXIT_NO_CONVERGENCE
    if args.format == "csv":
        sys.stdout.write("\n".join(csv_lines) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
