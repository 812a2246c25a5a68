"""Command-line surface: verify / crossover / monotone / solve / pi-approx /
coefficients, with json, csv, and text output.

Each subcommand is an entry of `COMMANDS`, a function from the parsed
arguments to a payload; `main` writes that payload's text once (in chunks
when it holds many witnesses) and maps the payload to an exit code with
`_exit_code`: 0 everything held (or informational command completed), 1 a
violation or counterexample was found, 3 incomplete or undecidable at
strict precision.  2 is a usage or domain error or any other failure that
is not a verdict (including a range too large to fit in memory).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import traceback

from . import (bounds, conjectures, exponent_solver, panaitopol, report,
               witnesses)
from .bounds import NoCrossoverError, Status
from .conjectures import ConjectureReport, DWitness, ReportStatus
from .sieve import CapacityError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3

def _gap_check(args) -> ConjectureReport:
    name = args.conjecture
    which = conjectures.GAP_BOUNDS if name == "gap-bounds" else (name,)
    start = args.start if args.start is not None else 2
    if (args.start is not None and start < bounds.KOURBATOV_FLOOR
            and {"kourbatov", "cramer"} & set(which)):
        print(
            f"warning: --start {start} is below the validity floor "
            f"{bounds.KOURBATOV_FLOOR}; sub-floor pairs are skipped,"
            " not checked",
            file=sys.stderr,
        )
    return conjectures.check_gap_bounds(args.limit, which, start=start)


def _smarandache_d(args):
    # no witness is no verdict: the scan ends incomplete
    return (conjectures.find_smarandache_D_counterexample(args.a, args.n_start)
            or ConjectureReport("smarandache-d",
                                f"a={args.a!r}, n >= {args.n_start}",
                                status=ReportStatus.INCOMPLETE))


# Every entry looks its checker up on the module when it runs, so a wrapper
# installed on the module attribute (for tracing) sees the call.  Next to it
# stand the options its checker reads; typing any other is refused.
VERIFY = {
    "legendre": (lambda a: conjectures.check_legendre(a.limit), ("limit",)),
    "oppermann": (lambda a: conjectures.check_oppermann(a.limit), ("limit",)),
    "brocard": (lambda a: conjectures.check_brocard(a.limit), ("limit",)),
    **{name: (_gap_check, ("limit", "start"))
       for name in (*conjectures.GAP_BOUNDS, "gap-bounds")},
    "smarandache-ratio": (
        lambda a: conjectures.check_smarandache_ratio(a.limit), ("limit",)),
    "smarandache-b": (
        lambda a: conjectures.check_smarandache_B(a.limit, a.a),
        ("limit", "a")),
    "smarandache-c": (
        lambda a: conjectures.check_smarandache_C(a.limit, a.k),
        ("limit", "k")),
    "smarandache-d": (_smarandache_d, ("a", "n_start")),
    "shanks-trend": (
        lambda a: conjectures.check_shanks_trend(a.limit, a.window),
        ("limit", "window")),
}
CONJECTURES = tuple(VERIFY)
# every verify option and its value when not typed (--start: see _gap_check)
VERIFY_DEFAULTS = {"limit": 10**6, "start": None, "a": 0.5, "k": 2,
                   "n_start": 1, "window": 10**4}


def _verify(args):
    run, reads = VERIFY[args.conjecture]
    unread = [option for option in VERIFY_DEFAULTS
              if getattr(args, option) is not None and option not in reads]
    if "start" in unread:
        raise ValueError("--start applies only to the gap-bound checks")
    if unread:
        raise ValueError(f"--{unread[0].replace('_', '-')} does not apply "
                         f"to {args.conjecture}")
    for option, default in VERIFY_DEFAULTS.items():
        if getattr(args, option) is None:
            setattr(args, option, default)
    return run(args)


def _solve_pair(args):
    if args.p is None or args.q is None:
        raise ValueError("solve pair requires --p and --q")
    return exponent_solver.solve_exponent(args.p, args.q)


SOLVE = {
    "a0": lambda a: exponent_solver.min_exponent(a.limit)[0],
    "max": lambda a: exponent_solver.max_exponent(a.limit),
    "pair": _solve_pair,
}

COMMANDS = {
    "verify": _verify,
    "crossover": lambda a: bounds.crossover_scan(a.predicate, a.lo, a.hi),
    "monotone": lambda a: bounds.monotone_scan(a.sequence, a.lo, a.hi),
    "solve": lambda a: SOLVE[a.target](a),
    "pi-approx": lambda a: panaitopol.error_table(a.x, a.terms),
    "coefficients": lambda a: panaitopol.coefficients(a.n),
}


def _exit_code(payload) -> int:
    """1 for a found violation or counterexample, 3 for an undecided
    report or verdict, 0 for everything else."""
    status = getattr(payload, "status", None)
    if (isinstance(payload, DWitness)
            or status in (ReportStatus.VIOLATION_FOUND, Status.FAILS)):
        return EXIT_VIOLATION
    if status in (ReportStatus.INCOMPLETE, Status.UNCERTAIN):
        return EXIT_INCOMPLETE
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primegaps",
        description="Numerical verification of prime-gap inequalities, "
                    "thresholds, and conjecture claims over finite ranges.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="text")
    common.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    common.add_argument("--no-timing", action="store_true",
                        help="replace durations with a stable placeholder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run a conjecture checker over a range")
    p.add_argument("conjecture", choices=CONJECTURES)
    # no parser defaults: _verify tells a typed option from an untyped one
    # and applies VERIFY_DEFAULTS
    p.add_argument("--limit", type=int,
                   help="upper bound on p (pair scans) or n (interval scans)")
    p.add_argument("--start", type=int,
                   help="lower bound on p for gap-bound scans")
    p.add_argument("--a", type=float,
                   help="exponent for smarandache-b / smarandache-d")
    p.add_argument("--k", type=int, help="root order for smarandache-c")
    p.add_argument("--n-start", type=int,
                   help="first prime index for smarandache-d")
    p.add_argument("--window", type=int, help="window size for shanks-trend")

    p = sub.add_parser("crossover", parents=[common],
                       help="find the least threshold from which a "
                            "registered predicate holds")
    p.add_argument("predicate", choices=sorted(bounds.PREDICATES))
    p.add_argument("--lo", type=int, default=2)
    p.add_argument("--hi", type=int, required=True)

    p = sub.add_parser("monotone", parents=[common],
                       help="check a registered sequence for strict increase")
    p.add_argument("sequence", choices=sorted(bounds.SEQUENCES))
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = sub.add_parser("solve", parents=[common],
                       help="solve q^x - p^x = 1 or scan for extremal roots")
    p.add_argument("target", choices=tuple(SOLVE))
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)

    p = sub.add_parser("pi-approx", parents=[common],
                       help="compare the series approximation with exact "
                            "prime counts")
    p.add_argument("--x", type=int, action="append", required=True)
    p.add_argument("--terms", type=int, action="append", required=True)

    p = sub.add_parser("coefficients", parents=[common],
                       help="print the exact expansion coefficients")
    p.add_argument("--n", type=int, default=6)
    return parser


def _emit(payload, args) -> None:
    """Write the payload's UTF-8 text to stdout or to `--out` as bytes, so
    lines end in a bare line feed on every platform.  The text of more than
    one chunk of witnesses is written chunk by chunk, as `report.render`
    makes it; a shorter text gains nothing from that and comes whole from
    `report.serialize`, whose bytes tracing counts."""
    held = sum(len(getattr(payload, name, ()))
               for name in ("violations", "uncertain"))
    chunks = (report.render(payload, args.format, no_timing=args.no_timing)
              if held > witnesses.CHUNK else
              [report.serialize(payload, args.format,
                                no_timing=args.no_timing).encode()])
    if args.out is None:
        sys.stdout.flush()  # text written before goes first
        sink = contextlib.nullcontext(sys.stdout.buffer)
    else:
        sink = open(args.out, "wb")
    with sink as fh:
        for chunk in chunks:
            fh.write(chunk)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        payload = COMMANDS[args.command](args)
        _emit(payload, args)
        return _exit_code(payload)
    except NoCrossoverError as exc:
        print(f"no crossover: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (ValueError, KeyError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # e.g. numpy refusing an array for an oversized range: no verdict
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # any other failure is no verdict either, and exit 1 would claim
        # a violation; the traceback shows where it came from
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
