"""Command-line surface: verify / crossover / monotone / solve / pi-approx /
coefficients, with json, csv, and text output.

Exit codes: 0 everything held (or informational command completed),
1 a violation or counterexample was found, 2 usage or domain error or any
other failure that is not a verdict (including a range too large to fit
in memory), 3 incomplete or undecidable at strict precision.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import bounds, conjectures, exponent_solver, panaitopol, report
from .bounds import NoCrossoverError, Status
from .conjectures import ReportStatus
from .sieve import CapacityError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3

CONJECTURES = (
    "legendre", "oppermann", "brocard",
    "andrica", "kourbatov", "firoozbakht", "cramer", "gap-bounds",
    "smarandache-ratio", "smarandache-b", "smarandache-c", "smarandache-d",
    "shanks-trend",
)
# the checkers that take --start
GAP_CHECKS = ("andrica", "kourbatov", "firoozbakht", "cramer", "gap-bounds")


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
    p.add_argument("--limit", type=int, default=10**6,
                   help="upper bound on p (pair scans) or n (interval scans)")
    p.add_argument("--start", type=int, default=None,
                   help="lower bound on p for gap-bound scans")
    p.add_argument("--a", type=float, default=0.5,
                   help="exponent for smarandache-b / smarandache-d")
    p.add_argument("--k", type=int, default=2,
                   help="root order for smarandache-c")
    p.add_argument("--n-start", type=int, default=1,
                   help="first prime index for smarandache-d")
    p.add_argument("--window", type=int, default=10**4,
                   help="window size for shanks-trend")

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
    p.add_argument("target", choices=("a0", "max", "pair"))
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


# most characters handed to one write: a text stream encodes what it is
# given whole, so a larger slice would cost one more copy of its size
WRITE_SLICE = 1 << 20


def _emit(payload, args) -> None:
    text = report.serialize(payload, args.format, no_timing=args.no_timing)
    if args.out is None:
        _write(sys.stdout, text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write(fh, text)


def _write(fh, text: str) -> None:
    for i in range(0, len(text), WRITE_SLICE):
        fh.write(text[i:i + WRITE_SLICE])


def _report_exit(rep: conjectures.ConjectureReport) -> int:
    if rep.status is ReportStatus.VIOLATION_FOUND:
        return EXIT_VIOLATION
    if rep.status is ReportStatus.INCOMPLETE:
        return EXIT_INCOMPLETE
    return EXIT_OK


def _run_verify(args) -> int:
    name = args.conjecture
    if args.start is not None and name not in GAP_CHECKS:
        raise ValueError("--start applies only to the gap-bound checks")
    if name == "legendre":
        rep = conjectures.check_legendre(args.limit)
    elif name == "oppermann":
        rep = conjectures.check_oppermann(args.limit)
    elif name == "brocard":
        rep = conjectures.check_brocard(args.limit)
    elif name in GAP_CHECKS:
        which = conjectures.GAP_BOUNDS if name == "gap-bounds" else (name,)
        start = args.start if args.start is not None else 2
        if (args.start is not None and start < conjectures.KOURBATOV_FLOOR
                and name in ("kourbatov", "cramer")):
            print(
                f"warning: --start {start} is below the validity floor "
                f"{conjectures.KOURBATOV_FLOOR}; sub-floor pairs are skipped,"
                " not checked",
                file=sys.stderr,
            )
        rep = conjectures.check_gap_bounds(args.limit, which, start=start)
    elif name == "smarandache-ratio":
        rep = conjectures.check_smarandache_ratio(args.limit)
    elif name == "smarandache-b":
        rep = conjectures.check_smarandache_B(args.limit, args.a)
    elif name == "smarandache-c":
        rep = conjectures.check_smarandache_C(args.limit, args.k)
    elif name == "smarandache-d":
        witness = conjectures.find_smarandache_D_counterexample(
            args.a, args.n_start
        )
        if witness is None:
            rep = conjectures.ConjectureReport(
                "smarandache-d",
                f"a={args.a!r}, n >= {args.n_start}",
                status=ReportStatus.INCOMPLETE,
            )
            _emit(rep.finalize(), args)
            return EXIT_INCOMPLETE
        _emit(witness, args)
        return EXIT_VIOLATION
    else:  # shanks-trend
        rows = conjectures.check_shanks_trend(args.limit, args.window)
        _emit(rows, args)
        return EXIT_OK
    _emit(rep, args)
    return _report_exit(rep)


def _run_solve(args) -> int:
    if args.target == "pair":
        if args.p is None or args.q is None:
            raise ValueError("solve pair requires --p and --q")
        _emit(exponent_solver.solve_exponent(args.p, args.q), args)
        return EXIT_OK
    if args.target == "a0":
        sol, _ = exponent_solver.min_exponent(args.limit)
    else:
        sol = exponent_solver.max_exponent(args.limit)
    _emit(sol, args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "crossover":
            try:
                result = bounds.crossover_scan(args.predicate, args.lo, args.hi)
            except NoCrossoverError as exc:
                print(f"no crossover: {exc}", file=sys.stderr)
                return EXIT_INCOMPLETE
            _emit(result, args)
            return EXIT_OK
        if args.command == "monotone":
            verdict = bounds.monotone_scan(args.sequence, args.lo, args.hi)
            _emit(verdict, args)
            if verdict.status is Status.FAILS:
                return EXIT_VIOLATION
            if verdict.status is Status.UNCERTAIN:
                return EXIT_INCOMPLETE
            return EXIT_OK
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "pi-approx":
            rows = panaitopol.error_table(args.x, args.terms)
            _emit(rows, args)
            return EXIT_OK
        if args.command == "coefficients":
            _emit(panaitopol.coefficients(args.n), args)
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
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
