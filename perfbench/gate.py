"""Correctness gate: every invocation's exit code and result fields are
checked against values settled by oracles independent of primegaps.

Oracles: `sympy.primepi` and sympy's own sieve for prime counts and prime
pairs; Nicely's table of maximal prime gaps for the gap extremes; mpmath at
30 digits for the exponent root and the pi(x) series; the paper's constant
a0 = 0.567148... at the pair (113, 127).  A few extremes no cheap oracle
settles (Legendre and Brocard interval minima) are checked only at the
default seed, against values recorded in DEFAULT_REFERENCE.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath
import numpy as np
import sympy

from workloads import B_EXPONENT, DEFAULT_SEED, PI_TERMS, Invocation

EXIT_OK, EXIT_VIOLATION = 0, 1

# Maximal prime gaps (gap, first prime p) up to 1.3e9, from T. R. Nicely's
# table of first occurrences; the gap after p is the largest below p's
# successor.  The Cramér-ratio maximum over p >= 29 also sits on a record,
# since between records the gap is bounded while (ln p)^2 grows.
MAXIMAL_GAPS = (
    (1, 2), (2, 3), (4, 7), (6, 23), (8, 89), (14, 113), (18, 523),
    (20, 887), (22, 1129), (34, 1327), (36, 9551), (44, 15683), (52, 19609),
    (72, 31397), (86, 155921), (96, 360653), (112, 370261), (114, 492113),
    (118, 1349533), (132, 1357201), (148, 2010733), (154, 4652353),
    (180, 17051707), (210, 20831323), (220, 47326693), (222, 122164747),
    (234, 189695659), (248, 191912783), (250, 387096133), (282, 436273009),
    (288, 1294268491),
)
KOURBATOV_FLOOR = 29
SMALL_PRIMES_BELOW_FLOOR = 9  # 2, 3, ..., 23

# Panaitopol's coefficients k_1..k_4 (OEIS A233824).
PANAITOPOL_K = (1, 3, 13, 71)

# The exponent equation q^x - p^x = 1 has its least root at (113, 127).
A0_PAIR = (113, 127)

# Recorded at the default seed and cross-checked against the oracles above
# where one exists (see test_perfbench.py).
DEFAULT_REFERENCE = {
    "pi_1e9": 50_847_534,
    "gap_bounds_checked": 65_009_282,
    "b_checked": 1_270_607,
    "b_violations": 603_560,
    "b_first_witness": (2, 3, 5),
    "b_last_witness": (1_270_606, 19_999_981, 19_999_999),
    "legendre_extremes": {"min_interval_count": 2, "min_interval_n": 1},
    "brocard_extremes": {
        "min_interval_count": 5, "min_interval_n": 2,
        "decomposition_applies_everywhere": True,
        "segment1_min_count": 1, "segment1_min_n": 2,
        "segment2_min_count": 1, "segment2_min_n": 2,
        "segment3_min_count": 2, "segment3_min_n": 2,
        "segment4_min_count": 1, "segment4_min_n": 2,
    },
}


# ---------------------------------------------------------------------------
# oracles


@functools.lru_cache(maxsize=None)
def primepi(x: int) -> int:
    return int(sympy.primepi(x))


def pairs_below(limit: int) -> tuple:
    """(n, p, q) arrays of every consecutive-prime pair with p < limit."""
    sympy.sieve.extend(limit)
    p = np.fromiter(sympy.sieve.primerange(2, limit), dtype=np.int64)
    q = np.append(p[1:], int(sympy.nextprime(int(p[-1]))))
    return np.arange(1, p.size + 1, dtype=np.int64), p, q


def record_gap(limit: int) -> tuple:
    """The first maximal gap with p < limit, as (gap, p)."""
    if limit > MAXIMAL_GAPS[-1][1]:
        raise ValueError(f"maximal-gap table ends before {limit}")
    return max(r for r in MAXIMAL_GAPS if r[1] < limit)


def record_cramer(limit: int) -> tuple:
    """The pair (gap, p), 29 <= p < limit, with the largest gap / (ln p)^2."""
    recs = [r for r in MAXIMAL_GAPS if KOURBATOV_FLOOR <= r[1] < limit]
    return max(recs, key=lambda r: r[0] / math.log(r[1]) ** 2)


@functools.lru_cache(maxsize=None)
def smarandache_b_witnesses(limit: int, a: str) -> np.ndarray:
    """Rows (n, p, q) with q^a - p^a >= 1 and p < limit.

    Evaluated as exp(a ln q) - exp(a ln p), a different float path from the
    program's q**a - p**a; pairs within 1e-6 of the bound are re-decided by
    mpmath at 50 digits.
    """
    n, p, q = pairs_below(limit)
    af = float(a)
    margin = 1.0 - (np.exp(af * np.log(q)) - np.exp(af * np.log(p)))
    bad = margin <= 0.0
    with mpmath.workdps(50):
        am = mpmath.mpf(a)
        for i in np.flatnonzero(np.abs(margin) < 1e-6):
            exact = mpmath.power(int(q[i]), am) - mpmath.power(int(p[i]), am)
            bad[i] = exact >= 1
    return np.stack([n[bad], p[bad], q[bad]], axis=1)


@functools.lru_cache(maxsize=None)
def a0_root() -> float:
    p, q = A0_PAIR
    with mpmath.workdps(30):
        return float(mpmath.findroot(lambda x: q**x - p**x - 1, 0.567))


def series_approx(x: int, terms: int) -> float:
    with mpmath.workdps(30):
        lx = mpmath.log(x)
        denom = lx - 1 - sum(PANAITOPOL_K[i - 1] / lx**i
                             for i in range(1, terms + 1))
        return float(x / denom)


# ---------------------------------------------------------------------------
# checks


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _pair(rec: dict) -> tuple:
    return (rec["n"], rec["p"], rec["q"])


def _expect(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def _clean_report(errors: list, rep: dict) -> None:
    _expect(errors, "status", rep.get("status"), "AllHold")
    _expect(errors, "violations", rep.get("violations"), [])
    _expect(errors, "uncertain", rep.get("uncertain"), [])
    _expect(errors, "duration", rep.get("duration"), 0.0)


def check_gap_bounds(rep: dict, r: dict, seed: int) -> list:
    limit = r["gap_limit"]
    errors: list = []
    _clean_report(errors, rep)
    checked = 4 * primepi(limit - 1) - 2 * SMALL_PRIMES_BELOW_FLOOR
    _expect(errors, "checked_count", rep.get("checked_count"), checked)
    _expect(errors, "skipped_count", rep.get("skipped_count"),
            2 * SMALL_PRIMES_BELOW_FLOOR)
    if seed == DEFAULT_SEED:
        _expect(errors, "checked_count (reference)", rep.get("checked_count"),
                DEFAULT_REFERENCE["gap_bounds_checked"])
    ext = rep.get("extremes", {})
    want = {
        "max_gap": record_gap(limit),
        "max_cramer_ratio": record_cramer(limit),
        "max_andrica": (4, 7),      # sqrt(11) - sqrt(7)
        "max_ratio": (2, 3),        # 5 / 3
    }
    for key, (gap, p) in want.items():
        got = ext.get(key) or {}
        _expect(errors, f"extremes.{key}", _pair(got) if got else None,
                (primepi(p), p, p + gap))
    return errors


def check_a0(sol: dict, r: dict, seed: int) -> list:
    errors: list = []
    _expect(errors, "a0 pair", (sol.get("p"), sol.get("q")), A0_PAIR)
    x = sol.get("x", float("nan"))
    if not abs(x - a0_root()) <= 1e-12:
        errors.append(f"a0 root: got {x!r}, want {a0_root()!r}")
    return errors


def check_pi_approx(rows: list, r: dict, seed: int) -> list:
    x = r["pi_x"]
    exact = primepi(x)
    errors: list = []
    if seed == DEFAULT_SEED:
        _expect(errors, "pi(1e9) (reference)", exact,
                DEFAULT_REFERENCE["pi_1e9"])
    _expect(errors, "rows", [(row.get("x"), row.get("terms")) for row in rows],
            [(x, t) for t in PI_TERMS])
    for row in rows:
        t = row.get("terms")
        _expect(errors, f"exact[{t}]", row.get("exact"), exact)
        if t in PI_TERMS:
            approx = series_approx(x, t)
            if not _close(row.get("approx", 0.0), approx, 1e-12):
                errors.append(f"approx[{t}]: got {row.get('approx')!r}, "
                              f"want {approx!r}")
            rel = abs(approx - exact) / exact
            if not _close(row.get("rel_error", 0.0), rel, 1e-9):
                errors.append(f"rel_error[{t}]: got {row.get('rel_error')!r}, "
                              f"want {rel!r}")
    return errors


def check_legendre(rep: dict, r: dict, seed: int) -> list:
    errors: list = []
    _clean_report(errors, rep)
    _expect(errors, "checked_count", rep.get("checked_count"), r["legendre_n"])
    if seed == DEFAULT_SEED:
        _expect(errors, "extremes", rep.get("extremes"),
                DEFAULT_REFERENCE["legendre_extremes"])
    return errors


def check_brocard(rep: dict, r: dict, seed: int) -> list:
    errors: list = []
    _clean_report(errors, rep)
    _expect(errors, "checked_count", rep.get("checked_count"),
            r["brocard_n"] - 1)
    if seed == DEFAULT_SEED:
        _expect(errors, "extremes", rep.get("extremes"),
                DEFAULT_REFERENCE["brocard_extremes"])
    return errors


CSV_HEADER = ("conjecture_id,range,checked_count,skipped_count,status,"
              "duration,witness\n")


def check_smarandache_b_csv(path: str, r: dict, seed: int) -> list:
    """One row per violation, in order, each carrying the report summary."""
    limit = r["b_limit"]
    errors: list = []
    prefix = (f'smarandache-b,"pairs with p < {limit}, a={B_EXPONENT}",'
              f"{primepi(limit - 1)},0,ViolationFound,0.0")
    witnesses = []
    bad_rows = 0
    with open(path, encoding="utf-8") as fh:
        _expect(errors, "csv header", fh.readline(), CSV_HEADER)
        for line in fh:
            head, _, witness = line.rpartition(",")
            bad_rows += head != prefix
            witnesses.append(witness)
    if bad_rows:
        errors.append(f"{bad_rows} rows differ from the summary {prefix!r}")
    try:
        got = np.array(" ".join(witnesses).split(), dtype=np.int64)
        got = got.reshape(-1, 3)
    except ValueError:
        return errors + ["witness column is not n p q on every row"]
    want = smarandache_b_witnesses(limit, B_EXPONENT)
    if seed == DEFAULT_SEED:
        ref = DEFAULT_REFERENCE
        _expect(errors, "violations (reference)", len(got),
                ref["b_violations"])
        if len(got):
            _expect(errors, "first witness (reference)",
                    tuple(got[0].tolist()), ref["b_first_witness"])
            _expect(errors, "last witness (reference)",
                    tuple(got[-1].tolist()), ref["b_last_witness"])
    _expect(errors, "violation count", len(got), len(want))
    if len(got) == len(want) and not np.array_equal(got, want):
        first = int(np.flatnonzero((got != want).any(axis=1))[0])
        errors.append(f"witness {first}: got {got[first].tolist()}, "
                      f"want {want[first].tolist()}")
    return errors


JSON_CHECKS = {
    "gap-bounds": (EXIT_OK, check_gap_bounds),
    "a0": (EXIT_OK, check_a0),
    "pi-approx": (EXIT_OK, check_pi_approx),
    "legendre": (EXIT_OK, check_legendre),
    "brocard": (EXIT_OK, check_brocard),
}


def check(inv: Invocation, r: dict, seed: int, exit_code, path: str) -> list:
    """Mismatches of one invocation's exit code and output (empty: correct)."""
    if inv.kind == "smarandache-b":
        want_exit, errors = EXIT_VIOLATION, []
        try:
            errors = check_smarandache_b_csv(path, r, seed)
        except OSError as exc:
            errors = [f"output unreadable: {exc}"]
    else:
        want_exit, fn = JSON_CHECKS[inv.kind]
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            errors = fn(payload, r, seed)
        except (OSError, ValueError, KeyError, AttributeError,
                TypeError) as exc:
            errors = [f"output unreadable: {exc!r}"]
    if exit_code != want_exit:
        errors.insert(0, f"exit code {exit_code}, want {want_exit}")
    return errors
