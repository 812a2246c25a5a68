"""Inequality evaluators, the gap-bound catalog, a tri-state decision engine,
and integer scanners.

Every comparison lhs > rhs goes through the same policy, `settle`: its
binary64 margin lhs - rhs decides it unless it lies within TERM_REL_ERR
(|lhs| + |rhs|) of 0, the margin's error bound; then it is re-evaluated once
at 30 significant digits with mpmath, and if even that leaves a relative
margin below STRICT_REL_TOL the verdict is Uncertain rather than a coin flip
on rounding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath as mp
import numpy as np

# The error bound of the binary64 terms (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 3).  Each term of a `settle` margin, and each
# bound that `_int_below` floors, is within 60u of its exact value, relative,
# u = 2^-53.  float(p) of an int p < 2^63 is within u, n < 2^53 is exact,
# sqrt is correctly rounded, and numpy's and libm's log and pow are taken
# within 4 ulps, 8u.  So sqrt(x) is within 1.5u, and L = ln x, x >= 2,
# within u / ln 2 + 8u < 10u; L^2 is within 21u, and L^2 - L - 1 within
# 23u (L^2 + L + 1), at most 52u of it from L = ln 29 on.  A power x^a is
# within |a| times the error of x, plus 8u, plus |ln x| times the error of
# a: x^e, 0 < e < 1, x < 2^63 (ln x < 44), is within 31u where e is a
# rounded decimal or 1/k, p^(1 - e) within 53u, L^2.3095 within 36u and
# n^0.432852 within 16u.  An exact binary64 exponent, as the a0 descent's
# t, has an error term of 0, and so has 1 - t for t in [1/2, 2] (Sterbenz):
# p^(1 - t) is then within 9u.  While the best pair is (2, 3), t exceeds 1
# by PRUNE_MARGIN, and its threshold lies below 1: dense blocks.  Each further
# product, quotient or sum of positive terms adds u: 2.5u for 1 + sqrt(p),
# 11u for (n + 1) ln p, 32u for b(n) + p^e, 3u for 5p + 1, 14u for
# p ln p / n and 57u for b(n) p^(1 - e) / e.  A margin lhs - rhs of two such
# terms, rounded once more, is then within 62u (|lhs| + |rhs|) of the exact
# one, and TERM_REL_ERR doubles that.
TERM_REL_ERR = 128 * 2.0**-53
STRICT_DPS = 30
STRICT_REL_TOL = 1e-25

# Decimal literals printed in the source material for the second Smarandache
# margin function; recompute_smarandache9_constants() rebuilds them from the
# solved exponent and reports the discrepancy.
SM9_COEFF = 1.76320819   # 1 / a0
SM9_EXPONENT = 0.432852  # 1 - a0
SM9_LOG_POWER = 2.3095
SM9_RHS = 9.33


class Status(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    UNCERTAIN = "Uncertain"


class Precision(enum.Enum):
    FAST = "fast"
    STRICT = "strict"


@dataclass(frozen=True)
class Verdict:
    """Tri-state outcome of one inequality instance.

    margin is the signed distance from the boundary (positive = holds).
    witness is present whenever status is Fails.
    """

    status: Status
    margin: float
    precision_used: Precision
    witness: Optional[tuple] = None


def num(m, x):
    """The value that the constant x stands for, in module m's arithmetic:
    float(x) for numpy (or math); for mpmath, an int exactly, and a float
    as the decimal that repr(float(x)) prints, rounded at the working
    precision, so that 0.85 is 85/100 and not its binary64 neighbour."""
    if m is not mp:
        return float(x)
    return mp.mpf(int(x) if isinstance(x, (int, np.integer))
                  else repr(float(x)))


def settle(lhs: np.ndarray, rhs: np.ndarray, strict: Callable[[int], tuple]
           ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Decide the inequalities lhs > rhs of binary64 terms: 1-D arrays, or
    a scalar against an array.

    With scale = |lhs| + |rhs|, a margin lhs - rhs above
    TERM_REL_ERR * scale holds and one below minus that fails.  One at or
    inside that window, or NaN, is decided once more, by the margin
    m = lhs - rhs of its terms (lhs, rhs) = strict(i) in mpmath at
    STRICT_DPS: uncertain if |m| < STRICT_REL_TOL * max(scale, 1), else
    failing if m <= 0.  Returns the ascending indices of the failing
    margins and of the uncertain ones, and {i: m} for every margin decided
    strictly.
    """
    margins = lhs - rhs
    scale = np.abs(lhs) + np.abs(rhs)
    window = TERM_REL_ERR * scale
    hits = np.flatnonzero(~(margins > window))
    if not hits.size:
        return hits, hits, {}
    fails = margins[hits] < -window[hits]
    uncertain, values = [], {}
    for k in np.flatnonzero(~fails).tolist():
        i = int(hits[k])
        with mp.workdps(STRICT_DPS):
            exact_lhs, exact_rhs = strict(i)
            m = values[i] = float(exact_lhs - exact_rhs)
        if abs(m) < STRICT_REL_TOL * max(float(scale[i]), 1.0):
            uncertain.append(i)
        else:
            fails[k] = m <= 0
    return hits[fails], np.array(uncertain, dtype=np.intp), values


def _verdict(i: int, fast: float, settled: tuple, witness) -> Verdict:
    """The Verdict of margin i, with fast margin `fast`, in a `settle`
    result."""
    fails, uncertain, values = settled
    status = (Status.UNCERTAIN if i in uncertain
              else Status.FAILS if i in fails else Status.HOLDS)
    return Verdict(status, values.get(i, fast),
                   Precision.STRICT if i in values else Precision.FAST,
                   None if status is Status.HOLDS else witness)


def recompute_smarandache9_constants(a0: float) -> dict:
    """Rebuild the printed constants 1/a0 and 1-a0 from a solved a0 and
    report how far the printed decimals sit from the recomputed values."""
    coeff = 1.0 / a0
    expo = 1.0 - a0
    return {
        "coeff_recomputed": coeff,
        "coeff_printed": SM9_COEFF,
        "coeff_discrepancy": coeff - SM9_COEFF,
        "exponent_recomputed": expo,
        "exponent_printed": SM9_EXPONENT,
        "exponent_discrepancy": expo - SM9_EXPONENT,
    }


# ---------------------------------------------------------------------------
# the gap bounds: the gap g = q - p of consecutive primes p < q against a
# bound B, one catalog entry per bound


KOURBATOV_FLOOR = 29  # p_10; the bounds of Kourbatov and Cramer hold from here

def _int_below(b: float) -> int:
    """An integer below the exact value of which b is the binary64 value:
    b is within 60u of it, so b - TERM_REL_ERR |b| lies below it."""
    return math.floor(b - TERM_REL_ERR * abs(b))


@dataclass(frozen=True)
class GapBound:
    """One bound on the gap g = q - p after the n-th prime p.

    It is asserted for p >= floor.  threshold(p0, n1) is an int T such that
    every pair with p >= p0, n <= n1 and g < T holds, exactly: a block of
    pairs whose gaps all lie below it holds without a float margin.
    terms(m, n, p, q) states the bound once, as the terms (lhs, rhs) of
    lhs > rhs in module m's arithmetic: with m = numpy at arrays of pairs,
    n as float64 and p, q as int64, their binary64 terms; with m = mpmath
    at one pair of ints, inside mp.workdps, its terms at that precision.
    """

    id: str
    floor: int
    threshold: Callable[[int, int], int]
    terms: Callable

    def settle_block(self, blk, gap: np.ndarray) -> tuple:
        """The ascending indices of the failing and of the uncertain pairs
        of the pair block `blk`, whose int64 gaps q - p are `gap`.

        The pairs below the floor, a prefix of the block, are not tested.
        The threshold at the first tested p and the last n of the block's
        run holds every smaller gap, so only the pairs at or above it get
        float margins, decided by `settle`, and a block whose gaps all lie
        below needs none.  A gated block holds only pairs from its run, so
        the same threshold serves it.
        """
        first = int(blk.p.searchsorted(self.floor))
        threshold = (None if first == gap.size else self.threshold(
            int(blk.p[first]), blk.n0 + blk.count - 1))
        if threshold is None or gap.max() < threshold:
            return np.empty(0, np.intp), np.empty(0, np.intp)
        at = first + np.flatnonzero(gap[first:] >= threshold)
        n, p, q = blk.index(at), blk.p[at], blk.q[at]
        lhs, rhs = self.terms(np, n.astype(np.float64), p, q)
        fails, uncertain, _ = settle(lhs, rhs, lambda i: self.terms(
            mp, int(n[i]), int(p[i]), int(q[i])))
        return at[fails], at[uncertain]


def _log_gap_bound(id: str, floor: int, bound: Callable) -> GapBound:
    """The bound g < bound(m, ln p), which rises with p from p = floor on,
    so that its value at a block's first p bounds the whole block."""
    return GapBound(
        id, floor,
        lambda p0, n1: _int_below(bound(math, math.log(p0))),
        lambda m, n, p, q: (bound(m, m.log(p)), q - p),
    )


GAP_BOUNDS = {b.id: b for b in (
    GapBound(
        "andrica", 2,
        # sqrt(q) - sqrt(p) < 1 iff (g - 1)^2 < 4p, in integers; m =
        # isqrt(4 p0 - 1) is the largest m with m^2 < 4 p0, so every
        # g <= m + 1 holds from p0 on, and (g - 1)^2 = 4p never does
        lambda p0, n1: math.isqrt(4 * p0 - 1) + 2,
        lambda m, n, p, q: (num(m, 1) + m.sqrt(p), m.sqrt(q)),
    ),
    _log_gap_bound("kourbatov", KOURBATOV_FLOOR,
                   lambda m, lp: lp ** 2 - lp - num(m, 1)),
    GapBound(
        "firoozbakht", 2,
        # q^(1/(n+1)) < p^(1/n) iff n ln(1 + g/p) < ln p, and ln(1 + x) < x,
        # so g <= p ln p / n holds; that rises with p and falls with n
        lambda p0, n1: _int_below(p0 * math.log(p0) / n1),
        lambda m, n, p, q: ((n + num(m, 1)) * m.log(p), n * m.log(q)),
    ),
    _log_gap_bound("cramer", KOURBATOV_FLOOR, lambda m, lp: lp * lp),
)}


def power_gap_bound(e: Callable, bound_of_n: Callable) -> GapBound:
    """The bound q^e - p^e < bound_of_n(m, n), for an exponent e(m) in
    (0, 1) and a bound that does not rise with n, each in module m's
    arithmetic.

    By the mean value theorem q^e - p^e = e x^(e-1) g for some x in (p, q),
    below e p^(e-1) g: every g <= bound(n1) p0^(1-e) / e holds from p0 on
    (capped at 2^63, past every gap, where a tiny e overflows it).  Its
    terms are bound(n) + p^e and q^e."""
    x = e(math)
    return GapBound(
        f"q^e - p^e, e = {x!r}", 2,
        lambda p0, n1: _int_below(
            min(bound_of_n(math, n1) * p0 ** (1 - x) / x, 2.0**63)),
        lambda m, n, p, q: (bound_of_n(m, n) + p ** e(m), q ** e(m)))


# q/p <= 5/3 iff 3g <= 2p: every g <= 2 p0 / 3 holds from p0 on, and
# g = 2 p0 // 3 + 1 fails at p0.  In integers it is 5p + 1 > 3q, whose
# margin is at least 1 where it holds: the tie at (3, 5) holds.  A margin of
# 0 would read uncertain, but no consecutive pair fails: q < 6p/5 from
# p = 25 on (Nagura), and none below.
RATIO_BOUND = GapBound(
    "smarandache-ratio", 2,
    lambda p0, n1: 2 * p0 // 3 + 1,
    lambda m, n, p, q: (num(m, 5) * p + num(m, 1), num(m, 3) * q),
)


# ---------------------------------------------------------------------------
# catalogs for integer scans


@dataclass(frozen=True)
class Predicate:
    """A named function of the integer n, stated once as terms(m, n) in
    module m's arithmetic, at float64 arrays n for numpy and at one int n
    inside mp.workdps for mpmath: an inequality lhs > rhs for crossover
    scans, whose terms are (lhs, rhs), or a sequence for monotonicity
    scans, whose term is its value."""

    id: str
    description: str
    terms: Callable


PREDICATES = {p.id: p for p in (
    Predicate(
        "two-n-plus-one-vs-4log2",
        "2n + 1 > 4 (ln n)^2",
        lambda m, n: (num(m, 2) * n + num(m, 1), num(m, 4) * m.log(n) ** 2),
    ),
    Predicate(
        "sqrt-vs-2log",
        "sqrt(n) > 2 ln n",
        lambda m, n: (m.sqrt(n), num(m, 2) * m.log(n)),
    ),
    Predicate(
        "n-vs-4log2",
        "n > 4 (ln n)^2",
        lambda m, n: (n, num(m, 4) * m.log(n) ** 2),
    ),
    Predicate(
        "log2-vs-2sqrt-plus-1",
        "(ln n)^2 < 2 sqrt(n) + 1",
        lambda m, n: (num(m, 2) * m.sqrt(n) + num(m, 1), m.log(n) ** 2),
    ),
    Predicate(
        "n-over-logpow-vs-9.33",
        f"n / (ln n)^{SM9_LOG_POWER} > {SM9_RHS}",
        lambda m, n: (n / m.log(n) ** num(m, SM9_LOG_POWER), num(m, SM9_RHS)),
    ),
    Predicate(
        "a0-pow-vs-log2",
        f"{SM9_COEFF} n^{SM9_EXPONENT} > (ln n)^2",
        lambda m, n: (num(m, SM9_COEFF) * n ** num(m, SM9_EXPONENT),
                      m.log(n) ** 2),
    ),
)}

SEQUENCES = {s.id: s for s in (
    Predicate(
        "sqrt-over-log-squared",
        "sqrt(n) / (ln n)^2",
        lambda m, n: m.sqrt(n) / m.log(n) ** 2,
    ),
)}


def _lookup(catalog: dict, kind: str, entry) -> Predicate:
    """`entry` itself if it is a Predicate, else its catalog entry by id."""
    if isinstance(entry, Predicate):
        return entry
    try:
        return catalog[entry]
    except KeyError:
        raise KeyError(
            f"unknown {kind} {entry!r}; known: {sorted(catalog)}"
        ) from None


# ---------------------------------------------------------------------------
# integer scanners


class NoCrossoverError(Exception):
    """The predicate never stabilizes to true within the scanned window."""


@dataclass(frozen=True)
class CrossoverResult:
    """Least threshold from which a predicate holds through the window end."""

    predicate_id: str
    threshold: int
    verified_through: int
    pre_threshold_failure: Optional[int]


# largest n up to which every integer is exact in binary64
MAX_EXACT_FLOAT_INT = 2**53
# integers evaluated per vectorized step, so a scan's memory stays flat
SCAN_CHUNK = 1 << 16


def _check_window(lo: int, hi: int) -> None:
    if lo < 2 or hi <= lo:
        raise ValueError(f"need 2 <= lo < hi, got [{lo}, {hi}]")
    if hi > MAX_EXACT_FLOAT_INT:
        raise ValueError(
            f"hi = {hi} exceeds 2^53, past which float64 misses integers")


def _chunks(lo: int, hi: int, overlap: int = 0):
    """(a, ns) for consecutive runs ns = a, a + 1, ... (float64) of
    SCAN_CHUNK integers of [lo, hi], each followed by the first `overlap`
    integers of the next run."""
    for a in range(lo, hi + 1 - overlap, SCAN_CHUNK):
        yield a, np.arange(a, min(a + SCAN_CHUNK + overlap, hi + 1),
                           dtype=np.float64)


def crossover_scan(predicate, lo: int, hi: int) -> CrossoverResult:
    """Find the least t in [lo, hi] with the predicate true on all of [t, hi].

    hi is inclusive.  Each chunk's terms are decided by `settle`; an
    uncertain margin ends the scan.
    """
    pred = _lookup(PREDICATES, "predicate", predicate)
    _check_window(lo, hi)
    last_fail = None
    for a, ns in _chunks(lo, hi):
        fails, uncertain, _ = settle(*pred.terms(np, ns),
                                     lambda i: pred.terms(mp, a + i))
        if uncertain.size:
            raise NoCrossoverError(
                f"{pred.id}: undecidable margin at n={a + int(uncertain[0])}")
        if fails.size:
            last_fail = a + int(fails[-1])
    if last_fail == hi:
        raise NoCrossoverError(
            f"{pred.id}: still failing at the window end {hi}")
    return CrossoverResult(
        predicate_id=pred.id,
        threshold=lo if last_fail is None else last_fail + 1,
        verified_through=hi,
        pre_threshold_failure=last_fail,
    )


def monotone_scan(sequence, lo: int, hi: int) -> Verdict:
    """Holds iff seq(n+1) > seq(n) for every n in [lo, hi - 1].

    One pass: each step is settled as the inequality seq(n+1) > seq(n) of
    its two values, and the first step that does not hold gives the
    verdict.  A holding scan reports its smallest step, by its strict value
    where that step was escalated.
    """
    seq = _lookup(SEQUENCES, "sequence", sequence)
    _check_window(lo, hi)
    least = None  # the Verdict of the smallest step so far
    for a, ns in _chunks(lo, hi, overlap=1):
        vals = seq.terms(np, ns)
        settled = settle(
            vals[1:], vals[:-1],
            lambda i: (seq.terms(mp, a + i + 1), seq.terms(mp, a + i)))
        fails, uncertain, values = settled
        diffs = np.diff(vals)
        if fails.size or uncertain.size:
            i = int(min(fails[:1].tolist() + uncertain[:1].tolist()))
            return _verdict(i, float(diffs[i]), settled, (a + i,))
        diffs[list(values)] = list(values.values())
        i = int(np.argmin(diffs))
        if least is None or diffs[i] < least.margin:
            least = _verdict(i, float(diffs[i]), settled, None)
    return least
