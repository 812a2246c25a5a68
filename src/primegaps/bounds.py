"""Inequality evaluators, the gap-bound catalog, a tri-state decision engine,
and integer scanners.

Every comparison goes through the same policy, `settle`: a binary64 margin
strictly inside its window is re-evaluated once at 30 significant digits with
mpmath, and if even that leaves a relative margin below STRICT_REL_TOL the
verdict is Uncertain rather than a coin flip on rounding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .sieve import MAX_VALUE

FAST_REL_TOL = 1e-9
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

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS


def settle(margins: np.ndarray, window, strict: Callable[[int], "mp.mpf"],
           scale=None) -> tuple[np.ndarray, np.ndarray, dict]:
    """Decide a 1-D array of fast margins (positive = holds).

    window and scale are scalars or one value per margin.  A margin at or
    above its window holds and one at or below -window fails.  One strictly
    inside, or NaN, is decided once more by m = strict(i) at STRICT_DPS:
    uncertain if |m| < STRICT_REL_TOL * max(|scale|, 1), else failing if
    m <= 0.  Returns the ascending indices of the failing margins and of
    the uncertain ones, and {i: m} for every margin decided strictly.
    """
    hits = np.flatnonzero(~(margins >= window))
    if not hits.size:
        return hits, hits, {}
    fails = np.abs(margins[hits]) >= np.broadcast_to(window, margins.shape)[hits]
    scale = np.broadcast_to(1.0 if scale is None else scale, margins.shape)
    uncertain, values = [], {}
    for k in np.flatnonzero(~fails).tolist():
        i = int(hits[k])
        with mp.workdps(STRICT_DPS):
            m = values[i] = float(strict(i))
        if abs(m) < STRICT_REL_TOL * max(abs(float(scale[i])), 1.0):
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


# ---------------------------------------------------------------------------
# pointwise evaluators


def kourbatov_bound(p: float) -> float:
    """(ln p)^2 - ln p - 1, the master upper bound on the gap after p.

    Valid as a proven gap bound only from p = 29 on; smaller inputs are
    legal here so callers can probe the function itself.
    """
    if p < 2:
        raise ValueError(f"kourbatov_bound requires p >= 2, got {p}")
    return GAP_BOUNDS["kourbatov"].log_bound(math.log(p))


def andrica_check(p: int, q: int) -> Verdict:
    """Holds iff sqrt(q) - sqrt(p) < 1 for the consecutive pair (p, q)."""
    _require_pair(p, q)
    return GAP_BOUNDS["andrica"].verdict(1, p, q, witness=(p, q))


def firoozbakht_check(n: int, p: int, q: int) -> Verdict:
    """Holds iff q^(1/(n+1)) < p^(1/n), decided as n*ln q < (n+1)*ln p."""
    _require_pair(p, q)
    if n < 1:
        raise ValueError("prime index must be >= 1")
    return GAP_BOUNDS["firoozbakht"].verdict(n, p, q, witness=(n, p, q))


def log_sq_vs_two_sqrt(x: float) -> float:
    """2*sqrt(x) - (ln x)^2 + 1; positive where the squared log stays under
    the Andrica-style bound."""
    if x <= 0:
        raise ValueError(f"requires x > 0, got {x}")
    return 2.0 * math.sqrt(x) - math.log(x) ** 2 + 1.0


def smarandache9_margin(x: float) -> float:
    """1.76320819 * x^0.432852 - (ln x)^2, the critical-exponent margin."""
    if x <= 0:
        raise ValueError(f"requires x > 0, got {x}")
    return SM9_COEFF * x**SM9_EXPONENT - math.log(x) ** 2


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


def _require_pair(p: int, q: int) -> None:
    if q <= p or p < 2:
        raise ValueError(f"({p}, {q}) is not an ascending prime pair")
    if q > MAX_VALUE:  # the catalog takes pairs as int64
        raise ValueError(f"q = {q} exceeds 2^63 - 1")


# ---------------------------------------------------------------------------
# the gap bounds: the gap g = q - p of consecutive primes p < q against a
# bound B, one catalog entry per bound


KOURBATOV_FLOOR = 29  # p_10; the bounds of Kourbatov and Cramer hold from here

# Relative slack under a binary64 bound B before it is floored to an integer
# threshold.  Below 2^63, B is built from float(p) and float(n), each within
# u = 2^-53 relative, and from L = ln p >= ln 2, which a libm log within 4
# ulps gives to within 10u relative; then a few more roundings.  So L^2 is
# within 21u, and p L / n within 14u.  L^2 - L - 1 is within
# 23u (L^2 + L + 1), which is at most 52u of it from L = ln 29 on.  Every B
# is thus within 100u < 1.2e-14 of its exact value, relative, and
# B - GAP_SLACK |B| lies below the exact value.  So is bound(n) p^(1-e) / e
# of a power bound, within 60u: p^(1-e) is within 50u even where 1 - e or
# e = 1/k is rounded, since (1 - e) ln p < 44.
GAP_SLACK = 1e-9


def _int_below(b: float) -> int:
    """An integer below the exact value of which b is the binary64 value."""
    return math.floor(b - GAP_SLACK * abs(b))


@dataclass(frozen=True)
class GapBound:
    """One bound on the gap g = q - p after the n-th prime p.

    It is asserted for p >= floor.  threshold(p0, n1) is an int T such that
    every pair with p >= p0, n <= n1 and g < T holds, exactly: a block of
    pairs whose gaps all lie below it holds without a float margin.
    fast(n, p, q) takes arrays of pairs, n as float64 and p, q as int64, and
    returns their binary64 margins (positive = holds), the `settle` window
    of each and their scale (None for 1); strict(n, p, q) is the margin of
    one pair in mpmath.  log_bound is B as a function of ln p, for the
    bounds g < B(ln p) of p alone.
    """

    id: str
    floor: int
    threshold: Callable[[int, int], int]
    fast: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    strict: Callable[[int, int, int], "mp.mpf"]
    log_bound: Optional[Callable] = None

    def verdict(self, n: int, p: int, q: int, witness: tuple) -> Verdict:
        """The bound at the one pair (n, p, q), decided by `settle`."""
        margins, window, scale = self.fast(np.array([n], dtype=np.float64),
                                           np.array([p], dtype=np.int64),
                                           np.array([q], dtype=np.int64))
        settled = settle(margins, window, lambda i: self.strict(n, p, q),
                         scale)
        return _verdict(0, float(margins[0]), settled, witness)

    def settle_block(self, blk, gap: np.ndarray) -> tuple:
        """The ascending indices of the failing and of the uncertain pairs
        of the pair block `blk`, whose int64 gaps q - p are `gap`.

        The pairs below the floor, a prefix of the block, are not tested.
        The threshold at the first tested p and the last n holds every
        smaller gap, so only the pairs at or above it get float margins,
        decided by `settle`, and a block whose gaps all lie below needs none.
        """
        first = int(blk.p.searchsorted(self.floor))
        threshold = (None if first == gap.size else
                     self.threshold(int(blk.p[first]), blk.n0 + gap.size - 1))
        if threshold is None or gap.max() < threshold:
            return np.empty(0, np.intp), np.empty(0, np.intp)
        at = first + np.flatnonzero(gap[first:] >= threshold)
        p, q = blk.p[at], blk.q[at]
        margins, window, scale = self.fast((blk.n0 + at).astype(np.float64),
                                           p, q)
        fails, uncertain, _ = settle(
            margins, window,
            lambda i: self.strict(blk.n0 + int(at[i]), int(p[i]), int(q[i])),
            scale)
        return at[fails], at[uncertain]


def _log_gap_bound(id: str, floor: int, log_bound: Callable) -> GapBound:
    """The bound g < log_bound(ln p), which rises with p from p = floor on,
    so that its value at a block's first p bounds the whole block."""
    return GapBound(
        id, floor,
        lambda p0, n1: _int_below(log_bound(math.log(p0))),
        lambda n, p, q: (log_bound(np.log(p)) - (q - p), FAST_REL_TOL, None),
        lambda n, p, q: log_bound(mp.log(p)) - (q - p),
        log_bound,
    )


def _firoozbakht_fast(n, p, q):
    scale = n * np.log(q)
    return ((n + 1.0) * np.log(p) - scale,
            FAST_REL_TOL * np.maximum(scale, 1.0), scale)


GAP_BOUNDS = {b.id: b for b in (
    GapBound(
        "andrica", 2,
        # sqrt(q) - sqrt(p) < 1 iff (g - 1)^2 < 4p, in integers; m =
        # isqrt(4 p0 - 1) is the largest m with m^2 < 4 p0, so every
        # g <= m + 1 holds from p0 on, and (g - 1)^2 = 4p never does.  The
        # window is the binary64 error of sqrt(q) - sqrt(p), as in _METRICS
        lambda p0, n1: math.isqrt(4 * p0 - 1) + 2,
        lambda n, p, q: (1.0 - (np.sqrt(q) - np.sqrt(p)),
                         np.maximum(FAST_REL_TOL, 2.0**-50 * np.sqrt(q)), None),
        lambda n, p, q: 1 - (mp.sqrt(q) - mp.sqrt(p)),
    ),
    _log_gap_bound("kourbatov", KOURBATOV_FLOOR, lambda lp: lp * lp - lp - 1),
    GapBound(
        "firoozbakht", 2,
        # q^(1/(n+1)) < p^(1/n) iff n ln(1 + g/p) < ln p, and ln(1 + x) < x,
        # so g <= p ln p / n holds; that rises with p and falls with n
        lambda p0, n1: _int_below(p0 * math.log(p0) / n1),
        _firoozbakht_fast,
        lambda n, p, q: (n + 1) * mp.log(p) - n * mp.log(q),
    ),
    _log_gap_bound("cramer", KOURBATOV_FLOOR, lambda lp: lp * lp),
)}


# binary64 error of q^e - p^e relative to the larger term: a few ulps for
# each pow and the subtraction (Higham, forward error of pow), with room
POW_DIFF_REL_ERR = 8 * 2.0**-52


def power_gap_bound(e: float, bound_of_n: Callable,
                    strict: Callable[[int, int, int], "mp.mpf"]) -> GapBound:
    """The bound q^e - p^e < bound_of_n(n), for an exponent e in (0, 1) and
    a bound that does not rise with n; strict(n, p, q) is its margin.

    By the mean value theorem q^e - p^e = e x^(e-1) g for some x in (p, q),
    below e p^(e-1) g: every g <= bound(n1) p0^(1-e) / e holds from p0 on
    (capped at 2^63, past every gap, where a tiny e overflows it).  A
    margin's window is the binary64 error bound of q^e - p^e, at least
    FAST_REL_TOL."""
    def fast(n, p, q):
        q_e = q**e
        return (bound_of_n(n) - (q_e - p**e),
                np.maximum(FAST_REL_TOL, POW_DIFF_REL_ERR * q_e), None)

    return GapBound(
        f"q^e - p^e, e = {e!r}", 2,
        lambda p0, n1: _int_below(
            min(bound_of_n(n1) * p0 ** (1 - e) / e, 2.0**63)),
        fast, strict)


# q/p <= 5/3 iff 3g <= 2p: every g <= 2 p0 / 3 holds from p0 on, and
# g = 2 p0 // 3 + 1 fails at p0.  The int64 margin 5p - 3q is exact, so its
# window is 0: no pair is escalated, and the tie at (3, 5) holds.
RATIO_BOUND = GapBound(
    "smarandache-ratio", 2,
    lambda p0, n1: 2 * p0 // 3 + 1,
    lambda n, p, q: (5 * p - 3 * q, 0, None),
    lambda n, p, q: 5 * p - 3 * q,
)


# ---------------------------------------------------------------------------
# catalogs for integer scans


@dataclass(frozen=True)
class Predicate:
    """A named function of the integer n: a signed margin for crossover
    scans (the inequality holds at n iff it is > 0), or a sequence value
    for monotonicity scans."""

    id: str
    description: str
    fast: Callable[[np.ndarray], np.ndarray]   # vectorized over float64 n
    strict: Callable[[int], "mp.mpf"]          # one point, high precision


PREDICATES = {p.id: p for p in (
    Predicate(
        "two-n-plus-one-vs-4log2",
        "2n + 1 > 4 (ln n)^2",
        lambda n: 2.0 * n + 1.0 - 4.0 * np.log(n) ** 2,
        lambda n: 2 * n + 1 - 4 * mp.log(n) ** 2,
    ),
    Predicate(
        "sqrt-vs-2log",
        "sqrt(n) > 2 ln n",
        lambda n: np.sqrt(n) - 2.0 * np.log(n),
        lambda n: mp.sqrt(n) - 2 * mp.log(n),
    ),
    Predicate(
        "n-vs-4log2",
        "n > 4 (ln n)^2",
        lambda n: n - 4.0 * np.log(n) ** 2,
        lambda n: n - 4 * mp.log(n) ** 2,
    ),
    Predicate(
        "log2-vs-2sqrt-plus-1",
        "(ln n)^2 < 2 sqrt(n) + 1",
        lambda n: 2.0 * np.sqrt(n) + 1.0 - np.log(n) ** 2,
        lambda n: 2 * mp.sqrt(n) + 1 - mp.log(n) ** 2,
    ),
    Predicate(
        "n-over-logpow-vs-9.33",
        f"n / (ln n)^{SM9_LOG_POWER} > {SM9_RHS}",
        lambda n: n / np.log(n) ** SM9_LOG_POWER - SM9_RHS,
        lambda n: n / mp.log(n) ** mp.mpf(str(SM9_LOG_POWER))
        - mp.mpf(str(SM9_RHS)),
    ),
)}

SEQUENCES = {s.id: s for s in (
    Predicate(
        "sqrt-over-log-squared",
        "sqrt(n) / (ln n)^2",
        lambda n: np.sqrt(n) / np.log(n) ** 2,
        lambda n: mp.sqrt(n) / mp.log(n) ** 2,
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

    hi is inclusive.  Each chunk's margins are decided by `settle` with the
    window FAST_REL_TOL; an uncertain margin ends the scan.
    """
    pred = _lookup(PREDICATES, "predicate", predicate)
    _check_window(lo, hi)
    last_fail = None
    for a, ns in _chunks(lo, hi):
        fails, uncertain, _ = settle(pred.fast(ns), FAST_REL_TOL,
                                     lambda i: pred.strict(a + i))
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

    One pass: the binary64 error of a step scales with the two values it
    subtracts, so each step is settled against the window FAST_REL_TOL at
    the larger of its own two values, and the first step that does not
    hold gives the verdict.  A holding scan reports its smallest step, by
    its strict value where that step was escalated.
    """
    seq = _lookup(SEQUENCES, "sequence", sequence)
    _check_window(lo, hi)
    least = None  # the Verdict of the smallest step so far
    for a, ns in _chunks(lo, hi, overlap=1):
        vals = seq.fast(ns)
        diffs = np.diff(vals)
        scale = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:]))
        settled = settle(
            diffs, FAST_REL_TOL * np.maximum(scale, 1.0),
            lambda i: seq.strict(a + i + 1) - seq.strict(a + i), scale)
        fails, uncertain, values = settled
        if fails.size or uncertain.size:
            i = int(min(fails[:1].tolist() + uncertain[:1].tolist()))
            return _verdict(i, float(diffs[i]), settled, (a + i,))
        diffs[list(values)] = list(values.values())
        i = int(np.argmin(diffs))
        if least is None or diffs[i] < least.margin:
            least = _verdict(i, float(diffs[i]), settled, None)
    return least
