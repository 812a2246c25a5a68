"""Range-scanning checkers, one per conjecture, producing ConjectureReports.

All checkers accept a `partitions` argument and merge per-chunk partial
results associatively, so the report is identical for any partition count.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import mpmath as mp
import numpy as np

from . import gaps, sieve
from .bounds import FAST_REL_TOL, STRICT_DPS, STRICT_REL_TOL


class ReportStatus(enum.Enum):
    ALL_HOLD = "AllHold"
    VIOLATION_FOUND = "ViolationFound"
    INCOMPLETE = "Incomplete"


@dataclass
class ConjectureReport:
    """Aggregate outcome of one conjecture scan over a finite range."""

    conjecture_id: str
    range: str
    checked_count: int = 0
    skipped_count: int = 0
    violations: list = field(default_factory=list)
    uncertain: list = field(default_factory=list)
    extremes: dict = field(default_factory=dict)
    duration: float = 0.0
    status: ReportStatus = ReportStatus.ALL_HOLD

    def finalize(self) -> "ConjectureReport":
        if self.violations:
            self.status = ReportStatus.VIOLATION_FOUND
        elif self.uncertain or self.status is ReportStatus.INCOMPLETE:
            self.status = ReportStatus.INCOMPLETE
        else:
            self.status = ReportStatus.ALL_HOLD
        self.violations.sort()
        self.uncertain.sort()
        return self


def _chunks(lo: int, hi: int, partitions: int):
    """Split [lo, hi) into `partitions` contiguous non-empty chunks."""
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    partitions = min(partitions, hi - lo)
    edges = np.linspace(lo, hi, partitions + 1, dtype=np.int64)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if a < b]


# most values of n per interval-checker chunk, so that the chunk's arrays
# stay a few MB whatever n_max is
INTERVAL_CHUNK = 1 << 16


def _bounded_chunks(lo: int, hi: int, partitions: int):
    """The chunks of `_chunks`, each split into pieces of at most
    INTERVAL_CHUNK values."""
    for a, b in _chunks(lo, hi, partitions):
        for s in range(a, b, INTERVAL_CHUNK):
            yield s, min(s + INTERVAL_CHUNK, b)


def _timed(report: ConjectureReport, t0: float) -> ConjectureReport:
    report.duration = time.perf_counter() - t0
    return report.finalize()


def _capture(out: list, blk: gaps.PairBlock, idx: np.ndarray, *lead) -> None:
    """Append the witness (*lead, n, p, q) of each pair of `blk` at `idx`,
    with n, p and q as Python ints."""
    if idx.size:
        out.extend(zip(
            *(itertools.repeat(x, idx.size) for x in lead),
            (blk.n0 + idx).tolist(), blk.p[idx].tolist(), blk.q[idx].tolist(),
        ))


# ---------------------------------------------------------------------------
# interval conjectures (Legendre / Oppermann / Brocard); each checker refuses,
# before allocating, an n_max whose interval ends would wrap in int64


def check_legendre(n_max: int, partitions: int = 1) -> ConjectureReport:
    """At least one prime strictly between n^2 and (n+1)^2 for n in [1, n_max]."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if (n_max + 1) ** 2 > sieve.MAX_VALUE:
        raise sieve.CapacityError(
            f"(n_max + 1)^2 exceeds 2^63-1 at n_max = {n_max}")
    t0 = time.perf_counter()
    report = ConjectureReport("legendre", f"n in [1, {n_max}]")
    best = None  # (count, n) minimizing interval prime count
    for a, b in _bounded_chunks(1, n_max + 1, partitions):
        ns = np.arange(a, b + 1, dtype=np.int64)
        pi = sieve.prime_counts_at(ns * ns)
        counts = np.diff(pi)  # primes in (n^2, (n+1)^2]; (n+1)^2 never prime
        report.checked_count += counts.size
        for i in np.flatnonzero(counts < 1):
            report.violations.append((int(ns[i]), "empty-interval"))
        i = int(np.argmin(counts))
        cand = (int(counts[i]), int(ns[i]))
        if best is None or cand < best:
            best = cand
    report.extremes["min_interval_count"] = best[0]
    report.extremes["min_interval_n"] = best[1]
    return _timed(report, t0)


def check_oppermann(n_max: int, partitions: int = 1) -> ConjectureReport:
    """Primes in both (n^2 - n, n^2) and (n^2, n^2 + n) for n in [2, n_max]."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max * n_max + n_max > sieve.MAX_VALUE:
        raise sieve.CapacityError(
            f"n_max^2 + n_max exceeds 2^63-1 at n_max = {n_max}")
    t0 = time.perf_counter()
    report = ConjectureReport("oppermann", f"n in [2, {n_max}]")
    best_lo = best_hi = None
    for a, b in _bounded_chunks(2, n_max + 1, partitions):
        ns = np.arange(a, b, dtype=np.int64)
        pi = sieve.prime_counts_at(
            np.concatenate([ns * ns - ns, ns * ns, ns * ns + ns])
        ).reshape(3, ns.size)
        # open intervals: n^2 and n^2 +- n are composite for n >= 2 except
        # the left endpoint 2 at n = 2, which pi() correctly excludes
        below = pi[1] - pi[0]
        above = pi[2] - pi[1]
        report.checked_count += 2 * ns.size
        for i in np.flatnonzero(below < 1):
            report.violations.append((int(ns[i]), "below-square"))
        for i in np.flatnonzero(above < 1):
            report.violations.append((int(ns[i]), "above-square"))
        for counts, side in ((below, "below"), (above, "above")):
            i = int(np.argmin(counts))
            cand = (int(counts[i]), int(ns[i]))
            if side == "below":
                if best_lo is None or cand < best_lo:
                    best_lo = cand
            else:
                if best_hi is None or cand < best_hi:
                    best_hi = cand
    report.extremes["min_below_count"], report.extremes["min_below_n"] = best_lo
    report.extremes["min_above_count"], report.extremes["min_above_n"] = best_hi
    return _timed(report, t0)


def check_brocard(n_max: int, partitions: int = 1) -> ConjectureReport:
    """At least four primes between p_n^2 and p_{n+1}^2 for prime index
    n in [2, n_max]; also audits the four-segment decomposition whose
    boundaries are p_n^2, p_n(p_n+1), (p_n+1)^2, (p_n+1)(p_n+2), (p_n+2)^2.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if sieve._nth_prime_bound(n_max + 1) ** 2 > sieve.MAX_VALUE:
        raise sieve.CapacityError(
            f"p_(n_max+1)^2 may exceed 2^63-1 at n_max = {n_max}")
    t0 = time.perf_counter()
    report = ConjectureReport("brocard", f"prime index n in [2, {n_max}]")
    top = sieve.nth_prime(n_max + 1).value
    primes = np.concatenate(list(sieve.prime_blocks(2, top + 1)))
    best = None
    seg_min = [None] * 4
    decompose_all = True
    for a, b in _bounded_chunks(2, n_max + 1, partitions):
        p = primes[a - 1 : b - 1]
        p1 = primes[a:b]  # p_{n+1}
        ns = np.arange(a, b, dtype=np.int64)
        bounds_flat = np.concatenate(
            [p * p, p * (p + 1), (p + 1) ** 2, (p + 1) * (p + 2),
             (p + 2) ** 2, p1 * p1]
        )
        pi = sieve.prime_counts_at(bounds_flat).reshape(6, p.size)
        counts = pi[5] - pi[0]  # primes in (p_n^2, p_{n+1}^2), both composite
        report.checked_count += p.size
        for i in np.flatnonzero(counts < 4):
            report.violations.append((int(ns[i]), "fewer-than-four"))
        i = int(np.argmin(counts))
        cand = (int(counts[i]), int(ns[i]))
        if best is None or cand < best:
            best = cand
        # decomposition applies when p_{n+1}^2 >= (p_n + 2)^2, i.e. always
        # for n >= 2 (gap >= 2); verify rather than assume
        decompose_all &= bool(np.all(p1 * p1 >= (p + 2) ** 2))
        for s in range(4):
            seg_counts = pi[s + 1] - pi[s]
            j = int(np.argmin(seg_counts))
            cand_s = (int(seg_counts[j]), int(ns[j]))
            if seg_min[s] is None or cand_s < seg_min[s]:
                seg_min[s] = cand_s
    report.extremes["min_interval_count"] = best[0]
    report.extremes["min_interval_n"] = best[1]
    report.extremes["decomposition_applies_everywhere"] = decompose_all
    for s, (cnt, n) in enumerate(seg_min):
        report.extremes[f"segment{s + 1}_min_count"] = cnt
        report.extremes[f"segment{s + 1}_min_n"] = n
    return _timed(report, t0)


# ---------------------------------------------------------------------------
# gap-bound conjectures over consecutive pairs

GAP_BOUNDS = ("andrica", "kourbatov", "firoozbakht", "cramer")
KOURBATOV_FLOOR = 29  # p_10; the gap bound is asserted only from here
# pairs per metric pass of check_gap_bounds: the pass's dozen float arrays
# then stay in the core's cache and come from reused heap memory (on a
# 2-vCPU Xeon this halved the time of a sieve block of ~1e5 pairs)
PAIR_SLICE = 1 << 14


def _strict_margin(bound: str, n: int, p: int, q: int) -> float:
    with mp.workdps(STRICT_DPS):
        if bound == "andrica":
            return float(1 - (mp.sqrt(q) - mp.sqrt(p)))
        if bound == "kourbatov":
            lp = mp.log(p)
            return float(lp**2 - lp - 1 - (q - p))
        if bound == "cramer":
            return float(mp.log(p) ** 2 - (q - p))
        if bound == "firoozbakht":
            return float((n + 1) * mp.log(p) - n * mp.log(q))
    raise KeyError(bound)


def _settle_near(report, bound, blk, idx, scale):
    """Re-decide near-threshold pairs at strict precision."""
    for i in idx:
        n = blk.n0 + int(i)
        p, q = int(blk.p[i]), int(blk.q[i])
        strict = _strict_margin(bound, n, p, q)
        s = max(float(scale[i]) if scale is not None else 1.0, 1.0)
        if abs(strict) < STRICT_REL_TOL * s:
            report.uncertain.append((bound, n, p, q))
        elif strict <= 0:
            report.violations.append((bound, n, p, q))


def check_gap_bounds(
    limit: int,
    which: Iterable[str] = GAP_BOUNDS,
    partitions: int = 1,
    start: int = 2,
) -> ConjectureReport:
    """Verify the selected gap bounds on every pair with start <= p < limit.

    kourbatov and cramer apply only from p = 29; smaller pairs are counted
    as skipped for those bounds rather than tested.
    """
    which = tuple(w for w in GAP_BOUNDS if w in set(which))
    if not which:
        raise ValueError(f"no valid bounds selected; known: {GAP_BOUNDS}")
    if limit < 5:
        raise ValueError("limit must be >= 5")
    t0 = time.perf_counter()
    report = ConjectureReport(
        "gap-bounds:" + ",".join(which), f"pairs with {start} <= p < {limit}"
    )
    tracker = gaps.ExtremeTracker()
    for lo, hi in _chunks(start, limit, partitions):
        for blk in gaps.pair_blocks(lo, hi):
            for s in range(0, blk.p.size, PAIR_SLICE):
                e = s + PAIR_SLICE
                _check_block(report, tracker, gaps.PairBlock(
                    blk.n0 + s, blk.p[s:e], blk.q[s:e]), which)
    report.extremes["max_cramer_ratio"] = tracker.max_cramer_ratio
    report.extremes["max_andrica"] = tracker.max_andrica
    report.extremes["max_gap"] = tracker.max_gap
    report.extremes["max_ratio"] = tracker.max_ratio
    return _timed(report, t0)


def _check_block(report, tracker, blk, which) -> None:
    """Feed one pair block to the tracker and check it against each bound.

    The block's primes go to float once, as p followed by the last q, so
    one log and one sqrt serve both ends of every pair: shifted by one,
    they are log q and sqrt q.
    """
    size = blk.p.size
    pq = np.empty(size + 1)
    pq[:-1] = blk.p
    pq[-1] = blk.q[-1]
    log_pq = np.log(pq)
    log_p, log_q = log_pq[:-1], log_pq[1:]
    gap = pq[1:] - pq[:-1]
    lp2 = log_p**2
    # the bounds of Kourbatov and Cramer hold from p = 29 on; p ascends, so
    # the pairs below that floor are a prefix of the block
    i0 = int(np.searchsorted(blk.p, KOURBATOV_FLOOR))
    sqrt_pq = np.sqrt(pq)
    andrica = sqrt_pq[1:] - sqrt_pq[:-1]
    del sqrt_pq
    metrics = {
        "gap": gap,
        "cramer_ratio": gap[i0:] / lp2[i0:],
        "andrica": andrica,
        "ratio": pq[1:] / pq[:-1],
    }
    tracker.observe_block(blk, metrics)
    del metrics, pq
    for bound in which:
        scale = None
        first = 0  # index of the first pair the bound applies to
        if bound == "andrica":
            margins = np.subtract(1.0, andrica, out=andrica)
        elif bound == "kourbatov":
            margins = lp2 - log_p
            margins -= 1.0
            margins -= gap
            first = i0
        elif bound == "cramer":
            margins = lp2 - gap
            first = i0
        else:  # firoozbakht
            ns = blk.n0 + np.arange(size, dtype=np.float64)
            scale = ns * log_q
            ns += 1.0
            margins = np.multiply(ns, log_p, out=ns)
            margins -= scale
        if scale is None:
            tol = np.broadcast_to(FAST_REL_TOL, size)
        else:
            tol = FAST_REL_TOL * np.maximum(scale, 1.0)
        report.checked_count += size - first
        report.skipped_count += first
        # margins below tol are either near the threshold, for the strict
        # re-decision, or clear violations
        hits = np.flatnonzero(margins[first:] < tol[first:]) + first
        if hits.size:
            m = margins[hits]
            near = np.abs(m) < tol[hits]
            _settle_near(report, bound, blk, hits[near], scale)
            _capture(report.violations, blk, hits[~near & (m <= 0.0)], bound)


# ---------------------------------------------------------------------------
# Shanks trend probe


@dataclass(frozen=True)
class TrendRow:
    """Statistics of the ratio gap / (ln p)^2 over one window of pairs."""

    window_index: int
    first_n: int
    last_n: int
    mean: float
    min: float
    max: float


def check_shanks_trend(limit: int, window: int) -> list[TrendRow]:
    """Windowed means of the squared-log gap ratio; trend data, no verdict."""
    if window < 100:
        raise ValueError("window must be >= 100")
    rows: list[TrendRow] = []
    buf: list[np.ndarray] = []
    buffered = 0
    first_n = 1
    widx = 0

    def flush(chunk: np.ndarray, first: int):
        nonlocal widx
        rows.append(
            TrendRow(
                window_index=widx,
                first_n=first,
                last_n=first + chunk.size - 1,
                mean=float(chunk.mean()),
                min=float(chunk.min()),
                max=float(chunk.max()),
            )
        )
        widx += 1

    for blk in gaps.pair_blocks(2, limit):
        gap = (blk.q - blk.p).astype(np.float64)
        ratios = gap / np.log(blk.p.astype(np.float64)) ** 2
        buf.append(ratios)
        buffered += ratios.size
        while buffered >= window:
            joined = np.concatenate(buf)
            flush(joined[:window], first_n)
            first_n += window
            rest = joined[window:]
            buf = [rest] if rest.size else []
            buffered = rest.size
    return rows


# ---------------------------------------------------------------------------
# Smarandache family


# binary64 error of q^e - p^e relative to the larger term: a few ulps for
# each pow and the subtraction (Higham, forward error of pow), with room
POW_DIFF_REL_ERR = 8 * 2.0**-52


def _scan_power_gap(
    report: ConjectureReport,
    limit: int,
    partitions: int,
    e: float,
    bound: float,
    strict_margin: Callable[[int, int], mp.mpf],
) -> None:
    """Check q^e - p^e < bound on every pair with p < limit.

    The fast margin bound - (q^e - p^e) is re-decided by `strict_margin(p, q)`
    at STRICT_DPS wherever it lies within the binary64 error of q^e, the
    larger term, or within FAST_REL_TOL.
    """
    worst = None  # (-value, n, p, q): max of q^e - p^e
    for lo, hi in _chunks(2, limit, partitions):
        for blk in gaps.pair_blocks(lo, hi):
            q_e = blk.q**e
            vals = q_e - blk.p**e
            margins = bound - vals
            report.checked_count += vals.size
            tol = np.maximum(FAST_REL_TOL, POW_DIFF_REL_ERR * q_e)
            for i in np.flatnonzero(np.abs(margins) < tol):
                p, q = int(blk.p[i]), int(blk.q[i])
                with mp.workdps(STRICT_DPS):
                    strict = float(strict_margin(p, q))
                if abs(strict) < STRICT_REL_TOL:
                    report.uncertain.append((blk.n0 + int(i), p, q))
                    strict = 1.0  # undecided: neither held nor violated
                margins[i] = strict
            _capture(report.violations, blk, np.flatnonzero(margins <= 0.0))
            i = int(np.argmax(vals))
            cand = (-float(vals[i]), blk.n0 + i, int(blk.p[i]), int(blk.q[i]))
            if worst is None or cand < worst:
                worst = cand
    report.extremes["max_value"] = -worst[0]
    report.extremes["max_value_pair"] = worst[1:]


def check_smarandache_B(
    limit: int, a: float, partitions: int = 1
) -> ConjectureReport:
    """q^a - p^a < 1 for every pair with p < limit, for a fixed exponent a."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {a}")
    t0 = time.perf_counter()
    report = ConjectureReport("smarandache-b", f"pairs with p < {limit}, a={a!r}")
    a_mp = mp.mpf(repr(a))
    _scan_power_gap(
        report, limit, partitions, a, 1.0,
        lambda p, q: 1 - (mp.power(q, a_mp) - mp.power(p, a_mp)),
    )
    return _timed(report, t0)


def check_smarandache_C(
    limit: int, k: int, partitions: int = 1
) -> ConjectureReport:
    """q^(1/k) - p^(1/k) < 2/k for every pair with p < limit, integer k >= 2."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    t0 = time.perf_counter()
    report = ConjectureReport("smarandache-c", f"pairs with p < {limit}, k={k}")
    _scan_power_gap(
        report, limit, partitions, 1.0 / k, 2.0 / k,
        lambda p, q: mp.mpf(2) / k - (mp.root(q, k) - mp.root(p, k)),
    )
    return _timed(report, t0)


@dataclass(frozen=True)
class DWitness:
    """First index where q^a - p^a >= 1/n, refuting the 1/n bound for fixed a."""

    n: int
    p: int
    q: int
    value: float
    threshold: float


D_SCAN_CAP = 10**7  # prime-index cap for the counterexample scan


def find_smarandache_D_counterexample(
    a: float, n_start: int = 1, cap: int = D_SCAN_CAP
) -> Optional[DWitness]:
    """Least index n >= n_start with q^a - p^a >= 1/n, or None below the cap.

    The witness is re-verified at strict precision before being returned.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {a}")
    if n_start < 1:
        raise ValueError("n_start must be >= 1")
    p0 = sieve.nth_prime(n_start).value
    a_mp = mp.mpf(repr(a))
    # scan in widening spans so small witnesses stay cheap
    span = 10**4
    lo = p0
    while True:
        for blk in gaps.pair_blocks(lo, lo + span):
            if blk.n0 > cap:
                return None
            ns = blk.n0 + np.arange(blk.p.size)
            vals = blk.q**a - blk.p**a
            hits = np.flatnonzero(vals >= 1.0 / ns)
            for i in hits:
                n, p, q = int(ns[i]), int(blk.p[i]), int(blk.q[i])
                if n > cap:
                    return None
                with mp.workdps(STRICT_DPS):
                    value = mp.power(q, a_mp) - mp.power(p, a_mp)
                    if value >= mp.mpf(1) / n:
                        return DWitness(n, p, q, float(value), 1.0 / n)
        lo += span
        span *= 4


def check_smarandache_ratio(limit: int, partitions: int = 1) -> ConjectureReport:
    """q/p <= 5/3 for every pair with p < limit, by exact integer comparison."""
    if limit < 7:
        raise ValueError("limit must be >= 7")
    t0 = time.perf_counter()
    report = ConjectureReport("smarandache-ratio", f"pairs with p < {limit}")
    best: Optional[tuple] = None  # (n, p, q) of the exact max ratio
    for lo, hi in _chunks(2, limit, partitions):
        for blk in gaps.pair_blocks(lo, hi):
            report.checked_count += blk.p.size
            _capture(report.violations, blk,
                     np.flatnonzero(3 * blk.q > 5 * blk.p))
            i = int(np.argmax(blk.q / blk.p))
            cand = (blk.n0 + i, int(blk.p[i]), int(blk.q[i]))
            if best is None or _ratio_beats(cand, best):
                best = cand
    report.extremes["max_ratio_pair"] = best
    report.extremes["max_ratio_exact"] = f"{best[2]}/{best[1]}"
    return _timed(report, t0)


def _ratio_beats(cand: tuple, best: tuple) -> bool:
    # exact cross-multiplied comparison; ties keep the smaller index
    lhs = cand[2] * best[1]
    rhs = best[2] * cand[1]
    if lhs != rhs:
        return lhs > rhs
    return cand[0] < best[0]
