"""Range-scanning checkers, one per conjecture, producing ConjectureReports."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import mpmath as mp
import numpy as np

from . import bounds, gaps, sieve
from .bounds import STRICT_DPS
from .witnesses import WitnessStore


class ReportStatus(enum.Enum):
    ALL_HOLD = "AllHold"
    VIOLATION_FOUND = "ViolationFound"
    INCOMPLETE = "Incomplete"


@dataclass
class ConjectureReport:
    """Aggregate outcome of one conjecture scan over a finite range.

    Witnesses are tuples, in a list or, for the pair checkers, in a
    `WitnessStore`; finalizing the report sorts a list and orders a store's
    leads by name.
    """

    conjecture_id: str
    range: str
    checked_count: int = 0
    skipped_count: int = 0
    violations: Sequence = field(default_factory=list)
    uncertain: Sequence = field(default_factory=list)
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


def _timed(report: ConjectureReport, t0: float) -> ConjectureReport:
    report.duration = time.perf_counter() - t0
    return report.finalize()


def _pair_report(conjecture_id: str, range_: str) -> ConjectureReport:
    return ConjectureReport(conjecture_id, range_, violations=WitnessStore(),
                            uncertain=WitnessStore())


# ---------------------------------------------------------------------------
# interval conjectures (Legendre / Oppermann / Brocard); each checker refuses,
# before allocating, an n_max whose interval ends would wrap in int64

# most values of n per interval-checker chunk: each round of the chunk's
# capped counts then stays a few hundred KB whatever n_max is
INTERVAL_CHUNK = 1 << 12
# most values of n in the first chunk, where each side's least count is not
# known yet and its cap is raised: kept small, so that the later chunks are
# capped at that least
FIRST_CHUNK = 64


def _scan_intervals(report, lo, hi, edges, sides) -> list:
    """Count the primes between interval ends for every n in [lo, hi).

    `edges(ns)` returns the ends as a sequence of int64 arrays, one per
    end, aligned with `ns`.  Each side (i, j, least, tag) counts the
    primes in (end i, end j]; an n whose count is below `least` is a
    violation (n, tag), and a side whose tag is None records only its
    minimum.  Returns each side's least (count, n), ties to the smallest n.

    Counts are capped at max(least, the side's least count so far), which
    keeps every violation and that least exact: a capped count ties the
    least at a larger n at best.  In the first chunk, of FIRST_CHUNK values,
    where the least is not known yet, the cap doubles until some count
    falls below it.
    """
    best = [None] * len(sides)
    s, step = lo, min(FIRST_CHUNK, INTERVAL_CHUNK)
    while s < hi:
        ns = np.arange(s, min(s + step, hi), dtype=np.int64)
        s, step = s + ns.size, INTERVAL_CHUNK
        ends = edges(ns)
        for k, (i, j, least, tag) in enumerate(sides):
            cap = max(least, 1 if best[k] is None else best[k][0])
            counts = sieve.capped_counts(ends[i], ends[j], cap)
            while best[k] is None and counts.min() == cap:
                cap *= 2
                counts = sieve.capped_counts(ends[i], ends[j], cap)
            if tag is not None:
                report.checked_count += ns.size
                report.violations.extend(
                    (n, tag) for n in ns[counts < least].tolist())
            m = int(np.argmin(counts))
            cand = (int(counts[m]), int(ns[m]))
            if best[k] is None or cand < best[k]:
                best[k] = cand
    return best


def check_legendre(n_max: int) -> ConjectureReport:
    """At least one prime strictly between n^2 and (n+1)^2 for n in [1, n_max]."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if (n_max + 1) ** 2 > sieve.MAX_VALUE:
        raise sieve.CapacityError(
            f"(n_max + 1)^2 exceeds 2^63-1 at n_max = {n_max}")
    t0 = time.perf_counter()
    report = ConjectureReport("legendre", f"n in [1, {n_max}]")
    # (n+1)^2 is never prime, so counting (n^2, (n+1)^2] is exact
    (best,) = _scan_intervals(
        report, 1, n_max + 1,
        lambda ns: (ns * ns, (ns + 1) ** 2), [(0, 1, 1, "empty-interval")])
    report.extremes.update(min_interval_count=best[0], min_interval_n=best[1])
    return _timed(report, t0)


def check_oppermann(n_max: int) -> ConjectureReport:
    """Primes in both (n^2 - n, n^2) and (n^2, n^2 + n) for n in [2, n_max]."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max * n_max + n_max > sieve.MAX_VALUE:
        raise sieve.CapacityError(
            f"n_max^2 + n_max exceeds 2^63-1 at n_max = {n_max}")
    t0 = time.perf_counter()
    report = ConjectureReport("oppermann", f"n in [2, {n_max}]")
    # open intervals: n^2 and n^2 +- n are composite for n >= 2 except
    # the left endpoint 2 at n = 2, which pi() correctly excludes
    below, above = _scan_intervals(
        report, 2, n_max + 1,
        lambda ns: (ns * ns - ns, ns * ns, ns * ns + ns),
        [(0, 1, 1, "below-square"), (1, 2, 1, "above-square")])
    report.extremes["min_below_count"], report.extremes["min_below_n"] = below
    report.extremes["min_above_count"], report.extremes["min_above_n"] = above
    return _timed(report, t0)


def check_brocard(n_max: int) -> ConjectureReport:
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
    primes = np.concatenate(list(sieve.prime_blocks(
        2, sieve._nth_prime_bound(n_max + 1))))[:n_max + 1]  # p_1..p_(n+1)
    if primes.size <= n_max:  # as sieve.nth_prime would
        raise sieve.CapacityError(f"prime index {n_max + 1} not reached")

    def edges(ns):
        p, p1 = primes[ns - 1], primes[ns]  # p_n, p_{n+1}
        return (p * p, p * (p + 1), (p + 1) ** 2, (p + 1) * (p + 2),
                (p + 2) ** 2, p1 * p1)

    # p_{n+1}^2 is composite, so end 0 to end 5 is the open interval
    sides = [(0, 5, 4, "fewer-than-four")]
    sides += [(s, s + 1, 0, None) for s in range(4)]  # the four segments
    best, *segments = _scan_intervals(report, 2, n_max + 1, edges, sides)
    report.extremes.update(min_interval_count=best[0], min_interval_n=best[1])
    # the decomposition applies when p_{n+1}^2 >= (p_n + 2)^2, that is when
    # p_{n+1} - p_n >= 2: always for n >= 2, but verified, not assumed
    report.extremes["decomposition_applies_everywhere"] = bool(
        np.all(np.diff(primes[1:]) >= 2))
    for s, (cnt, n) in enumerate(segments):
        report.extremes[f"segment{s + 1}_min_count"] = cnt
        report.extremes[f"segment{s + 1}_min_n"] = n
    return _timed(report, t0)


# ---------------------------------------------------------------------------
# pair conjectures: each pair of consecutive primes p, q against a bound

GAP_BOUNDS = tuple(bounds.GAP_BOUNDS)


def _scan_pairs(report, lo: int, hi: int, leads: dict,
                metrics: dict) -> gaps.ExtremeTracker:
    """Decide every pair with lo <= p < hi against each bound of `leads`,
    and return the `gaps.ExtremeTracker` of `metrics` that observed them.

    `leads` maps each lead to a `bounds.GapBound`: the pairs from the
    bound's floor on are counted as checked and those below it as skipped,
    and its failing and uncertain pairs are captured as witnesses
    (lead, n, p, q), or (n, p, q) when the lead is None.

    The stream is gated: a pair whose gap lies below every lead's threshold
    and below the least gap that can tie or beat a record is never built.
    Every gate is 2 from p0 below a floor on, so the pairs below a floor,
    counted as skipped, are all in dense blocks.
    """
    tracker = gaps.ExtremeTracker(metrics)
    q1 = min(hi + gaps.NEXT_PRIME_WINDOW, sieve.MAX_VALUE)  # past every q

    def gate(p0: int, n1: int) -> int:
        if any(p0 < bound.floor for bound in leads.values()):
            return 2
        return min([tracker.least_gap(p0, q1),
                    *(bound.threshold(p0, n1) for bound in leads.values())])

    for blk in gaps.pair_blocks(lo, hi, gate):
        gap = blk.q - blk.p
        for lead, bound in leads.items():
            first = int(blk.p.searchsorted(bound.floor))
            report.checked_count += blk.count - first
            report.skipped_count += first
            fails, uncertain = bound.settle_block(blk, gap)
            for out, idx in ((report.violations, fails),
                             (report.uncertain, uncertain)):
                if idx.size:
                    out.add(blk.index(idx), blk.p[idx], blk.q[idx], lead)
        tracker.observe_block(blk, gap)
    return tracker


def check_gap_bounds(
    limit: int, which: Iterable[str] = GAP_BOUNDS, *, start: int = 2
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
    if start >= limit:
        raise ValueError(f"start must be < limit, got {start} >= {limit}")
    t0 = time.perf_counter()
    report = _pair_report(
        "gap-bounds:" + ",".join(which), f"pairs with {start} <= p < {limit}"
    )
    tracker = _scan_pairs(report, start, limit,
                          {name: bounds.GAP_BOUNDS[name] for name in which},
                          gaps.METRICS)
    for name, best in tracker.records.items():
        report.extremes[f"max_{name}"] = best and best[1]
    return _timed(report, t0)


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
    if limit < 3:
        raise ValueError("limit must be >= 3")
    if window < 100:
        raise ValueError("window must be >= 100")
    rows: list[TrendRow] = []
    carry = np.empty(0)  # ratios of the pairs not yet in a full window
    for blk in gaps.pair_blocks(2, limit):
        gap = (blk.q - blk.p).astype(np.float64)
        ratios = gap / np.log(blk.p.astype(np.float64)) ** 2
        ratios = np.concatenate((carry, ratios))
        full = ratios.size - ratios.size % window
        wins = ratios[:full].reshape(-1, window)
        for stats in zip(wins.mean(axis=1).tolist(),
                         wins.min(axis=1).tolist(), wins.max(axis=1).tolist()):
            k = len(rows)
            rows.append(TrendRow(k, k * window + 1, (k + 1) * window, *stats))
        carry = ratios[full:]
    return rows


# ---------------------------------------------------------------------------
# Smarandache family


def _scan_power_gap(report: ConjectureReport, limit: int, e: float,
                    bound_of_n, strict) -> None:
    """Check `bounds.power_gap_bound(e, bound_of_n, strict)` on every pair
    with p < limit, and record the largest q^e - p^e, ties to the least n."""
    tracker = _scan_pairs(
        report, 2, limit, {None: bounds.power_gap_bound(e, bound_of_n, strict)},
        {"power": gaps.power_metric(e)})
    value, rec = tracker.records["power"]
    report.extremes["max_value"] = value
    report.extremes["max_value_pair"] = (rec.n, rec.p, rec.q)


def check_smarandache_B(limit: int, a: float) -> ConjectureReport:
    """q^a - p^a < 1 for every pair with p < limit, for a fixed exponent a."""
    if limit < 3:
        raise ValueError("limit must be >= 3")
    if not 0.0 < a < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {a}")
    a = float(a)  # a numpy float's repr is not an mpf literal
    t0 = time.perf_counter()
    report = _pair_report("smarandache-b", f"pairs with p < {limit}, a={a!r}")
    a_mp = mp.mpf(repr(a))
    _scan_power_gap(
        report, limit, a, lambda n: 1.0,
        lambda n, p, q: 1 - (mp.power(q, a_mp) - mp.power(p, a_mp)),
    )
    return _timed(report, t0)


def check_smarandache_C(limit: int, k: int) -> ConjectureReport:
    """q^(1/k) - p^(1/k) < 2/k for every pair with p < limit, integer k >= 2."""
    if limit < 3:
        raise ValueError("limit must be >= 3")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    t0 = time.perf_counter()
    report = _pair_report("smarandache-c", f"pairs with p < {limit}, k={k}")
    _scan_power_gap(
        report, limit, 1.0 / k, lambda n: 2.0 / k,
        lambda n, p, q: mp.mpf(2) / k - (mp.root(q, k) - mp.root(p, k)),
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
    """Least index n >= n_start with q^a - p^a >= 1/n, or None.

    Each block of one dense stream from 2, cut to the n in [n_start, cap],
    is decided against the bound 1/n by `bounds.GapBound.settle_block`.
    None means no witness up to the cap, or an uncertain pair before the
    first failure, where the least n is unknown.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {a}")
    if n_start < 1:
        raise ValueError("n_start must be >= 1")
    if n_start > cap:
        return None
    a = float(a)  # a numpy float's repr is not an mpf literal
    a_mp = mp.mpf(repr(a))
    bound = bounds.power_gap_bound(
        a, lambda n: 1.0 / n, lambda n, p, q: mp.mpf(1) / n
        - (mp.power(q, a_mp) - mp.power(p, a_mp)))
    # one lazy stream up to a bound past p_cap: segments are sieved only
    # as the scan reaches them, so a small witness stays cheap
    for blk in gaps.pair_blocks(2, sieve._nth_prime_bound(cap) + 1):
        if blk.n0 > cap:
            return None
        s, e = max(n_start - blk.n0, 0), cap + 1 - blk.n0
        blk = gaps.PairBlock(blk.n0 + s, blk.p[s:e], blk.q[s:e])
        fails, uncertain = bound.settle_block(blk, blk.q - blk.p)
        if uncertain.size and not (fails.size and fails[0] < uncertain[0]):
            return None
        if fails.size:
            i = int(fails[0])
            n, pn, qn = blk.n0 + i, int(blk.p[i]), int(blk.q[i])
            with mp.workdps(STRICT_DPS):
                value = mp.power(qn, a_mp) - mp.power(pn, a_mp)
            return DWitness(n, pn, qn, float(value), 1.0 / n)
    return None


def check_smarandache_ratio(limit: int) -> ConjectureReport:
    """q/p <= 5/3 for every pair with p < limit, by exact integer comparison."""
    if limit < 7:
        raise ValueError("limit must be >= 7")
    t0 = time.perf_counter()
    report = _pair_report("smarandache-ratio", f"pairs with p < {limit}")
    tracker = _scan_pairs(report, 2, limit, {None: bounds.RATIO_BOUND},
                          {"ratio": gaps.METRICS["ratio"]})
    _, rec = tracker.records["ratio"]
    report.extremes["max_ratio_pair"] = (rec.n, rec.p, rec.q)
    report.extremes["max_ratio_exact"] = f"{rec.q}/{rec.p}"
    return _timed(report, t0)
