"""Solve q^x - p^x = 1 for consecutive prime pairs and scan for extremes.

f(x) = q^x - p^x - 1 is strictly increasing in x for q > p >= 2, so a sign
bracket pins down the unique root; bisection keeps the bracket valid
unconditionally, which Newton would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import mpmath as mp
import numpy as np

from . import gaps
from .bounds import STRICT_DPS

X_TOL = 1e-13
MAX_ITER = 200
INITIAL_LO = 1e-3


@dataclass(frozen=True)
class ExponentSolution:
    """Root x of q^x - p^x = 1 for one consecutive pair."""

    p: int
    q: int
    x: float
    residual: float
    iterations: int
    bracket: Tuple[float, float] = field(metadata={"csv": False})


def _f(x: float, p: int, q: int) -> float:
    return math.pow(q, x) - math.pow(p, x) - 1.0


def solve_exponent(p: int, q: int) -> ExponentSolution:
    """The unique x in (0, 1] with q^x - p^x = 1 for the pair (p, q)."""
    if q <= p or p < 2:
        raise ValueError(f"({p}, {q}) is not an ascending prime pair")
    if q - p == 1:
        # only (2, 3); f(1) = 0 exactly
        return ExponentSolution(p, q, 1.0, 0.0, 0, (1.0, 1.0))
    lo, hi = INITIAL_LO, 1.0
    while _f(lo, p, q) >= 0.0:
        lo /= 10.0
        if lo < 1e-30:
            raise RuntimeError(f"no sign change found for pair ({p}, {q})")
    iterations = 0
    while hi - lo > X_TOL and iterations < MAX_ITER:
        mid = 0.5 * (lo + hi)
        if _f(mid, p, q) < 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    x = 0.5 * (lo + hi)
    with mp.workdps(STRICT_DPS):
        residual = float(abs(mp.power(q, x) - mp.power(p, x) - 1))
    return ExponentSolution(p, q, x, residual, iterations, (lo, hi))


# pairs per bisection batch in the min/max scans; after the first batch
# most pairs are dropped before bisection, so a small batch keeps the
# unpruned first one cheap
SCAN_BATCH = 4096
# a pair whose root lies beyond the current best by more than this cannot
# come within the 1e-9 tie window of _argmin_beats: the binary64 error of
# q^t - p^t, divided by f'(t) >= ln q, moves a root by far less
PRUNE_MARGIN = 1e-6


def _roots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized bisection of q^x - p^x = 1 for the pairs (p[i], q[i]).

    60 halvings of [0, 1] reach ~1e-18 interval width, beyond float64
    resolution.
    """
    pf = p.astype(np.float64)
    qf = q.astype(np.float64)
    lo = np.zeros(pf.size)
    hi = np.ones(pf.size)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        neg = qf**mid - pf**mid < 1.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    x = 0.5 * (lo + hi)
    # gap-1 pairs sit exactly at x = 1
    x[q - p == 1] = 1.0
    return x


def _extreme_root(limit: int, sign: float) -> Tuple[tuple, int]:
    """The pair with p < limit whose root x minimizes sign * x, as
    (sign * x, p, q), and the number of pairs scanned.

    f(x) = q^x - p^x - 1 increases in x, so a root lies at or below t
    exactly when q^t - p^t >= 1.  Once a best root exists, only the pairs
    whose root can still come within PRUNE_MARGIN of it are bisected.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    best: Optional[tuple] = None  # (sign * x, p, q)
    count = 0
    for blk in gaps.pair_blocks(2, limit):
        count += blk.p.size
        for s in range(0, blk.p.size, SCAN_BATCH):
            p = blk.p[s : s + SCAN_BATCH]
            q = blk.q[s : s + SCAN_BATCH]
            if best is not None:
                t = sign * best[0] + sign * PRUNE_MARGIN  # x_best, widened
                d = q.astype(np.float64) ** t - p.astype(np.float64) ** t
                # root <= t (min scan) or root >= t (max scan)
                keep = np.flatnonzero(d >= 1.0 if sign > 0 else d <= 1.0)
                if not keep.size:
                    continue
                p, q = p[keep], q[keep]
            key = sign * _roots(p, q)
            top = key.min()
            for i in np.flatnonzero(key <= top + 1e-12):
                cand = (float(key[i]), int(p[i]), int(q[i]))
                if best is None or _argmin_beats(cand, best, negate=sign < 0):
                    best = cand
    return best, count


def min_exponent(limit: int) -> Tuple[ExponentSolution, int]:
    """The pair with p < limit whose exponent root is smallest, and the
    number of pairs scanned."""
    best, count = _extreme_root(limit, 1.0)
    return solve_exponent(best[1], best[2]), count


def max_exponent(limit: int) -> ExponentSolution:
    """The pair with p < limit whose exponent root is largest."""
    best, _ = _extreme_root(limit, -1.0)
    return solve_exponent(best[1], best[2])


def _argmin_beats(cand: tuple, best: tuple, negate: bool) -> bool:
    # near-ties get refined with scalar bisection before comparing;
    # exact ties go to the smaller p
    kc, kb = cand[0], best[0]
    if abs(kc - kb) <= 1e-9:
        s = -1.0 if negate else 1.0
        kc = s * solve_exponent(cand[1], cand[2]).x
        kb = s * solve_exponent(best[1], best[2]).x
    if kc != kb:
        return kc < kb
    return cand[1] < best[1]
