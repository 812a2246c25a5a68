"""Solve q^x - p^x = 1 for consecutive prime pairs and find the extremes.

f(x) = q^x - p^x - 1 is strictly increasing in x for q > p >= 2, so a sign
bracket pins down the unique root; bisection keeps the bracket valid
unconditionally, which Newton would not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Tuple

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
    if q > sys.float_info.max:
        raise ValueError(f"q has {q.bit_length()} bits, past binary64, "
                         "in which the root is solved")
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


# a pair whose root is at most the best has q^t - p^t - 1 of at least
# PRUNE_MARGIN * ln q at t = best + PRUNE_MARGIN (f is convex with
# f' >= ln q at its root), far above the binary64 error of q^t - p^t, so
# the pruning test below never drops it
PRUNE_MARGIN = 1e-6


def min_exponent(limit: int) -> Tuple[ExponentSolution, int]:
    """The pair with p < limit whose exponent root is smallest (ties to the
    smaller p), and the number of pairs scanned.

    A descent from (2, 3), whose root 1 is the largest (see max_exponent):
    f increases in x, so a root lies at or below t exactly when
    q^t - p^t >= 1.  Each block keeps the pairs that pass that test at
    t = best + PRUNE_MARGIN, solves the one with the largest q^t - p^t,
    drops it and re-tests the rest, until none is left.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    best = solve_exponent(2, 3)
    count = 0
    for blk in gaps.pair_blocks(2, limit):
        count += blk.p.size
        p, q = blk.p, blk.q
        while True:
            t = best.x + PRUNE_MARGIN
            d = q.astype(np.float64) ** t - p.astype(np.float64) ** t
            keep = d >= 1.0
            p, q, d = p[keep], q[keep], d[keep]
            if not p.size:
                break
            i = int(np.argmax(d))
            sol = solve_exponent(int(p[i]), int(q[i]))
            if (sol.x, sol.p) < (best.x, best.p):
                best = sol
            p, q = np.delete(p, i), np.delete(q, i)
    return best, count


def max_exponent(limit: int) -> ExponentSolution:
    """The pair with p < limit whose exponent root is largest: (2, 3).

    Its root is exactly 1, since q - p = 1.  Every other pair of
    consecutive primes is a pair of odd primes, so q - p >= 2 and
    f(1) = q - p - 1 > 0; f increases in x, so its root lies below 1.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    return solve_exponent(2, 3)
