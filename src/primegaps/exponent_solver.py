"""Solve q^x - p^x = 1 for consecutive prime pairs and find the extremes.

f(x) = q^x - p^x - 1 is strictly increasing in x for q > p >= 2, so a sign
bracket pins down the unique root; bisection keeps the bracket valid
unconditionally, which Newton would not.  Each sign is read from the log of
q^x - p^x, which binary64 gets right for any p, and the root found is
checked at strict precision before it is returned.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Tuple

import mpmath as mp
import numpy as np

from . import bounds, gaps
from .bounds import STRICT_DPS, num

X_TOL = 1e-13
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


def _f_sign(x, ln_p, ln_ratio, m=math):
    """A number with the sign of f(x) = q^x - p^x - 1, given ln p and
    ln(q/p): the log of q^x - p^x = p^x expm1(x ln(q/p)), in module `m`'s
    arithmetic (math, or mpmath at its working precision).  It has no
    cancellation, so its sign stays right as p grows; f in binary64 loses
    it (at p ~ 1e18, q^x and p^x round to the same float)."""
    return x * ln_p + m.log(m.expm1(x * ln_ratio))


def solve_exponent(p: int, q: int) -> ExponentSolution:
    """The unique x in (0, 1] with q^x - p^x = 1 for the pair (p, q), to
    within X_TOL: the root is checked to lie within X_TOL of x at
    STRICT_DPS digits, and a ValueError refuses an x that is not."""
    if q <= p or p < 2:
        raise ValueError(f"({p}, {q}) is not an ascending prime pair")
    if q > sys.float_info.max:
        raise ValueError(f"q has {q.bit_length()} bits, past binary64, "
                         "in which the root is solved")
    if q - p == 1:
        # only (2, 3); f(1) = 0 exactly
        return ExponentSolution(p, q, 1.0, 0.0, 0, (1.0, 1.0))
    ln_p, ln_ratio = math.log(p), math.log1p((q - p) / p)
    lo, hi = INITIAL_LO, 1.0
    while _f_sign(lo, ln_p, ln_ratio) >= 0.0:
        lo /= 10.0
        if lo < 1e-30:
            raise RuntimeError(f"no sign change found for pair ({p}, {q})")
    iterations = 0
    # the bracket lies in (0, 1], so 44 halvings take it below X_TOL
    while hi - lo > X_TOL:
        mid = 0.5 * (lo + hi)
        if _f_sign(mid, ln_p, ln_ratio) < 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    x = 0.5 * (lo + hi)
    with mp.workdps(STRICT_DPS):
        logs = mp.log(p), mp.log1p(mp.mpf(q - p) / p)
        # x +- X_TOL, not the bracket: a root within binary64's error of
        # a bracket end may lie just past it, and x is still good there
        if not (_f_sign(x - X_TOL, *logs, mp) < 0
                < _f_sign(x + X_TOL, *logs, mp)):
            raise ValueError(f"the root of ({p}, {q}) is not within {X_TOL} "
                             f"of x = {x!r} at {STRICT_DPS} digits")
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
    q^t - p^t >= 1, and then its gap reaches the threshold of Smarandache
    B's bound q^t - p^t < 1, which gates the stream at t = best +
    PRUNE_MARGIN (t only falls, so an old gate stays sound).  Each block
    keeps the pairs that pass the test at t, solves the one with the
    largest q^t - p^t, drops it and re-tests the rest, until none is left.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    best = solve_exponent(2, 3)
    count = 0
    for blk in gaps.pair_blocks(2, limit, lambda p0, n1: bounds.power_gap_bound(
            lambda m: num(m, best.x + PRUNE_MARGIN),
            lambda m, n: num(m, 1)).threshold(p0, n1)):
        count += blk.count
        p, q = blk.p, blk.q
        while True:
            t = best.x + PRUNE_MARGIN
            d = gaps.power_metric(lambda m: num(m, t)).value(np, q - p, p, q)
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
