"""Panaitopol's pi(x) expansion: exact integer coefficients by the factorial
recurrence, plus evaluation of the approximation against exact counts.

The coefficients k_1, k_2, ... satisfy

    k_m + 1!*k_{m-1} + 2!*k_{m-2} + ... + (m-1)!*k_1 = m * m!

and the approximation is x / (ln x - 1 - sum_i k_i / (ln x)^i).  The
vanishing correction factor on the last term is taken as zero, so the
reported rel_error absorbs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import sieve


@dataclass(frozen=True)
class CoefficientTable:
    """Exact integer coefficients k_1..k_n of the expansion."""

    k: tuple

    def __len__(self) -> int:
        return len(self.k)


def coefficients(n: int) -> CoefficientTable:
    """First n coefficients by the factorial recurrence, in exact arithmetic."""
    if n < 1:
        raise ValueError("need at least one coefficient")
    k: list[int] = []
    for m in range(1, n + 1):
        acc = m * math.factorial(m)
        for j in range(1, m):
            acc -= math.factorial(j) * k[m - j - 1]
        k.append(acc)
    return CoefficientTable(k=tuple(k))


@dataclass(frozen=True)
class PiApproxResult:
    x: int
    terms: int
    approx: float
    exact: int
    rel_error: float


def approx_only(x: int, terms: int, table: CoefficientTable = None) -> float:
    """The series approximation of pi(x) without the exact-count comparison."""
    if x < 2:
        raise ValueError("x must be >= 2")
    log_x = math.log(x)
    if log_x <= 2.0:
        raise ValueError(f"x = {x} rejected: ln x <= 2 puts the series "
                         "outside its usable domain")
    if terms < 0:
        raise ValueError("terms must be >= 0")
    if table is None or len(table) < terms:
        table = coefficients(max(terms, 1))
    denom = log_x - 1.0
    try:
        # smallest terms first so the float sum loses as little as possible
        for i in range(terms, 0, -1):
            denom -= table.k[i - 1] / log_x**i
    except OverflowError:  # a term past binary64: every k_i > 0, so the
        denom = -math.inf  # series has diverged here
    if denom <= 0.0:
        raise ValueError(
            f"non-positive denominator for x={x}, terms={terms}; "
            "the expansion diverges here"
        )
    return x / denom


def pi_approx(x: int, terms: int) -> PiApproxResult:
    """Evaluate the approximation at x and compare with the exact pi(x)."""
    return error_table([x], [terms])[0]


def error_table(x_values, terms_values) -> list[PiApproxResult]:
    """Cross-product of x and term counts, row-major by x then terms."""
    terms_values = [int(t) for t in terms_values]  # read once, for every x
    table = coefficients(max(terms_values + [1]))
    # every approximation first, so that a bad x or term count is refused
    # before any pi(x) is counted
    rows = [(x, terms, approx_only(x, terms, table))
            for x in map(int, x_values) for terms in terms_values]
    # a few far-apart x: one sublinear count each beats a sieve to max(xs)
    exact_at = {x: sieve.prime_count(x)
                for x in dict.fromkeys(x for x, _, _ in rows)}
    return [PiApproxResult(x=x, terms=terms, approx=approx, exact=exact_at[x],
                           rel_error=abs(approx - exact_at[x]) / exact_at[x])
            for x, terms, approx in rows]
