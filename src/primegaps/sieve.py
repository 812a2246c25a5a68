"""Exact prime oracle: a segmented sieve for prime streams and dense batch
counts, a Legendre-sum count for single values of pi(x), and the n-th prime.

Everything downstream (gap metrics, conjecture scans, the pi(x) comparison)
uses this module as its exact prime oracle.  The sieve is odd-only and
segmented so that scans near 10^8..10^9 run in bounded memory; prime_count
touches only O(sqrt x) values, so a single pi(x) never sieves up to x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

MAX_VALUE = 2**63 - 1

# Odd-only entries per segment; each entry covers one odd number, so a
# segment spans twice this many integers.  2^20 was the fastest of 2^18,
# 2^20, 2^21 and 2^22 on a sieve to 3e8.
SEGMENT_ODDS = 1 << 20

# The odd primes struck once into a repeating pattern rather than once per
# segment.  In odd-index space the pattern's period is their product.
PATTERN_PRIMES = (3, 5, 7, 11, 13, 17)
PATTERN_PERIOD = 3 * 5 * 7 * 11 * 13 * 17  # 255 255 entries


class CapacityError(Exception):
    """Requested work exceeds the supported sieve range."""


@dataclass(frozen=True)
class PrimeRange:
    """Half-open integer range [lo, hi) to be scanned for primes."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo < self.hi:
            raise ValueError(f"invalid range [{self.lo}, {self.hi})")
        if self.hi > MAX_VALUE:
            raise CapacityError(f"range end {self.hi} exceeds 2^63-1")


def base_sieve(limit: int) -> np.ndarray:
    """All primes <= limit by a plain one-shot sieve (used for segment seeding)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


@functools.cache
def _pattern() -> np.ndarray:
    """Two periods of the odd-index mask with every odd multiple of
    PATTERN_PRIMES struck (the primes themselves too); entry i stands for
    the odd number 2i + 1.  Two periods hold a period-long slice at every
    phase."""
    pattern = np.ones(2 * PATTERN_PERIOD, dtype=bool)
    for p in PATTERN_PRIMES:
        pattern[p // 2 :: p] = False
    pattern.flags.writeable = False  # shared by every prime_blocks call
    return pattern


def _odd_offsets(lo: int, primes: np.ndarray) -> np.ndarray:
    """For odd lo, the odd-index offset from lo of each prime's first odd
    multiple >= max(lo, p^2).  Worked out relative to lo, so lo + p is
    never formed and int64 is exact up to 2^63 - 1."""
    r = -lo % primes  # lo + r is the first multiple >= lo
    r += (r & 1) * primes  # lo is odd, so an odd r lands on an even multiple
    return np.maximum(r, primes * primes - lo) // 2


def prime_blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi) as ascending int64 arrays, one per segment.

    Each segment is an odd-only mask copied from the pre-sieved pattern,
    then struck by the base primes above PATTERN_PRIMES whose square lies
    below the segment's end.  Every base prime's next offset is carried
    from one segment to the next, never recomputed.
    """
    rng = PrimeRange(lo, hi)
    lo, hi = rng.lo, rng.hi
    if hi <= 2:
        return
    if lo <= 2:
        yield np.array([2], dtype=np.int64)
        lo = 3
    if lo % 2 == 0:
        lo += 1
    if lo >= hi:
        return
    base = base_sieve(math.isqrt(hi - 1))
    base = base[base > PATTERN_PRIMES[-1]]
    plist = base.tolist()
    nxt = _odd_offsets(lo, base)
    pattern = _pattern()
    mask = np.empty(min(SEGMENT_ODDS, (hi - lo + 1) // 2), dtype=bool)
    span = 2 * SEGMENT_ODDS
    for seg_lo in range(lo, hi, span):
        seg_hi = min(seg_lo + span, hi)
        count = (seg_hi - seg_lo + 1) // 2
        seg = mask[:count]
        phase = (seg_lo // 2) % PATTERN_PERIOD
        for j in range(0, count, PATTERN_PERIOD):
            n = min(PATTERN_PERIOD, count - j)
            seg[j : j + n] = pattern[phase : phase + n]
        for p in PATTERN_PRIMES:  # the pattern struck these primes too
            if seg_lo <= p < seg_hi:
                seg[(p - seg_lo) // 2] = True
        k = int(np.searchsorted(base, math.isqrt(seg_hi - 1), side="right"))
        for p, i in zip(plist, nxt[:k].tolist()):
            seg[i::p] = False
        # carry to the next segment: an active prime's next multiple, an
        # inactive one's p^2, both counted from the next segment's start
        nxt -= count
        nxt[:k] %= base[:k]
        block = np.flatnonzero(seg)
        if block.size:
            block *= 2
            block += seg_lo
            yield block


def prime_count(x: int) -> int:
    """Exact pi(x): the number of primes <= x, in O(x^(3/4)) time and
    O(sqrt x) memory.

    Legendre-sum recurrence (Lucy_Hedgehog's form of the Meissel-Lehmer
    base case): S(v) counts the integers in [2, v] that are prime or have
    no prime factor below the current p.  Sifting by p turns S(v) into
    S(v) - (S(v // p) - S(p - 1)) for every v >= p^2, and after every
    prime p <= sqrt x, S(x) = pi(x).  Only the values v = x // k are ever
    needed: `small[v]` holds S(v) for v <= r = isqrt(x) and `large[k]`
    holds S(x // k) for k <= r.  Integer arithmetic throughout; no product
    exceeds x, so int64 is exact.
    """
    if x < 2:
        return 0
    if x > MAX_VALUE:
        raise CapacityError(f"pi({x}) exceeds the supported range 2^63-1")
    r = math.isqrt(x)
    small = np.arange(-1, r, dtype=np.int64)
    quot = np.int64(x) // np.arange(1, r + 1, dtype=np.int64)
    quot = np.concatenate(([0], quot))  # quot[k] = x // k; index 0 unused
    large = quot - 1
    for p in base_sieve(r).tolist():
        sp = int(small[p - 1])  # pi(p - 1)
        p2 = p * p
        kmax = min(r, x // p2)  # the k with x // k >= p^2
        k1 = min(kmax, r // p)  # of those, the k with k * p <= r
        # each right-hand side is built before its update, so every read
        # sees S as it was before sifting by p
        large[1 : k1 + 1] -= large[p : k1 * p + 1 : p] - sp
        if kmax > k1:
            sub = small[quot[k1 + 1 : kmax + 1] // p]
            large[k1 + 1 : kmax + 1] -= sub - sp
        if p2 <= r:
            # small[v // p] for v = p^2 .. r: each small[q] repeated p times
            sub = np.repeat(small[p : r // p + 1], p)[: r + 1 - p2]
            small[p2:] -= sub - sp
    return int(large[1])


def prime_counts_at(values) -> np.ndarray:
    """pi(v) for every v in `values` (a sequence or array, any order), in
    one sieve pass from the smallest value to the largest.

    Cheaper than repeated prime_count calls when many counts near the same
    magnitude are needed (interval checkers rely on this).  The count below
    the smallest value v0 comes from one prime_count(v0 - 1).  Values and
    blocks are both ascending, so each block searches only the values up
    to its last prime.
    """
    vals = np.asarray(values, dtype=np.int64)
    if vals.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]
    counts = np.zeros(vals.size, dtype=np.int64)
    v0, top = int(sorted_vals[0]), int(sorted_vals[-1])
    running = i = 0
    if v0 > 2:
        running = prime_count(v0 - 1)
    if top >= 2:
        for block in prime_blocks(max(v0, 2), top + 1):
            j = int(np.searchsorted(sorted_vals, block[-1], side="right"))
            counts[i:j] = running + np.searchsorted(
                block, sorted_vals[i:j], side="right")
            running += block.size
            i = j
    counts[i:] = running
    out = np.zeros(vals.size, dtype=np.int64)
    out[order] = counts
    return out


# Loose upper bound for p_n, used only to size the nth_prime scan.
def _nth_prime_bound(n: int) -> int:
    if n < 6:
        return 14
    ln = math.log(n)
    return int(n * (ln + math.log(ln)) * 1.2) + 10


def nth_prime(n: int) -> int:
    """The n-th prime (1-based), found by counting through sieve segments."""
    if n < 1:
        raise ValueError("prime index must be >= 1")
    bound = _nth_prime_bound(n)
    if bound > MAX_VALUE:
        raise CapacityError(f"prime index {n} beyond supported range")
    seen = 0
    for block in prime_blocks(2, bound):
        if seen + block.size >= n:
            return int(block[n - seen - 1])
        seen += block.size
    raise CapacityError(f"prime index {n} not reached below bound {bound}")
