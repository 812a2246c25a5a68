"""Exact prime oracle: a segmented sieve for prime streams and dense batch
counts, a Legendre-sum count for single values of pi(x), the n-th prime, and
capped prime counts of many intervals.

Everything downstream (gap metrics, conjecture scans, the pi(x) comparison)
uses this module as its exact prime oracle.  The sieve is odd-only and
segmented so that scans near 10^8..10^9 run in bounded memory; prime_count
touches only O(sqrt x) values, so a single pi(x) never sieves up to x; and
capped_counts finds each interval's first few primes by deterministic
Miller-Rabin, so it never sieves below the intervals.
"""

from __future__ import annotations

import functools
import math
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


def check_range(lo: int, hi: int) -> None:
    """Refuse a range [lo, hi) to scan for primes that is empty, starts
    below 0 or ends past 2^63 - 1."""
    if not 0 <= lo < hi:
        raise ValueError(f"invalid range [{lo}, {hi})")
    if hi > MAX_VALUE:
        raise CapacityError(f"range end {hi} exceeds 2^63-1")


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
def _odd_mask(primes: tuple) -> np.ndarray:
    """Two periods of the odd-index mask with every odd multiple of `primes`
    struck (the primes themselves too); entry i stands for the odd number
    2i + 1 and the period is the primes' product.  Two periods hold a
    period-long slice at every phase."""
    mask = np.ones(2 * math.prod(primes), dtype=bool)
    for p in primes:
        mask[p // 2 :: p] = False
    mask.flags.writeable = False  # shared by every call
    return mask


def _odd_offsets(lo: int, primes: np.ndarray) -> np.ndarray:
    """For odd lo, the odd-index offset from lo of each prime's first odd
    multiple >= max(lo, p^2).  Worked out relative to lo, so lo + p is
    never formed and int64 is exact up to 2^63 - 1."""
    r = -lo % primes  # lo + r is the first multiple >= lo
    r += (r & 1) * primes  # lo is odd, so an odd r lands on an even multiple
    return np.maximum(r, primes * primes - lo) // 2


def segment_masks(lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (seg_lo, seg) for the odd numbers of [lo, hi), a range that
    `check_range` accepts, with lo >= 2: seg is the odd-only mask of one
    segment, entry i standing for seg_lo + 2i and true where that number
    is prime.  The mask is a view of one buffer that the next segment
    overwrites.

    Each segment is copied from the pre-sieved pattern, then struck by the
    base primes above PATTERN_PRIMES whose square lies below the segment's
    end.  Every base prime's next offset is carried from one segment to the
    next, never recomputed.
    """
    lo |= 1
    if lo >= hi:
        return
    base = base_sieve(math.isqrt(hi - 1))
    base = base[base > PATTERN_PRIMES[-1]]
    plist = base.tolist()
    nxt = _odd_offsets(lo, base)
    pattern = _odd_mask(PATTERN_PRIMES)
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
        yield seg_lo, seg


def mask_primes(seg_lo: int, seg: np.ndarray) -> np.ndarray:
    """The primes of a segment mask of `segment_masks`, as an int64 array."""
    block = np.flatnonzero(seg)
    block *= 2
    block += seg_lo
    return block


def prime_blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi) as ascending int64 arrays: [2] where
    the range holds it, then one array per segment of `segment_masks` that
    holds a prime."""
    check_range(lo, hi)
    if hi <= 2:
        return
    if lo <= 2:
        yield np.array([2], dtype=np.int64)
        lo = 3
    for seg_lo, seg in segment_masks(lo, hi):
        block = mask_primes(seg_lo, seg)
        if block.size:
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
    magnitude are needed; the tests hold capped_counts to it.  The count below
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


# ---------------------------------------------------------------------------
# capped interval counts: the first few primes past each start, found by a
# small pre-sieve and an exact Miller-Rabin test, with no sieve below them

# values up to here are looked up: base 61 below calls 61 itself composite
SMALL_MAX = 61
# odd candidates per open interval per round
WINDOW_ODDS = 12
# odd primes after PATTERN_PRIMES struck by residue tables, one per group;
# the largest period is 43 * 47 * 53 = 107 113 entries
FILTER_GROUPS = ((19, 23, 29), (31, 37, 41), (43, 47, 53))
U32 = 1 << 32
# Jaeschke (1993): no strong pseudoprime to all of {2, 7, 61} below
# 4 759 123 141, nor to all of {2, 13, 23, 1662803} below 1 122 004 669 633;
# Sinclair (2011): none to all seven bases below 2^64
JAESCHKE_3 = (4_759_123_141, (2, 7, 61))
JAESCHKE_4 = (1_122_004_669_633, (2, 13, 23, 1662803))
SINCLAIR = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _sprp_u32(n: np.ndarray, base: int) -> np.ndarray:
    """Whether each odd n (uint64, base < n < 2^32) is a strong probable
    prime to `base`.  Every residue and every power of `base` multiplied
    in is below 2^32, so each product is below 2^64 and exact."""
    nm1 = n - 1
    low = nm1 & (~nm1 + 1)  # the lowest set bit of n - 1
    s = np.frexp(low.astype(np.float64))[1] - 1  # n - 1 = d * 2^s, d odd
    d = nm1 >> s.astype(np.uint64)
    del low
    # base^d left to right, w bits of d at a time: w squarings, then one
    # product with base^(those bits), the widest window whose powers of
    # base stay below 2^32; in place, so that few arrays are alive at once
    w = 1
    while base ** (2 ** (w + 1) - 1) < U32:
        w += 1
    powers = np.array([base**j for j in range(2**w)], dtype=np.uint64)
    x = np.ones_like(n)
    for shift in range(-(-int(d.max()).bit_length() // w) * w - w, -1, -w):
        for _ in range(w):
            np.multiply(x, x, out=x)
            np.remainder(x, n, out=x)
        np.multiply(x, powers[(d >> shift) & (2**w - 1)], out=x)
        np.remainder(x, n, out=x)
    del d
    ok = (x == 1) | (x == nm1)
    # square on only while some n has squarings left and no witness yet
    live = np.flatnonzero(~ok & (s > 1))
    x, n, nm1, s = x[live], n[live], nm1[live], s[live] - 1
    while live.size:
        x = x * x % n
        hit = x == nm1
        ok[live[hit]] = True
        more = ~hit & (s > 1)
        live, x, n, nm1, s = live[more], x[more], n[more], nm1[more], s[more] - 1
    return ok


def _is_prime_int(n: int) -> bool:
    """Strong-probable-prime test of an odd n > SMALL_MAX below 2^64, to a
    base set with no strong pseudoprime below n, so exact."""
    if n < JAESCHKE_3[0]:
        bases = JAESCHKE_3[1]
    elif n < JAESCHKE_4[0]:
        bases = JAESCHKE_4[1]
    else:
        bases = SINCLAIR
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_odd(v: np.ndarray) -> np.ndarray:
    """Exact primality of odd int64 values above SMALL_MAX: vectorised
    Miller-Rabin to the bases {2, 7, 61} below 2^32, Python ints above."""
    out = np.zeros(v.size, dtype=bool)
    small = v < U32
    n = v[small].astype(np.uint64)
    ok = np.ones(n.size, dtype=bool)
    for base in JAESCHKE_3[1]:  # most composites fail base 2 alone
        if ok.any():
            ok[ok] = _sprp_u32(n[ok], base)
    out[small] = ok
    if not small.all():
        out[~small] = [_is_prime_int(x) for x in v[~small].tolist()]
    return out


def capped_counts(a, b, cap: int) -> np.ndarray:
    """min(#primes in (a, b], cap) for each pair of ends of the 1-D int64
    arrays a and b.

    Exact without sieving below the intervals: values up to SMALL_MAX are
    looked up, and each interval's odd candidates above it are walked
    WINDOW_ODDS at a time, across every interval still below the cap, so
    a round's arrays grow with the number of intervals.  A candidate
    survives when no odd prime up to 53 divides it (residue tables indexed
    from each interval's start phase, so no division per candidate) and is
    then tested by Miller-Rabin to bases with no strong pseudoprime below
    it.  The work per interval grows with its first `cap` primes, not with
    its length or height.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if cap <= 0:
        return np.zeros(a.size, dtype=np.int64)
    small = base_sieve(SMALL_MAX)
    counts = np.maximum(np.searchsorted(small, b, side="right")
                        - np.searchsorted(small, a, side="right"), 0)
    floor = np.maximum(a, SMALL_MAX)
    rows = np.flatnonzero((counts < cap) & (b > floor))
    start = (floor[rows] + 1) | 1  # the first odd above a and 61; b > floor,
    left = (b[rows] - start) // 2 + 1  # so neither wraps: odd candidates
    filters = [(math.prod(g), _odd_mask(g))
               for g in (PATTERN_PRIMES, *FILTER_GROUPS)]
    phases = [((start // 2) % period).astype(np.int32)
              for period, _ in filters]
    k = np.arange(WINDOW_ODDS, dtype=np.int32)
    while rows.size:
        keep = k < left[:, None]
        for (_, mask), phase in zip(filters, phases):
            keep &= mask[phase[:, None] + k]
        r, c = np.nonzero(keep)
        hit = _is_prime_odd(start[r] + 2 * c)
        counts[rows] += np.bincount(r[hit], minlength=rows.size)
        # an interval stays open while it is below the cap and has more
        # candidates; the others drop out before any start moves past b
        still = (counts[rows] < cap) & (left > WINDOW_ODDS)
        rows, start, left = rows[still], start[still], left[still]
        start += 2 * WINDOW_ODDS
        left -= WINDOW_ODDS
        for t, (period, _) in enumerate(filters):
            phase = phases[t][still] + WINDOW_ODDS
            phase[phase >= period] -= period
            phases[t] = phase
    np.minimum(counts, cap, out=counts)
    return counts


def _nth_prime_bound(n: int) -> int:
    """An integer above p_n: Rosser and Schoenfeld (1962) prove
    p_n < n (ln n + ln ln n) for n >= 6, and p_5 = 11."""
    if n < 6:
        return 14
    ln = math.log(n)
    return math.ceil(n * (ln + math.log(ln)))


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
