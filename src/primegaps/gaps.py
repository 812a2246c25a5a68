"""Consecutive-prime pairs with derived gap metrics, plus running extremes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import bounds, sieve


@dataclass(frozen=True)
class GapRecord:
    """One consecutive-prime pair (p, q) and the metrics every checker needs.

    n is the 1-based index of p.  All real-valued metrics are binary64;
    near-threshold verdicts are re-derived at higher precision by the
    bounds module, not here.
    """

    n: int
    p: int
    q: int
    gap: int
    log_p: float
    andrica: float
    cramer_ratio: float
    kourbatov_margin: float
    ratio: float

    @classmethod
    def from_pair(cls, n: int, p: int, q: int) -> "GapRecord":
        gap = q - p
        log_p = math.log(p)
        return cls(
            n=n,
            p=p,
            q=q,
            gap=gap,
            log_p=log_p,
            andrica=math.sqrt(q) - math.sqrt(p),
            cramer_ratio=gap / log_p**2,
            kourbatov_margin=(log_p**2 - log_p - 1.0) - gap,
            ratio=q / p,
        )


@dataclass
class PairBlock:
    """A run of `count` consecutive pairs, from prime number n0 on.

    A dense block holds every pair of its run: p[i] is prime number n0 + i
    and q[i] = p[i + 1].  A gated block holds only the pairs of its run
    whose gap reaches the gate, and p[i] is prime number n[i].
    """

    n0: int
    p: np.ndarray
    q: np.ndarray
    n: Optional[np.ndarray] = None
    count: Optional[int] = None

    def __post_init__(self):
        if self.count is None:
            self.count = self.p.size

    def index(self, at):
        """The prime numbers of the pairs at the positions `at`."""
        return self.n0 + at if self.n is None else self.n[at]


# span sieved past hi, so that one stream also holds the successor of the
# range's last prime; prime gaps below 2^63 stay under 1600, so the stream
# ends without a prime >= hi only where it is cut short by 2^63 - 1
NEXT_PRIME_WINDOW = 2048
# most pairs per block: a block's dozen float arrays then stay in the core's
# cache and come from reused heap memory (on a 2-vCPU Xeon this halved the
# time of gap-bounds on a sieve segment of ~1e5 pairs)
PAIR_SLICE = 1 << 14


def _slices(n0: int, block: np.ndarray, pairs: int) -> Iterator[PairBlock]:
    """The first `pairs` pairs of the ascending primes `block`, the first
    being prime number n0, as dense blocks of at most PAIR_SLICE pairs."""
    for s in range(0, pairs, PAIR_SLICE):
        e = min(s + PAIR_SLICE, pairs)
        yield PairBlock(n0=n0 + s, p=block[s:e], q=block[s + 1 : e + 1])


def _wide_pairs(seg: np.ndarray, gate: int) -> tuple:
    """The positions (i, j) of the consecutive primes of the segment mask
    `seg` whose gap 2 (j - i) is at least `gate` >= 32, both in `seg`.

    The mask is read in words of the widest W of 64, 32, 16 and 8 entries
    with 4W <= gate: a gap of 4W or more spans 2W - 1 odd entries or more,
    so it holds a whole zero word, and the set entries on either side of
    each run of zero words give a candidate.  A run at either end of the
    mask has no set entry on that side.
    """
    width = next(w for w in (64, 32, 16, 8) if 4 * w <= gate)
    packed = np.packbits(seg)
    buf = np.zeros(-(-packed.size * 8 // width) * width // 8, np.uint8)
    buf[: packed.size] = packed
    words = buf.view(f"u{width // 8}")
    zero = np.flatnonzero(words == 0)
    left = zero[np.diff(zero, prepend=-2) > 1] - 1  # the word before a run
    right = zero[np.diff(zero, append=words.size + 1) > 1] + 1  # and after
    inner = (left >= 0) & (right < words.size)
    left, right = left[inner], right[inner]
    rows = buf.reshape(-1, width // 8)
    before = np.unpackbits(rows[left], axis=1)  # each word's entries
    after = np.unpackbits(rows[right], axis=1)
    i = left * width + width - 1 - before[:, ::-1].argmax(axis=1)
    j = right * width + after.argmax(axis=1)
    keep = 2 * (j - i) >= gate
    return i[keep], j[keep]


def _last_set(seg: np.ndarray) -> int:
    """The position of the last set entry of a mask that holds one, found
    from the end in spans that double."""
    span = 256
    while not seg[-span:].any():
        span *= 2
    tail = seg[-span:]
    return seg.size - tail.size + int(np.flatnonzero(tail)[-1])


def _gated(n0: int, pairs: int, carry: Optional[int], seg_lo: int,
           seg: np.ndarray, gate: int) -> PairBlock:
    """The gated block of the `pairs` pairs whose q lies in the segment mask
    `seg`: the pair from `carry`, the last prime before it and prime number
    n0, to its first prime, then the pairs inside it, kept where their gap
    is at least `gate`.  Each pair's n counts the set entries before its
    p."""
    first = int(seg.argmax())
    i, j = _wide_pairs(seg, gate)
    n = np.empty(i.size, np.int64)
    seen, at = n0 + (carry is not None), 0
    for k, pos in enumerate(i.tolist()):
        seen += int(np.count_nonzero(seg[at:pos]))
        n[k], at = seen, pos
    p, q = seg_lo + 2 * i, seg_lo + 2 * j
    if carry is not None and seg_lo + 2 * first - carry >= gate:
        n = np.concatenate(([n0], n))
        p = np.concatenate(([carry], p))
        q = np.concatenate(([seg_lo + 2 * first], q))
    return PairBlock(n0, p, q, n, pairs)


def pair_blocks(lo: int, hi: int, gate: Optional[Callable] = None
                ) -> Iterator[PairBlock]:
    """Stream consecutive-prime pairs (p, q) with lo <= p < hi, in blocks
    cut within each sieve segment, each block standing for a run of
    consecutive pairs.

    One sieve stream runs NEXT_PRIME_WINDOW past hi and is cut at its
    first prime >= hi, so q of the last pair is that prime; a stream with
    no prime >= hi raises CapacityError.  n0 of the first block is the
    prime index of its first p.

    Without a gate, every block is dense, of at most PAIR_SLICE pairs.
    With one, the stream's first sieve segment, where the caller has seen
    no pair yet, is read as without, through `sieve.prime_blocks`, and the
    rest from `sieve.segment_masks`: for the pairs whose q lies in a
    segment, from p0 on and up to prime number n1, gate(p0, n1) is G, the
    least gap the caller needs.  Where G < 32 the segment's pairs are dense
    blocks; otherwise one gated block holds the pairs with a gap of at
    least G.
    """
    sieve.check_range(lo, hi)
    end = min(hi + NEXT_PRIME_WINDOW, sieve.MAX_VALUE)
    n0 = sieve.prime_count(lo - 1) + 1 if lo > 2 else 1
    # past `split` the stream is read as masks; n0 is the number of
    # `carry`, the last prime so far, or of the first prime to come
    split = end if gate is None else min(
        end, (max(lo, 2) | 1) + 2 * sieve.SEGMENT_ODDS)
    carry: Optional[int] = None
    for block in sieve.prime_blocks(lo, split):
        if carry is not None:
            block = np.concatenate(([carry], block))
        cut = int(np.searchsorted(block, hi))  # first prime >= hi
        yield from _slices(n0, block, min(cut, block.size - 1))
        if cut < block.size:
            return
        n0 += block.size - 1
        carry = int(block[-1])
    for seg_lo, seg in sieve.segment_masks(split, end):
        last = False
        if seg_lo + 2 * seg.size > hi:  # cut at the first prime >= hi
            at = max(0, (hi - seg_lo + 1) // 2)
            if seg[at:].any():
                seg, last = seg[: at + int(seg[at:].argmax()) + 1], True
        count = int(np.count_nonzero(seg))
        if not count:  # a segment inside a gap: the carry stays
            continue
        pairs = count - (carry is None)
        if pairs:
            p0 = seg_lo + 2 * int(seg.argmax()) if carry is None else carry
            g = min(gate(p0, n0 + pairs - 1), sieve.MAX_VALUE)
            if g < 32:  # below 4 words of 8 entries
                block = sieve.mask_primes(seg_lo, seg)
                if carry is not None:
                    block = np.concatenate(([carry], block))
                yield from _slices(n0, block, pairs)
            else:
                yield _gated(n0, pairs, carry, seg_lo, seg, g)
            n0 += pairs
        carry = seg_lo + 2 * _last_set(seg)
        if last:
            return
    raise sieve.CapacityError(f"no prime in [{hi}, {end})")


# Each metric of a pair with gap g is g f + c, where f falls with p.  A run
# of pairs with p in [p0, p1] and every q <= q1 gives (f_lo, f_hi, c, err):
# every binary64 value of the metric at gap g, numpy's or GapRecord's, lies
# within err of [(g f_lo + c)(1 - r), (g f_hi + c)(1 + r)], where r, a few
# dozen units of u = 2^-53, covers the rounding of the values and of f_lo
# and f_hi.  A difference of two roots or powers cancels: by the proof at
# bounds.TERM_REL_ERR, sqrt(x) is within 1.5u of its exact value and x^e
# within 31u, so their difference is within 63u of the larger term, at
# most sqrt(q1) or q1^e, and err is TERM_REL_ERR times that term.
@dataclass(frozen=True)
class Metric:
    """One metric of the pairs (g, p, q) from p = floor on, as above.

    factors(p0, p1, q1) gives (f_lo, f_hi, c, err) for a run of pairs, and
    values(g, p, q) the binary64 values at arrays of pairs, which the
    tracker compares.  beats(a, b) breaks ties: whether the record a
    displaces the record b, each a (value, GapRecord) pair.
    """

    factors: Callable
    values: Callable
    beats: Callable
    floor: int = 2


def _by_field(name: str) -> Callable:
    """The larger GapRecord field `name` beats, an equal one at a smaller n."""
    return lambda a, b: ((getattr(a[1], name), -a[1].n)
                         > (getattr(b[1], name), -b[1].n))


# the extremes of the gap bounds
METRICS = {
    "cramer_ratio": Metric(
        lambda p0, p1, q1: (math.log(p1) ** -2, math.log(p0) ** -2, 0.0, 0.0),
        lambda g, p, q: g / np.log(p) ** 2,
        _by_field("cramer_ratio"), bounds.KOURBATOV_FLOOR),
    "andrica": Metric(
        lambda p0, p1, q1: (0.5 / math.sqrt(q1), 0.5 / math.sqrt(p0),
                            0.0, bounds.TERM_REL_ERR * math.sqrt(q1)),
        lambda g, p, q: np.sqrt(q) - np.sqrt(p), _by_field("andrica")),
    "gap": Metric(lambda p0, p1, q1: (1.0, 1.0, 0.0, 0.0),
                  lambda g, p, q: g, _by_field("gap")),
    # q/p ranked exactly, in integers: q1 p2 against q2 p1
    "ratio": Metric(lambda p0, p1, q1: (1.0 / p1, 1.0 / p0, 1.0, 0.0),
                    lambda g, p, q: q / p, lambda a, b: (
                        (a[1].q * b[1].p, -a[1].n)
                        > (b[1].q * a[1].p, -b[1].n))),
}


def power_metric(e: float) -> Metric:
    """q^e - p^e for an exponent e in (0, 1), ranked by its numpy binary64
    value.  By the mean value theorem it is e x^(e-1) g for some x in
    (p, q), and that value lies within TERM_REL_ERR q^e of it."""
    return Metric(
        lambda p0, p1, q1: (e * q1 ** (e - 1), e * p0 ** (e - 1), 0.0,
                            bounds.TERM_REL_ERR * q1**e),
        lambda g, p, q: q**e - p**e,
        lambda a, b: (a[0], -a[1].n) > (b[0], -b[1].n))


# Relative slack of the candidate rule of ExtremeTracker.observe_block: the
# tie rule's 1e-12, twice r, and the rounding of the rule itself.
CANDIDATE_SLACK = 1e-11


class ExtremeTracker:
    """The record of each metric of `metrics`, a dict of Metric by name:
    `records[name]` is the (value, GapRecord) that beats every other pair
    observed from the metric's floor on, or None before the first."""

    def __init__(self, metrics: dict):
        self.metrics = metrics
        self.records: dict = dict.fromkeys(metrics)

    def least_gap(self, p0: int, q1: int) -> int:
        """The least gap with which a pair with p >= p0 and q <= q1 can tie
        or beat a record, by the block rule of `observe_block`: 2 while a
        record is unset or p0 lies below a metric's floor."""
        least = sieve.MAX_VALUE
        for name, metric in self.metrics.items():
            best = self.records[name]
            if best is None or p0 < metric.floor:
                return 2
            _, f_hi, c, err = metric.factors(p0, q1, q1)
            reach = ((best[0] - err) / (1 + CANDIDATE_SLACK) - c) / f_hi
            least = min(least, max(math.floor(reach), 2))
        return least

    def observe_block(self, blk: PairBlock, gap: np.ndarray) -> None:
        """Observe every pair of `blk`, whose gaps q - p are `gap`.

        For each metric, the pairs tied (to float fuzz) with the block's
        largest value are observed, so that the winner never depends on how
        blocks were cut.  The values are computed only where they can
        matter: by the metric's factors, no pair of a block whose largest
        gap bounds every value below the record can beat it, and every pair
        tied with the block's top has a gap of at least `cut`.
        """
        if not gap.size:
            return
        records: dict[int, GapRecord] = {}  # one record per observed pair
        whole = int(gap.max())
        for name, metric in self.metrics.items():
            s = int(blk.p.searchsorted(metric.floor))
            if s == gap.size:
                continue
            best = self.records[name]
            top_gap = whole if s == 0 else int(gap[s:].max())
            f_lo, f_hi, c, err = metric.factors(
                int(blk.p[s]), int(blk.p[-1]), int(blk.q[-1]))
            if best is not None and ((top_gap * f_hi + c)
                                     * (1 + CANDIDATE_SLACK) + err < best[0]):
                continue
            cut = ((top_gap * f_lo + c) * (1 - CANDIDATE_SLACK)
                   - 2 * err - c) / f_hi
            at = s + np.flatnonzero(gap[s:] >= cut)
            vals = metric.values(gap[at], blk.p[at], blk.q[at])
            top = vals.max()
            near = vals >= top - 1e-12 * abs(top)
            for j, value in zip(at[near].tolist(), vals[near].tolist()):
                if j not in records:
                    records[j] = GapRecord.from_pair(
                        int(blk.index(j)), int(blk.p[j]), int(blk.q[j]))
                if best is None or metric.beats((value, records[j]), best):
                    best = (value, records[j])
            self.records[name] = best
