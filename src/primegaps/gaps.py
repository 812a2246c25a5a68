"""Consecutive-prime pairs with derived gap metrics, plus running extremes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from . import sieve


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
    """A vectorized run of consecutive pairs: p[i] is prime number n0 + i
    and q[i] = p[i + 1]."""

    n0: int
    p: np.ndarray
    q: np.ndarray


# first window sieved for the successor of a range's last prime; prime gaps
# below 2^63 stay under 1600, so one window almost always suffices
NEXT_PRIME_WINDOW = 2048
# most pairs per block: a block's dozen float arrays then stay in the core's
# cache and come from reused heap memory (on a 2-vCPU Xeon this halved the
# time of gap-bounds on a sieve segment of ~1e5 pairs)
PAIR_SLICE = 1 << 14


def pair_blocks(lo: int, hi: int) -> Iterator[PairBlock]:
    """Stream consecutive-prime pairs (p, q) with lo <= p < hi, in blocks
    of at most PAIR_SLICE pairs, cut within each sieve segment.

    q of the last pair is looked up past hi, so every p in range gets its
    successor.  n0 of the first block is the prime index of its first p.
    """
    rng = sieve.PrimeRange(lo, hi)
    n0 = sieve.prime_count(rng.lo - 1) + 1 if rng.lo > 2 else 1
    carry: Optional[int] = None
    for block in sieve.prime_blocks(rng.lo, rng.hi):
        if carry is not None:
            block = np.concatenate(([carry], block))
        pairs = block.size - 1
        for s in range(0, pairs, PAIR_SLICE):
            e = min(s + PAIR_SLICE, pairs)
            yield PairBlock(n0=n0 + s, p=block[s:e], q=block[s + 1 : e + 1])
        n0 += pairs
        carry = int(block[-1])
    if carry is not None:
        succ = _next_prime_after(carry)
        yield PairBlock(
            n0=n0,
            p=np.array([carry], dtype=np.int64),
            q=np.array([succ], dtype=np.int64),
        )


def _next_prime_after(p: int) -> int:
    # sieve a small window past p and double it until a prime shows up;
    # Bertrand guarantees one below 2p, so 2p + 2 caps the window
    cap = 2 * p + 2
    width = NEXT_PRIME_WINDOW
    while True:
        hi = min(p + 1 + width, cap)
        for block in sieve.prime_blocks(p + 1, hi):
            return int(block[0])
        if hi == cap:
            raise RuntimeError(f"no prime found after {p}")
        width *= 2


@dataclass
class ExtremeTracker:
    """Records attaining the maximum of each metric; ties go to smallest n."""

    max_gap: Optional[GapRecord] = None
    max_cramer_ratio: Optional[GapRecord] = None
    max_andrica: Optional[GapRecord] = None
    max_ratio: Optional[GapRecord] = None

    def observe_block(
        self, blk: PairBlock, metrics: Mapping[str, np.ndarray]
    ) -> None:
        """Observe every pair of `blk`.

        `metrics` maps each metric name to its values, already computed by
        the caller.  An array shorter than the block holds the values of its
        last pairs only, and only those pairs are observed for that metric;
        an empty array skips the metric.
        """
        records: dict[int, GapRecord] = {}  # one record per observed pair
        for metric, values in metrics.items():
            if not values.size:
                continue
            offset = blk.p.size - values.size
            field = f"max_{metric}"
            best = getattr(self, field)
            # observe every index tied (to float fuzz) with the block max so
            # the winner never depends on how blocks were partitioned
            top = values.max()
            for i in np.flatnonzero(values >= top - 1e-12 * abs(top)):
                j = offset + int(i)
                if j not in records:
                    records[j] = GapRecord.from_pair(
                        blk.n0 + j, int(blk.p[j]), int(blk.q[j]))
                rec = records[j]
                if best is None or ((getattr(rec, metric), -rec.n)
                                    > (getattr(best, metric), -best.n)):
                    best = rec
            setattr(self, field, best)
