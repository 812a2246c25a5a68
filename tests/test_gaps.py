import math
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primegaps import cli
from primegaps import conjectures as cj
from primegaps import bounds, gaps, sieve
from conftest import primes_trial


def records(lo, hi):
    """One GapRecord per consecutive pair (p, q) with lo <= p < hi."""
    return [gaps.GapRecord.from_pair(blk.n0 + i, p, q)
            for blk in gaps.pair_blocks(lo, hi)
            for i, (p, q) in enumerate(zip(blk.p.tolist(), blk.q.tolist()))]


def tracked(blocks, cramer_floor=2, metrics=()):
    """The records, by metric, of an ExtremeTracker of gaps.METRICS and of
    `metrics` that observed `blocks`, the Cramer ratio of the pairs from
    p = cramer_floor on; each a (value, GapRecord), or None."""
    cramer = replace(gaps.METRICS["cramer_ratio"], floor=cramer_floor)
    tracker = gaps.ExtremeTracker(
        {**gaps.METRICS, "cramer_ratio": cramer, **dict(metrics)})
    for blk in blocks:
        tracker.observe_block(blk, blk.q - blk.p)
    return tracker.records


def test_gap_stream_small_range():
    got = [(r.p, r.q) for r in records(2, 12)]
    assert got == [(2, 3), (3, 5), (5, 7), (7, 11), (11, 13)]


def test_gap_stream_matches_trial_division():
    oracle = primes_trial(2, 200)
    expected = list(zip(oracle[:-1], oracle[1:]))
    got = [(r.p, r.q) for r in records(2, oracle[-1])]
    assert got == expected


def test_record_113_127():
    (rec,) = records(113, 114)
    assert (rec.p, rec.q, rec.gap) == (113, 127, 14)
    assert rec.n == 30  # 113 is the 30th prime


def test_record_7_11_metrics():
    (rec,) = records(7, 8)
    assert rec.andrica == math.sqrt(11) - math.sqrt(7)
    assert abs(rec.andrica - 0.670873) < 1e-6
    assert rec.cramer_ratio == 4 / math.log(7) ** 2
    assert rec.ratio == 11 / 7


def test_indices_are_sequential():
    recs = records(2, 1000)
    assert [r.n for r in recs] == list(range(1, len(recs) + 1))
    for r in recs:
        assert r.gap == r.q - r.p >= 1
        assert r.gap % 2 == 0 or r.p == 2
        assert r.andrica > 0
        assert r.ratio > 1


def test_concatenation_stitches_across_ranges():
    whole = [(r.n, r.p, r.q) for r in records(2, 5000)]
    parts = []
    for lo, hi in [(2, 100), (100, 1024), (1024, 4999), (4999, 5000)]:
        parts.extend((r.n, r.p, r.q) for r in records(lo, hi))
    assert parts == whole


def test_lookahead_crosses_segment_boundary(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT_ODDS", 2048)
    assert len(list(sieve.prime_blocks(2, 30000))) > 1
    whole = [(r.p, r.q) for r in records(2, 30000)]
    oracle = primes_trial(2, 30100)
    assert whole == list(zip(oracle[:-1], oracle[1:]))[: len(whole)]


@given(st.integers(2, 3000), st.integers(1, 3000),
       st.sampled_from([8, 64, 1024]), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_pair_blocks_cut_into_slices(lo, width, odds, pairs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "SEGMENT_ODDS", odds)
        mp.setattr(gaps, "PAIR_SLICE", pairs)
        blocks = list(gaps.pair_blocks(lo, lo + width))
    n0 = len(primes_trial(2, lo)) + 1
    for blk in blocks:
        assert 1 <= blk.p.size <= pairs and blk.q.size == blk.p.size
        assert blk.n0 == n0
        n0 += blk.p.size
    oracle = primes_trial(lo, lo + width + 100)
    count = len(primes_trial(lo, lo + width))
    got_p = [int(x) for blk in blocks for x in blk.p]
    got_q = [int(x) for blk in blocks for x in blk.q]
    assert got_p == oracle[:count]
    assert got_q == oracle[1 : count + 1]


def test_track_extremes_small_limits():
    t = cj.check_gap_bounds(100).extremes
    assert (t["max_andrica"].p, t["max_andrica"].q) == (7, 11)

    t = cj.check_gap_bounds(10).extremes
    assert (t["max_ratio"].p, t["max_ratio"].q) == (3, 5)
    assert t["max_ratio"].ratio == 5 / 3

    t = tracked(gaps.pair_blocks(2, 3))
    assert (t["gap"][1].p, t["gap"][1].q) == (2, 3)
    assert t["gap"][1] is t["andrica"][1] is t["ratio"][1] is (
        t["cramer_ratio"][1])


def largest_by_metric(blocks, cramer_floor):
    """Each metric's record over every pair of `blocks`, by brute force:
    the largest value, q/p compared exactly, and of equal values the
    smallest n."""
    best = {}
    for blk in blocks:
        for i, (p, q) in enumerate(zip(blk.p.tolist(), blk.q.tolist())):
            rec = gaps.GapRecord.from_pair(blk.n0 + i, p, q)
            for metric in ("gap", "cramer_ratio", "andrica", "ratio"):
                if metric == "cramer_ratio" and p < cramer_floor:
                    continue
                key = (Fraction(q, p) if metric == "ratio"
                       else getattr(rec, metric), -rec.n)
                if metric not in best or key > best[metric][0]:
                    best[metric] = (key, rec)
    return {metric: rec for metric, (_, rec) in best.items()}


POWERS = (1 / 3, 1 / 2, 0.85)


@given(st.one_of(st.integers(2, 10**4), st.integers(2, 2**62)),
       st.lists(st.one_of(st.integers(1, 400), st.integers(1, 10**6)),
                min_size=1, max_size=300),
       st.integers(1, 64), st.integers(2, 60))
@settings(max_examples=150, deadline=None)
# each q^e - p^e is 0 in binary64: a tie of every pair
@example(start=2**62, steps=[1] * 40, size=7, floor=2)
# the binary64 q/p of both pairs tie, and the exact q/p of the second wins
@example(start=2**62, steps=[998912, 10**6], size=1, floor=2)
def test_tracker_finds_the_record_of_every_metric(start, steps, size, floor):
    # an ascending run cut into blocks of `size` pairs; the tracker computes
    # the metrics of a few candidate pairs only, yet finds every record
    values = np.cumsum([start] + steps)
    p, q = values[:-1], values[1:]
    blocks = [gaps.PairBlock(1 + s, p[s:s + size], q[s:s + size])
              for s in range(0, p.size, size)]
    metrics = {e: gaps.power_metric(e) for e in POWERS}
    got = tracked(blocks, floor, metrics)
    want = largest_by_metric(blocks, floor)
    for metric in ("gap", "cramer_ratio", "andrica", "ratio"):
        assert (got[metric] and got[metric][1]) == want.get(metric), metric
    # q^e - p^e: the largest numpy binary64 value, ties to the least n
    for e in POWERS:
        vals = q**e - p**e
        i = int(np.argmax(vals))
        value, rec = got[e]
        assert (value, rec.n, rec.p, rec.q) == (vals[i], i + 1, p[i], q[i]), e


def exact_factors(metric, p0, p1, q1):
    """(f_lo, f_hi, c) at 50 digits of `metric`, a name in gaps.METRICS or
    the exponent of a power_metric, over the pairs with p in [p0, p1] and
    every q <= q1: each metric at gap g lies in [g f_lo + c, g f_hi + c]."""
    with mp.workdps(50):
        p0, p1, q1 = mp.mpf(p0), mp.mpf(p1), mp.mpf(q1)
        if metric == "cramer_ratio":  # g / (ln p)^2
            return mp.log(p1) ** -2, mp.log(p0) ** -2, 0
        if metric == "andrica":  # g / (sqrt(q) + sqrt(p))
            return 1 / (2 * mp.sqrt(q1)), 1 / (2 * mp.sqrt(p0)), 0
        if metric == "gap":
            return 1, 1, 0
        if metric == "ratio":  # 1 + g / p
            return 1 / p1, 1 / p0, 1
        e = mp.mpf(metric)  # the binary64 exponent, exactly
        return e * q1 ** (e - 1), e * p0 ** (e - 1), 0


# the relative rounding r of the values that do not cancel, a few dozen u
VALUE_REL_ERR = 32 * 2.0**-53


@given(st.one_of(st.integers(2, 10**4), st.integers(2, 2**62)),
       st.lists(st.one_of(st.integers(1, 2000), st.integers(1, 10**6)),
                min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
# just above 2^53, where float(p) is no longer exact
@example(start=2**53 + 1, steps=[2, 4, 6, 1000, 2])
@example(start=2**53 - 5, steps=[2] * 10 + [1500])
def test_metric_values_lie_within_err_of_their_factors(start, steps):
    # every binary64 value the tracker compares lies within err of the
    # 50-digit bounds of its run, to the relative rounding r
    values = np.cumsum([start] + steps)
    p, q = values[:-1], values[1:]
    catalog = {**gaps.METRICS, **{e: gaps.power_metric(e) for e in POWERS}}
    for name, metric in catalog.items():
        s = int(p.searchsorted(metric.floor))
        if s == p.size:
            continue
        p0, p1, q1 = int(p[s]), int(p[-1]), int(q[-1])
        err = metric.factors(p0, p1, q1)[3]
        f_lo, f_hi, c = exact_factors(name, p0, p1, q1)
        g = q[s:] - p[s:]
        vals = np.asarray(metric.values(g, p[s:], q[s:]), dtype=np.float64)
        with mp.workdps(50):
            for gap, value in zip(g.tolist(), vals.tolist()):
                lo = (gap * f_lo + c) * (1 - VALUE_REL_ERR) - err
                hi = (gap * f_hi + c) * (1 + VALUE_REL_ERR) + err
                assert lo <= value <= hi, (name, p0, p1, q1, gap, value)


@pytest.mark.parametrize("pairs, lo, hi", [
    (1000, 10**4, 10**5), (300, 10**5, 3 * 10**5),
    (gaps.PAIR_SLICE, 2, 10**6)])
def test_tracker_finds_the_records_of_the_primes(monkeypatch, pairs, lo, hi):
    # blocks that span a wide range of p, whose records can lie anywhere
    monkeypatch.setattr(gaps, "PAIR_SLICE", pairs)
    blocks = list(gaps.pair_blocks(lo, hi))
    got = tracked(blocks, bounds.KOURBATOV_FLOOR)
    want = largest_by_metric(blocks, bounds.KOURBATOV_FLOOR)
    for metric in ("gap", "cramer_ratio", "andrica", "ratio"):
        assert got[metric][1] == want[metric], metric


def test_andrica_below_one_to_1e6():
    for blk in gaps.pair_blocks(2, 10**6):
        assert np.all(np.sqrt(blk.q) - np.sqrt(blk.p) < 1.0)


NEXT_PRIME_CASES = (
    [2, 3, 7, 1327, 1294268491]  # 1327 and 1294268491 start maximal gaps
    + [(1 << 21) + d for d in (-3, -1, 0, 1, 2, 3)]  # default segment span
    + [2049, 2051, 4099, 4101]  # ends of 2048-wide segments
    + [10**k for k in range(1, 13)]
)


@pytest.mark.parametrize("p", NEXT_PRIME_CASES)
def test_next_prime_after_matches_sympy(monkeypatch, p):
    # the stream of [lo, p + 1) ends on the last prime up to p and the
    # next prime after it, which the same sieve stream finds past p + 1;
    # at 64 odds the gap of 288 after 1294268491 spans several 128-wide
    # segments
    sympy = pytest.importorskip("sympy")
    last = sympy.prevprime(p + 1)
    if p >= 10**11:  # n is not under test here; pi(1e12) takes seconds
        monkeypatch.setattr(sieve, "prime_count", lambda x: 0)
    for odds in (64, sieve.SEGMENT_ODDS):
        # from 2 where that is cheap, so that segment ends fall on the cases
        lo = 2 if p < 5000 or (odds > 64 and p < 1 << 22) else last - 256
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "SEGMENT_ODDS", odds)
            blk = list(gaps.pair_blocks(lo, p + 1))[-1]
        assert (blk.p[-1], blk.q[-1]) == (last, sympy.nextprime(last))
        if p < 10**11:
            assert blk.n0 + blk.p.size - 1 == sieve.prime_count(last)


def test_a_stream_sieves_once(monkeypatch):
    calls = []
    prime_blocks = sieve.prime_blocks

    def spy(lo, hi):
        calls.append((lo, hi))
        return prime_blocks(lo, hi)

    monkeypatch.setattr(sieve, "prime_blocks", spy)
    for lo, hi in [(2, 3), (11, 12), (2, 10**5), (1294268000, 1294268492)]:
        calls.clear()
        assert list(gaps.pair_blocks(lo, hi))
        assert calls == [(lo, hi + gaps.NEXT_PRIME_WINDOW)]


def test_a_stream_with_no_prime_past_hi_is_refused(monkeypatch, capsys):
    prime_blocks = sieve.prime_blocks

    def short(lo, hi):  # as a stream cut short by 2^63 - 1 would end
        for block in prime_blocks(lo, hi):
            if block[0] < 100:
                yield block[block < 100]

    monkeypatch.setattr(sieve, "prime_blocks", short)
    with pytest.raises(sieve.CapacityError, match="no prime in"):
        list(gaps.pair_blocks(2, 100))
    assert cli.main(["verify", "gap-bounds", "--limit", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no prime in [100, ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# the gated stream: past its first sieve segment, a segment whose gate G is
# 32 or more yields one gated block of its pairs with a gap of at least G

# each edge of the word widths 8, 16, 32 and 64 (G = 4W), and beyond
GATES = (2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 600)
MAXGAP_P = 436273009  # the maximal gap 282 follows it


def fake_masks(lo, hi, every):
    """Masks as `sieve.segment_masks` cuts them, true at the odd numbers v
    whose 64-bit hash is 0 mod `every`: the same numbers however a range
    is cut, and wide gaps where `every` is large."""
    lo |= 1
    span = 2 * sieve.SEGMENT_ODDS
    for seg_lo in range(lo, hi, span):
        v = np.arange(seg_lo, min(seg_lo + span, hi), 2, dtype=np.uint64)
        v *= np.uint64(0x9E3779B97F4A7C15)  # wraps mod 2^64
        yield seg_lo, (v >> np.uint64(40)) % np.uint64(every) == 0


def gated_against_dense(lo, hi, g):
    """The gated stream of gate g is the dense stream's pairs with a gap of
    at least g, past the first segment, and stands for all of them."""
    try:
        dense = list(gaps.pair_blocks(lo, hi))
    except sieve.CapacityError:
        with pytest.raises(sieve.CapacityError):
            list(gaps.pair_blocks(lo, hi, lambda p0, n1: g))
        return []
    n = np.concatenate([b.n0 + np.arange(b.count) for b in dense] or [[]])
    p = np.concatenate([b.p for b in dense] or [[]]).astype(np.int64)
    q = np.concatenate([b.q for b in dense] or [[]]).astype(np.int64)
    calls = []
    blocks = list(gaps.pair_blocks(
        lo, hi, lambda p0, n1: calls.append((p0, n1)) or g))
    split = (max(lo, 2) | 1) + 2 * sieve.SEGMENT_ODDS
    at, runs = 0, []
    for b in blocks:
        run = slice(at, at + b.count)
        at += b.count
        assert b.count > 0 and b.n0 == n[run][0]
        keep = (q[run] - p[run] >= g) if b.n is not None else slice(None)
        assert b.index(np.arange(b.p.size)).tolist() == n[run][keep].tolist()
        assert b.p.tolist() == p[run][keep].tolist()
        assert b.q.tolist() == q[run][keep].tolist()
        # dense in the first segment and where g < 32, gated elsewhere
        assert (b.n is not None) == (g >= 32 and q[run][-1] >= split)
        if b.n is not None:
            runs.append((p[run][0], n[run][-1]))
    assert at == n.size
    if g >= 32:  # one gate per gated block: its first p and last n
        assert calls == runs
    return blocks


@pytest.mark.parametrize("odds", [64, 1024, 1 << 20])
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_gated_stream_is_the_dense_stream_cut_at_the_gate(odds, data):
    span = 2 * odds
    where = data.draw(st.sampled_from(["2", "1e6", "maxgap", "2^62"]))
    g = data.draw(st.sampled_from(GATES))
    # past the first segment, where the gate is read
    width = (data.draw(st.integers(1, 4 if odds > 64 else 30)) * span
             + data.draw(st.integers(-span // 2, span)))
    every = data.draw(st.sampled_from([3, 20, 200]))
    lo = {"2": data.draw(st.integers(2, 40)),
          "1e6": 10**6 + data.draw(st.integers(-300, 300)),
          "maxgap": MAXGAP_P + data.draw(st.integers(-400, 100)),
          "2^62": 2**62 + data.draw(st.integers(-300, 300))}[where]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "SEGMENT_ODDS", odds)
        if where in ("maxgap", "2^62"):  # n is tested from 2 and 1e6
            mp.setattr(sieve, "prime_count", lambda x: 10**6)
        if where == "2^62":  # no sieve there: made-up "primes"
            mp.setattr(sieve, "segment_masks",
                       lambda lo, hi: fake_masks(lo, hi, every))
        gated_against_dense(lo, lo + width, g)


def test_the_maximal_gap_crosses_empty_segments(monkeypatch):
    # at 64 odds the gap of 282 after 436273009 spans segments without a
    # prime; the last pair's q lies past hi, and past hi's segment
    monkeypatch.setattr(sieve, "SEGMENT_ODDS", 64)
    monkeypatch.setattr(sieve, "prime_count", lambda x: 0)
    q = MAXGAP_P + 282
    for hi in (MAXGAP_P + 1, MAXGAP_P + 150, q + 1000):
        for g in (282, 283):
            blocks = gated_against_dense(MAXGAP_P - 1000, hi, g)
            wide = [(int(b.p[i]), int(b.q[i])) for b in blocks
                    if b.n is not None for i in range(b.p.size)]
            assert wide == ([(MAXGAP_P, q)] if g == 282 else [])


def test_a_gated_stream_sieves_each_integer_once(monkeypatch):
    # its first segment through prime_blocks, the rest from segment_masks,
    # which tile the stream's span: no integer is sieved twice
    monkeypatch.setattr(sieve, "SEGMENT_ODDS", 1024)
    calls = []
    prime_blocks, segment_masks = sieve.prime_blocks, sieve.segment_masks

    def blocks_spy(lo, hi):
        calls.append(("blocks", lo, hi))
        return prime_blocks(lo, hi)

    def masks_spy(lo, hi):
        calls.append(("masks", lo, hi))
        return segment_masks(lo, hi)

    monkeypatch.setattr(sieve, "prime_blocks", blocks_spy)
    monkeypatch.setattr(sieve, "segment_masks", masks_spy)
    for lo, hi in [(2, 3), (11, 12), (2, 10**5), (10**6 + 1, 10**6 + 9000)]:
        calls.clear()
        assert list(gaps.pair_blocks(lo, hi, lambda p0, n1: 100))
        end = hi + gaps.NEXT_PRIME_WINDOW
        split = min(end, (max(lo, 2) | 1) + 2048)
        # prime_blocks reads its segments from segment_masks too; a stream
        # that finds its first prime >= hi below the split ends there
        want = [("blocks", lo, split), ("masks", max(lo, 3) | 1, split)]
        if hi >= split:
            want.append(("masks", split, end))
        assert calls == want


def test_a_gated_stream_with_no_prime_past_hi_is_refused(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT_ODDS", 16)
    segment_masks = sieve.segment_masks

    def short(lo, hi):  # as a stream cut short by 2^63 - 1 would end
        for seg_lo, seg in segment_masks(lo, hi):
            yield seg_lo, seg & (seg_lo + 2 * np.arange(seg.size) < 100)

    monkeypatch.setattr(sieve, "segment_masks", short)
    for gate in (None, lambda p0, n1: 2, lambda p0, n1: 40):
        with pytest.raises(sieve.CapacityError, match="no prime in"):
            list(gaps.pair_blocks(2, 100, gate))
