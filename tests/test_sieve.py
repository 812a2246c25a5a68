import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import gaps, sieve
from conftest import is_prime_trial, pi_trial, primes_trial


def primes_in(lo, hi):
    """The primes p with lo <= p < hi, as a list of Python ints."""
    return [int(p) for block in sieve.prime_blocks(lo, hi) for p in block]


def test_primes_in_matches_trial_division_oracle():
    assert primes_in(10, 30) == [11, 13, 17, 19, 23, 29]
    assert primes_in(10, 30) == primes_trial(10, 30)


def test_primes_in_smallest_prime():
    assert primes_in(2, 3) == [2]


def test_primes_in_empty_window():
    assert primes_in(24, 29) == []


def test_invalid_range_rejected():
    for stream in (sieve.prime_blocks, gaps.pair_blocks):
        with pytest.raises(ValueError):
            list(stream(30, 10))
        with pytest.raises(sieve.CapacityError):
            list(stream(2, 2**63))


def test_prime_count_small():
    assert sieve.prime_count(1) == 0
    assert sieve.prime_count(100) == 25
    assert sieve.prime_count(100) == pi_trial(100)


def test_prime_count_million():
    assert sieve.prime_count(10**6) == 78498


def test_nth_prime_examples():
    assert sieve.nth_prime(1) == 2
    assert sieve.nth_prime(10) == 29
    assert sieve.nth_prime(31) == 127
    with pytest.raises(ValueError):
        sieve.nth_prime(0)


def test_nth_prime_bound_lies_above_every_prime_to_1e6():
    # Rosser and Schoenfeld's n (ln n + ln ln n), rounded up, and 14 below
    # n = 6, against every sieved p_n with n <= 10^6 (p_1000000 = 15485863)
    primes = np.concatenate(list(sieve.prime_blocks(2, 15485864)))
    assert primes.size == 10**6
    bound = [sieve._nth_prime_bound(n) for n in range(1, primes.size + 1)]
    assert np.all(primes < np.array(bound))
    assert sieve._nth_prime_bound(2001) == 19270  # the sieve of brocard 2000


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_prime_count_agrees_with_trial_division(x):
    assert sieve.prime_count(x) == pi_trial(x)


def test_full_agreement_to_1e5(trial_primes_1e5):
    ours = np.concatenate(list(sieve.prime_blocks(2, 100_001)))
    assert ours.tolist() == trial_primes_1e5


def test_count_equals_stream_length():
    for x in (10, 97, 1000, 4096, 65537):
        assert sieve.prime_count(x) == len(primes_in(2, x + 1))


def test_nth_prime_inverts_prime_count():
    # every prime p <= 1e6: nth_prime(pi(p)) == p, checked by walking the
    # stream with a running index
    idx = 0
    sampled = []
    for p in primes_in(2, 10**6):
        idx += 1
        if idx % 7919 == 1:  # keep the nth_prime lookups affordable
            sampled.append((idx, p))
    for idx, p in sampled:
        assert sieve.nth_prime(idx) == p


def test_partition_independence():
    whole = np.concatenate(list(sieve.prime_blocks(2, 10**5)))
    cuts = [2, 17, 1000, 30030, 65536, 10**5]
    parts = [
        np.concatenate(list(sieve.prime_blocks(a, b)) or [np.array([], dtype=np.int64)])
        for a, b in zip(cuts[:-1], cuts[1:])
    ]
    assert np.concatenate(parts).tolist() == whole.tolist()


def test_prime_counts_at_matches_prime_count():
    values = [0, 1, 2, 10, 97, 1000, 12345]
    out = sieve.prime_counts_at(values)
    assert out.tolist() == [sieve.prime_count(v) for v in values]


def test_base_sieve_is_trial_division_exact():
    assert sieve.base_sieve(500).tolist() == primes_trial(2, 501)
    assert all(is_prime_trial(int(p)) for p in sieve.base_sieve(10_000))


# ---------------------------------------------------------------------------
# prime_count is the Legendre-sum recurrence; sympy and the segmented sieve
# are its oracles


def sieve_prime_count(x):
    """The former body of prime_count: one full segmented-sieve pass."""
    if x < 2:
        return 0
    return sum(block.size for block in sieve.prime_blocks(2, x + 1))


def test_prime_count_every_x_below_2000():
    sympy = pytest.importorskip("sympy")
    assert [sieve.prime_count(x) for x in range(2000)] == [
        int(sympy.primepi(x)) for x in range(2000)]


@pytest.mark.parametrize("n", [31, 97, 1000, 31622, 31623])
def test_prime_count_around_squares(n):
    sympy = pytest.importorskip("sympy")
    for x in (n * n - 1, n * n, n * n + 1):
        assert sieve.prime_count(x) == sympy.primepi(x), x


def test_prime_count_powers_of_ten_and_2_31():
    sympy = pytest.importorskip("sympy")
    # pi(10^k), k = 0..10 (OEIS A006880)
    known = [0, 4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534,
             455052511]
    assert [sieve.prime_count(10**k) for k in range(11)] == known
    for x in (2**31 - 1, 2**31 + 1):
        assert sieve.prime_count(x) == sympy.primepi(x), x


def test_prime_count_random_below_1e10():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(20161)
    for x in rng.integers(0, 10**10, size=20).tolist():
        assert sieve.prime_count(x) == sympy.primepi(x), x


@given(st.integers(min_value=0, max_value=10**6 - 1))
@settings(max_examples=40, deadline=None)
def test_prime_count_agrees_with_the_sieve(x):
    assert sieve.prime_count(x) == sieve_prime_count(x)


def test_prime_count_beyond_int64_is_a_capacity_error():
    with pytest.raises(sieve.CapacityError):
        sieve.prime_count(sieve.MAX_VALUE + 1)


def test_prime_counts_at_unsorted_duplicates_and_segment_ends(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT_ODDS", 1024)  # 2048-wide blocks
    last_primes = [int(b[-1]) for b in sieve.prime_blocks(2, 20_000)]
    assert len(last_primes) > 5
    values = ([-3, 0, 1, 2, 19_999, 7, 7, 2048, 2047, 2049]
              + last_primes[::-1] + [p + 1 for p in last_primes]
              + [last_primes[2]] * 3)
    want = [pi_trial(max(v, 0)) for v in values]
    assert sieve.prime_counts_at(values).tolist() == want


def test_pair_blocks_start_index_far_from_two():
    sympy = pytest.importorskip("sympy")
    from primegaps import gaps

    first = next(gaps.pair_blocks(10**9, 10**9 + 1000))
    assert first.n0 == sympy.primepi(10**9 - 1) + 1
    assert first.p[0] == sympy.nextprime(10**9 - 1)


def test_prime_counts_at_sieves_from_the_smallest_value(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT_ODDS", 1024)  # 2048-wide blocks
    starts = []
    blocks = sieve.prime_blocks
    assert len(list(blocks(10_000, 20_000))) > 1  # the cases cross segments

    def spy(lo, hi):
        starts.append(lo)
        return blocks(lo, hi)

    monkeypatch.setattr(sieve, "prime_blocks", spy)
    for values in ([3, 4, 5], [10_000, 19_999, 12_289, 12_289, 10_007],
                   [4097, 2 * 2048 + 3, 9000, 8191, 8192]):
        want = [pi_trial(v) for v in values]
        assert sieve.prime_counts_at(values).tolist() == want
        assert starts[-1] == min(values)


# ---------------------------------------------------------------------------
# prime_blocks copies a pattern pre-sieved by 3..17 and carries each base
# prime's offset across segments; the loop it replaced is the oracle


def reference_blocks(lo, hi):
    """The former segment loop: every odd base prime struck one by one, its
    start recomputed in every segment, at the same cuts as prime_blocks."""
    if hi <= 2:
        return
    if lo <= 2:
        yield np.array([2], dtype=np.int64)
        lo = 3
    if lo % 2 == 0:
        lo += 1
    if lo >= hi:
        return
    odd_base = sieve.base_sieve(math.isqrt(hi - 1))[1:]
    span = 2 * sieve.SEGMENT_ODDS
    for seg_lo in range(lo, hi, span):
        seg_hi = min(seg_lo + span, hi)
        mask = np.ones((seg_hi - seg_lo + 1) // 2, dtype=bool)
        for p in odd_base.tolist():
            if p * p >= seg_hi:
                break
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < seg_hi:
                mask[(start - seg_lo) // 2 :: p] = False
        block = seg_lo + 2 * np.flatnonzero(mask).astype(np.int64)
        if block.size:
            yield block


PERIOD_INTS = 2 * sieve.PATTERN_PERIOD  # 510 510 integers per pattern period


def range_near_zero():
    return st.tuples(st.integers(0, 40), st.integers(1, 3000))


def range_across_a_period():
    return st.tuples(
        st.builds(lambda m, d: m * PERIOD_INTS + d,
                  st.integers(1, 20), st.integers(-3000, 3000)),
        st.integers(1, 6000))


def one_or_two_odds():
    return st.tuples(st.integers(0, 10**9), st.integers(1, 4))


def wide_range():
    # several pattern periods per default segment, and more than one segment
    return st.tuples(st.integers(0, 10**8),
                     st.integers(2 * PERIOD_INTS, 3 * 10**6))


@pytest.mark.parametrize("odds", [64, 1024, sieve.SEGMENT_ODDS])
@given(st.one_of(range_near_zero(), range_across_a_period(),
                 one_or_two_odds(), wide_range()))
@settings(max_examples=60, deadline=None)
def test_prime_blocks_match_the_former_loop(odds, lo_width):
    lo, width = lo_width
    if odds != sieve.SEGMENT_ODDS and width > 10**5:
        width //= 100  # tiny segments: keep the reference loop affordable
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "SEGMENT_ODDS", odds)
        got = list(sieve.prime_blocks(lo, lo + width))
        want = list(reference_blocks(lo, lo + width))
    assert [b.tolist() for b in got] == [b.tolist() for b in want]
    assert all(b.dtype == np.int64 for b in got)


def test_pattern_primes_restored_at_every_small_cut(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT_ODDS", 4)  # 8-wide segments
    for lo in range(0, 41):
        for hi in range(lo + 1, 60):
            got = [int(p) for b in sieve.prime_blocks(lo, hi) for p in b]
            assert got == primes_trial(lo, hi), (lo, hi)


def test_prime_blocks_builds_only_the_pattern_mask():
    # the 19..53 residue tables serve capped_counts alone
    sieve._odd_mask.cache_clear()
    list(sieve.prime_blocks(2, 10**5))
    assert sieve._odd_mask.cache_info().currsize == 1
    mask = sieve._odd_mask(sieve.PATTERN_PRIMES)
    odd = np.arange(1, 2 * mask.size, 2)
    assert (mask == (np.gcd(odd, sieve.PATTERN_PERIOD) == 1)).all()


def odd_offsets_exact(lo, p):
    """Python-int form of the offset: the first odd multiple of p that is
    >= max(lo, p^2), in odd steps from the odd number lo."""
    m = max(-(-lo // p) * p, p * p)
    if m % 2 == 0:
        m += p
    return (m - lo) // 2


def test_odd_offsets_against_python_ints():
    sympy = pytest.importorskip("sympy")
    top = [3_037_000_493]  # the largest prime <= isqrt(2^63 - 1)
    while len(top) < 40:
        top.append(int(sympy.prevprime(top[-1])))
    primes = np.array(sieve.base_sieve(2000)[7:].tolist() + top[::-1],
                      dtype=np.int64)  # 19 and up
    # below the squares, and near int64's end: prime_blocks(2**63 - 1000,
    # ...) starts at the odd 2**63 - 999
    for lo in (1, 3, 19, 361, 363, 10**6 + 1,
               2**63 - 999, 2**63 - 1001, sieve.MAX_VALUE - 2 * 10**6):
        got = sieve._odd_offsets(lo, primes).tolist()
        assert got == [odd_offsets_exact(lo, p) for p in primes.tolist()]


# ---------------------------------------------------------------------------
# capped_counts walks each interval's candidates and decides them by
# Miller-Rabin; differences of the sieve's prime_counts_at are the oracle

CAPS = (0, 1, 2, 7, 50)
# strong pseudoprimes: to base 2 (2047 = 23 * 89), to 2 and 3, to 2, 3 and
# 5, to 2, 3, 5 and 7 (so to 2 and 7), to all of {2, 7, 61}, to all of
# {2, 13, 23, 1662803}, and to every prime base up to 23
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 4759123141,
                       1122004669633, 3825123056546413051)


def sieve_capped(a, b, cap):
    pi = sieve.prime_counts_at(np.concatenate([a, b]))
    return np.minimum(np.maximum(pi[a.size:] - pi[: a.size], 0), cap)


def test_capped_counts_on_every_small_interval():
    # every (a, b] with 0 <= a, b <= 80: 2, the primes up to 61 and the
    # first walked candidates, empty and reversed intervals
    a, b = (g.ravel() for g in np.mgrid[0:81, 0:81])
    for cap in CAPS:
        assert (sieve.capped_counts(a, b, cap) == sieve_capped(a, b, cap)).all()


@pytest.mark.parametrize("window", [1, 5, sieve.WINDOW_ODDS])
@given(st.lists(st.tuples(st.one_of(st.integers(0, 70), st.integers(0, 10**6)),
                          st.integers(0, 4000)), min_size=1, max_size=50),
       st.sampled_from(CAPS))
@settings(max_examples=80, deadline=None)
def test_capped_counts_match_sieve_differences(window, pairs, cap):
    a = np.array([lo for lo, _ in pairs], dtype=np.int64)
    b = np.minimum(a + [w for _, w in pairs], 10**6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "WINDOW_ODDS", window)
        got = sieve.capped_counts(a, b, cap)
    assert got.tolist() == sieve_capped(a, b, cap).tolist()


@pytest.mark.parametrize("centre", [
    2**32, sieve.JAESCHKE_3[0], sieve.JAESCHKE_4[0], 2**62,
    sieve.MAX_VALUE - 700])
def test_capped_counts_against_sympy_far_out(centre):
    sympy = pytest.importorskip("sympy")
    vals = np.arange(centre - 700, centre + 700, dtype=np.int64)
    want = [sympy.isprime(v) for v in vals.tolist()]
    # each value alone, then intervals straddling the centre
    assert sieve.capped_counts(vals - 1, vals, 1).tolist() == want
    a = vals[:600:37]
    for cap in CAPS:
        got = sieve.capped_counts(a, a + 800, cap).tolist()
        assert got == [min(sum(want[i + 1:i + 801]), cap)
                       for i in range(0, 600, 37)]


def test_strong_pseudoprimes_are_composite():
    spsp = np.array(STRONG_PSEUDOPRIMES, dtype=np.int64)
    assert sieve.capped_counts(spsp - 1, spsp, 1).tolist() == [0] * spsp.size
    assert not sieve._is_prime_odd(spsp).any()
    # the bases they fool do fool the vectorised test, so each base counts
    n = np.array([2047, 3215031751], dtype=np.uint64)
    assert sieve._sprp_u32(n, 2).all() and sieve._sprp_u32(n[1:], 7).all()
    assert not sieve._sprp_u32(n, 61).any()


def test_is_prime_odd_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(7)
    for lo, hi in ((63, 10**4), (10**8, 2**32), (2**32, 2**40),
                   (2**40, sieve.MAX_VALUE)):
        v = rng.integers(lo, hi, 3000, dtype=np.int64) | 1
        want = [sympy.isprime(x) for x in v.tolist()]
        assert sieve._is_prime_odd(v).tolist() == want
