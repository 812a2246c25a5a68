import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from primegaps import conjectures as cj
from primegaps import bounds, gaps, sieve
from primegaps.conjectures import ReportStatus
from conftest import primes_trial


def normalized(report):
    return dataclasses.replace(report, duration=0.0)


def gated_blocks(monkeypatch):
    """A list that collects every gated block of the pair streams opened
    from here on."""
    seen = []
    pair_blocks = gaps.pair_blocks

    def spy(lo, hi, gate=None):
        for blk in pair_blocks(lo, hi, gate):
            if blk.n is not None:
                seen.append(blk)
            yield blk

    monkeypatch.setattr(gaps, "pair_blocks", spy)
    return seen


class TestLegendre:
    def test_smallest_case(self):
        r = cj.check_legendre(1)
        assert r.status is ReportStatus.ALL_HOLD
        assert r.extremes["min_interval_count"] == 2  # primes 2, 3 in (1, 4)

    def test_interval_36_49_by_oracle(self):
        assert primes_trial(37, 49) == [37, 41, 43, 47]
        r = cj.check_legendre(10)
        assert r.status is ReportStatus.ALL_HOLD

    def test_full_range(self):
        r = cj.check_legendre(10**4)
        assert r.status is ReportStatus.ALL_HOLD
        assert r.checked_count == 10**4
        assert not r.violations

    def test_counts_match_oracle(self):
        for n in range(1, 30):
            expected = len(primes_trial(n * n + 1, (n + 1) ** 2))
            got = sieve.prime_count((n + 1) ** 2) - sieve.prime_count(n * n)
            assert got == expected >= 1


class TestOppermann:
    def test_smallest_case(self):
        # n = 2: prime 3 in (2, 4) and prime 5 in (4, 6)
        r = cj.check_oppermann(2)
        assert r.status is ReportStatus.ALL_HOLD
        assert r.extremes["min_below_count"] == 1

    def test_at_paper_threshold_75(self):
        assert primes_trial(75 * 74 + 1, 75 * 75) != []
        assert primes_trial(75 * 75 + 1, 75 * 76) != []
        r = cj.check_oppermann(75)
        assert r.status is ReportStatus.ALL_HOLD

    def test_full_range(self):
        r = cj.check_oppermann(10**4)
        assert r.status is ReportStatus.ALL_HOLD
        assert r.checked_count == 2 * (10**4 - 1)

    def test_implies_legendre_on_shared_domain(self):
        # a prime in (n^2, n^2 + n) is inside (n^2, (n+1)^2), so Oppermann
        # holding forces the Legendre interval to be non-empty
        n_max = 2000
        opp = cj.check_oppermann(n_max)
        leg = cj.check_legendre(n_max)
        assert opp.status is ReportStatus.ALL_HOLD
        assert leg.status is ReportStatus.ALL_HOLD
        assert leg.extremes["min_interval_count"] >= 1


class TestBrocard:
    def test_smallest_case_oracle(self):
        # n = 2: primes in (9, 25) are 11, 13, 17, 19, 23
        assert primes_trial(10, 25) == [11, 13, 17, 19, 23]
        r = cj.check_brocard(2)
        assert r.status is ReportStatus.ALL_HOLD
        assert r.extremes["min_interval_count"] == 5

    def test_decomposition_inequality_everywhere(self):
        r = cj.check_brocard(500)
        assert r.extremes["decomposition_applies_everywhere"] is True

    def test_full_range(self):
        r = cj.check_brocard(2000)
        assert r.status is ReportStatus.ALL_HOLD
        assert r.extremes["min_interval_count"] >= 4

    def test_one_sieve_pass(self, monkeypatch):
        want = normalized(cj.check_brocard(500))
        calls = []
        prime_blocks = sieve.prime_blocks

        def spy(lo, hi):
            calls.append((lo, hi))
            return prime_blocks(lo, hi)

        monkeypatch.setattr(sieve, "prime_blocks", spy)
        monkeypatch.setattr(sieve, "nth_prime", None)
        assert normalized(cj.check_brocard(500)) == want
        assert calls == [(2, sieve._nth_prime_bound(501))]

    def test_too_few_primes_below_the_bound(self, monkeypatch):
        monkeypatch.setattr(sieve, "_nth_prime_bound", lambda n: 100)
        with pytest.raises(sieve.CapacityError):
            cj.check_brocard(25)  # 25 primes below 100, 26 needed


class TestInt64Guard:
    """Interval ends past 2^63-1 are refused before any array exists."""

    @pytest.fixture(autouse=True)
    def no_sieving(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("counted before the capacity check")
        monkeypatch.setattr(sieve, "prime_blocks", refuse)
        monkeypatch.setattr(sieve, "prime_counts_at", refuse)
        monkeypatch.setattr(sieve, "capped_counts", refuse)

    def test_legendre(self):
        n = math.isqrt(sieve.MAX_VALUE)  # (n + 1)^2 is the first to wrap
        with pytest.raises(sieve.CapacityError, match="2\\^63-1"):
            cj.check_legendre(n)

    def test_oppermann(self):
        n = math.isqrt(sieve.MAX_VALUE) + 1  # the first n^2 + n to wrap
        assert (n - 1) ** 2 + (n - 1) <= sieve.MAX_VALUE < n * n + n
        with pytest.raises(sieve.CapacityError):
            cj.check_oppermann(n)

    def test_brocard(self):
        n = 2 * 10**8  # bound on p_(n+1) is about 4.7e9
        assert sieve._nth_prime_bound(n + 1) ** 2 > sieve.MAX_VALUE
        with pytest.raises(sieve.CapacityError):
            cj.check_brocard(n)


class TestGapBounds:
    def test_tiny_range_andrica_only(self):
        r = cj.check_gap_bounds(5, which=("andrica",))
        assert r.status is ReportStatus.ALL_HOLD
        assert r.checked_count == 2  # pairs (2,3) and (3,5)

    def test_kourbatov_floor_skips_small_pairs(self):
        r = cj.check_gap_bounds(30, which=("kourbatov",))
        # pairs with p in {2,3,5,7,11,13,17,19,23} skipped, p=29 checked
        assert r.skipped_count == 9
        assert r.checked_count == 1
        assert r.status is ReportStatus.ALL_HOLD

    def test_million_all_bounds(self):
        r = cj.check_gap_bounds(10**6)
        assert r.status is ReportStatus.ALL_HOLD
        assert r.extremes["max_cramer_ratio"].cramer_ratio < 1
        assert r.extremes["max_andrica"].p == 7

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError):
            cj.check_gap_bounds(100, which=("nope",))

    def test_start_is_keyword_only(self):
        with pytest.raises(TypeError):
            cj.check_gap_bounds(10**4, cj.GAP_BOUNDS, 4)
        r = cj.check_gap_bounds(10**4, cj.GAP_BOUNDS, start=4)
        assert r.range == "pairs with 4 <= p < 10000"

    def test_exactly_zero_margin_is_uncertain(self, monkeypatch):
        # sqrt(289) - sqrt(256) = 1: the Andrica margin is exactly zero
        blk = gaps.PairBlock(1, np.array([256]), np.array([289]))
        monkeypatch.setattr(gaps, "pair_blocks",
                            lambda lo, hi, gate=None: iter([blk]))
        r = cj.check_gap_bounds(290, ("andrica",))
        assert r.uncertain == [("andrica", 1, 256, 289)]
        assert r.violations == []
        assert r.status is ReportStatus.INCOMPLETE

    def test_partition_invariance(self, monkeypatch):
        base = normalized(cj.check_gap_bounds(2 * 10**5))
        for odds in (1024, 4096):
            monkeypatch.setattr(sieve, "SEGMENT_ODDS", odds)
            other = normalized(cj.check_gap_bounds(2 * 10**5))
            assert other == base


class TestShanksTrend:
    def test_shape_small(self):
        rows = cj.check_shanks_trend(10**3, 100)
        assert len(rows) >= 1
        assert rows[0].first_n == 1

    def test_window_means_in_unit_interval(self):
        rows = cj.check_shanks_trend(10**6, 10**4)
        assert len(rows) == 7  # 78497 pairs, 7 full windows
        for row in rows:
            assert 0 < row.mean < 1
            assert row.min <= row.mean <= row.max

    def test_window_precondition(self):
        with pytest.raises(ValueError):
            cj.check_shanks_trend(10**4, 99)

    @staticmethod
    def per_window_rows(limit, window):
        """The rows by one slice per window, as the scan once took them."""
        rows = []
        carry = np.empty(0)
        for blk in gaps.pair_blocks(2, limit):
            gap = (blk.q - blk.p).astype(np.float64)
            ratios = gap / np.log(blk.p.astype(np.float64)) ** 2
            ratios = np.concatenate((carry, ratios))
            full = ratios.size - ratios.size % window
            for s in range(0, full, window):
                chunk = ratios[s : s + window]
                first_n = len(rows) * window + 1
                rows.append(cj.TrendRow(
                    len(rows), first_n, first_n + window - 1,
                    float(chunk.mean()), float(chunk.min()),
                    float(chunk.max())))
            carry = ratios[full:]
        return rows

    @pytest.mark.parametrize("limit, window", [
        (2 * 10**4, 100), (2 * 10**4, 101), (3 * 10**5, 10**4)])
    def test_rows_equal_the_per_window_slices(self, monkeypatch, limit,
                                              window):
        # windows straddle blocks of 7 pairs and segments of 2048 integers;
        # the floats are compared with ==
        monkeypatch.setattr(sieve, "SEGMENT_ODDS", 1024)
        monkeypatch.setattr(gaps, "PAIR_SLICE", 7)
        rows = cj.check_shanks_trend(limit, window)
        assert len(rows) == len(primes_trial(2, limit)) // window
        assert rows == self.per_window_rows(limit, window)


A0 = 0.5671481302020263  # root of 127^x - 113^x = 1


class TestSmarandacheB:
    def test_half_exponent_is_andrica(self):
        r = cj.check_smarandache_B(10**6, 0.5)
        assert r.status is ReportStatus.ALL_HOLD
        assert r.extremes["max_value_pair"][1:] == (7, 11)

    def test_just_below_critical_exponent(self):
        a = A0 - 1e-6
        r = cj.check_smarandache_B(128, a)
        assert r.status is ReportStatus.ALL_HOLD
        margin = 1 - (127**a - 113**a)
        assert 0 < margin < 1e-4

    def test_above_critical_exponent_fails(self):
        assert 127**0.9 - 113**0.9 > 1
        r = cj.check_smarandache_B(128, 0.9)
        assert r.status is ReportStatus.VIOLATION_FOUND
        assert (30, 113, 127) in r.violations

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cj.check_smarandache_B(100, 1.5)

    def test_numpy_float_exponent(self):
        got = normalized(cj.check_smarandache_B(1000, np.float64(0.85)))
        assert got == normalized(cj.check_smarandache_B(1000, 0.85))
        assert got.range == "pairs with p < 1000, a=0.85"

    def test_agrees_with_andrica_checker(self):
        b = cj.check_smarandache_B(10**5, 0.5)
        a = cj.check_gap_bounds(10**5, which=("andrica",))
        assert b.status == a.status == ReportStatus.ALL_HOLD
        assert b.checked_count == a.checked_count

    def test_fast_margin_inside_float_error_is_escalated(self, monkeypatch):
        # binary64 gives this pair a margin of +1.5e-8; at 50 digits it is
        # -2.5e-10, so only a window scaled by q^a catches the violation
        p, q, n = 1000000021, 1000000033, 50847537
        a = 0.8859351997862503
        with mp.workdps(50):
            exact = 1 - (mp.power(q, mp.mpf(repr(a)))
                         - mp.power(p, mp.mpf(repr(a))))
        assert -3e-10 < exact < -2e-10
        blk = gaps.PairBlock(n, np.array([p]), np.array([q]))
        assert 1.0 - (blk.q**a - blk.p**a)[0] > 1e-8

        def one_pair(lo, hi, gate=None):
            yield blk

        monkeypatch.setattr(gaps, "pair_blocks", one_pair)
        r = cj.check_smarandache_B(p + 1, a)
        assert r.violations == [(n, p, q)]
        assert r.status is ReportStatus.VIOLATION_FOUND


class TestSmarandacheC:
    def test_k2_million(self):
        r = cj.check_smarandache_C(10**6, 2)
        assert r.status is ReportStatus.ALL_HOLD

    def test_pointwise_values(self):
        assert math.sqrt(11) - math.sqrt(7) == pytest.approx(0.6709, abs=1e-4)
        assert 127**0.1 - 113**0.1 == pytest.approx(0.0190, abs=1e-3)
        assert 127**0.1 - 113**0.1 < 0.2

    def test_k_10(self):
        r = cj.check_smarandache_C(10**5, 10)
        assert r.status is ReportStatus.ALL_HOLD

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cj.check_smarandache_C(100, 1)


class TestPowerGapExtremes:
    """max_value is the first argmax of q^e - p^e over the whole pair
    stream, however it is cut into blocks."""

    @pytest.mark.parametrize("check, arg, e", [
        (cj.check_smarandache_B, 0.5, 0.5),
        (cj.check_smarandache_B, 0.85, 0.85),
        (cj.check_smarandache_C, 2, 1.0 / 2),
        (cj.check_smarandache_C, 3, 1.0 / 3)])
    def test_first_argmax_of_the_stream(self, monkeypatch, check, arg, e):
        monkeypatch.setattr(sieve, "SEGMENT_ODDS", 1024)
        stream = list(gaps.pair_blocks(2, 10**5))
        p = np.concatenate([b.p for b in stream])
        q = np.concatenate([b.q for b in stream])
        vals = q**e - p**e
        i = int(np.argmax(vals))
        gated = gated_blocks(monkeypatch)
        for pairs in (1, 7, gaps.PAIR_SLICE):
            monkeypatch.setattr(gaps, "PAIR_SLICE", pairs)
            gated.clear()
            r = check(10**5, arg)
            assert r.extremes["max_value"] == vals[i]
            assert r.extremes["max_value_pair"] == (i + 1, p[i], q[i])
            # B at 0.85 fails from gaps of about 10 on: its stream is dense
            assert bool(gated) == (e != 0.85)


class TestSmarandacheD:
    def test_witness_for_a_04(self):
        w = cj.find_smarandache_D_counterexample(0.4, 1)
        assert w is not None and w.n <= 100
        # exhaustive scan below the witness confirms it is the least index
        primes = primes_trial(2, 600)
        for n in range(1, w.n):
            p, q = primes[n - 1], primes[n]
            assert q**0.4 - p**0.4 < 1 / n

    def test_witness_for_a_05(self):
        w = cj.find_smarandache_D_counterexample(0.5, 1)
        assert w is not None

    def test_witness_holds_at_strict_precision(self):
        w = cj.find_smarandache_D_counterexample(0.4, 1)
        with mp.workdps(40):
            val = mp.power(w.q, mp.mpf("0.4")) - mp.power(w.p, mp.mpf("0.4"))
            assert val >= mp.mpf(1) / w.n

    def test_n_start_skips_early_witnesses(self):
        w1 = cj.find_smarandache_D_counterexample(0.4, 1)
        w2 = cj.find_smarandache_D_counterexample(0.4, w1.n + 1)
        assert w2.n > w1.n

    def test_fast_margin_inside_float_error_is_escalated(self, monkeypatch):
        # binary64 gives n = 1000 a margin 1/n - (q^a - p^a) of +6.9e-11; at
        # 50 digits it is -6.7e-18, so n = 1000 is the least witness, not
        # the clear failure at n = 1001
        a = 0.6537301645351674
        p, q = 10**9 + 7, 10**9 + 9
        with mp.workdps(50):
            a_mp = mp.mpf(repr(a))
            exact = mp.mpf(1) / 1000 - (mp.power(q, a_mp) - mp.power(p, a_mp))
        assert -1e-17 < exact < 0
        blk = gaps.PairBlock(1000, np.array([p, 3 * 10**9]),
                             np.array([q, 4 * 10**9]))
        fast = 1.0 / np.array([1000.0, 1001.0]) - (blk.q**a - blk.p**a)
        assert fast[0] > 6e-11 and fast[1] < 0

        def one_block(lo, hi):
            yield blk

        monkeypatch.setattr(gaps, "pair_blocks", one_block)
        w = cj.find_smarandache_D_counterexample(a)
        assert (w.n, w.p, w.q) == (1000, p, q)

    def test_exactly_zero_margin_is_not_a_witness(self, monkeypatch):
        # 289^0.5 - 256^0.5 = 1 = 1/n at n = 1: the strict margin is exactly
        # zero, which is uncertain, so the least n is unknown, although the
        # next pair clearly fails
        blk = gaps.PairBlock(1, np.array([256, 289]), np.array([289, 361]))
        monkeypatch.setattr(gaps, "pair_blocks", lambda lo, hi: iter([blk]))
        assert cj.find_smarandache_D_counterexample(0.5) is None

    def test_failure_before_an_uncertain_pair_is_the_witness(
            self, monkeypatch):
        blk = gaps.PairBlock(1, np.array([256, 289]), np.array([289, 361]))
        monkeypatch.setattr(gaps, "pair_blocks", lambda lo, hi: iter([blk]))
        monkeypatch.setattr(bounds, "settle", lambda *args: (
            np.array([0]), np.array([1]), {}))
        w = cj.find_smarandache_D_counterexample(0.5)
        assert (w.n, w.p, w.q, w.value) == (1, 256, 289, 1.0)

    def test_numpy_float_exponent(self):
        w = cj.find_smarandache_D_counterexample(np.float64(0.4))
        assert w == cj.find_smarandache_D_counterexample(0.4)

    def test_one_pair_stream_up_to_the_cap(self, monkeypatch):
        calls = []
        pair_blocks = gaps.pair_blocks

        def spy(lo, hi):
            calls.append((lo, hi))
            return pair_blocks(lo, hi)

        monkeypatch.setattr(gaps, "pair_blocks", spy)
        monkeypatch.setattr(sieve, "SEGMENT_ODDS", 1024)
        monkeypatch.setattr(cj, "D_SCAN_CAP", 10**4)
        # no witness below the cap: every pair up to p_cap is scanned
        assert cj.find_smarandache_D_counterexample(0.01, 1) is None
        assert calls == [(2, sieve._nth_prime_bound(10**4) + 1)]
        calls.clear()
        w = cj.find_smarandache_D_counterexample(0.1, 1)
        assert (w.n, w.p, w.q) == (217, 1327, 1361)
        assert len(calls) == 1
        # the cap is inclusive: the witness at n = 217 is found at cap 217
        monkeypatch.setattr(cj, "D_SCAN_CAP", 217)
        w = cj.find_smarandache_D_counterexample(0.1, 200)
        assert w.n == 217
        monkeypatch.setattr(cj, "D_SCAN_CAP", 216)
        assert cj.find_smarandache_D_counterexample(0.1, 200) is None

    @staticmethod
    def least_witness(primes, a, n_start, cap):
        """The least n in [n_start, cap] with q^a - p^a >= 1/n at 50
        digits, over the primes `primes`, or None."""
        with mp.workdps(50):
            a_mp = mp.mpf(repr(a))
            for n in range(n_start, cap + 1):
                p, q = primes[n - 1], primes[n]
                if mp.power(q, a_mp) - mp.power(p, a_mp) >= mp.mpf(1) / n:
                    return n
        return None

    @pytest.mark.parametrize("a", [0.1, 0.2, 0.4, 0.45])
    def test_least_witness_from_every_start(self, monkeypatch, a):
        # one stream from 2 for every n_start, past segments of 32 integers
        # and blocks of 7 pairs, each start at and around a block's first n
        primes = primes_trial(2, 1400)  # p_1 .. p_221
        monkeypatch.setattr(sieve, "SEGMENT_ODDS", 16)
        monkeypatch.setattr(gaps, "PAIR_SLICE", 7)
        for cap in (216, 217):
            edges = {blk.n0 for blk in gaps.pair_blocks(
                2, sieve._nth_prime_bound(cap) + 1) if blk.n0 <= cap}
            starts = sorted({n + d for n in edges for d in (-1, 0, 1)}
                            & set(range(1, cap + 1)))
            calls = []
            pair_blocks = gaps.pair_blocks

            def spy(lo, hi):
                calls.append((lo, hi))
                return pair_blocks(lo, hi)

            with monkeypatch.context() as m:
                m.setattr(gaps, "pair_blocks", spy)
                m.setattr(sieve, "nth_prime", None)
                m.setattr(sieve, "prime_count", None)
                m.setattr(cj, "D_SCAN_CAP", cap)
                for n_start in starts:
                    w = cj.find_smarandache_D_counterexample(a, n_start)
                    n = self.least_witness(primes, a, n_start, cap)
                    assert (w and (w.n, w.p, w.q)) == (
                        n and (n, primes[n - 1], primes[n])), n_start
            assert calls == [(2, sieve._nth_prime_bound(cap) + 1)] * len(
                starts)

    def test_n_start_past_the_cap_does_no_work(self, monkeypatch):
        monkeypatch.setattr(sieve, "nth_prime", None)
        monkeypatch.setattr(gaps, "pair_blocks", None)
        monkeypatch.setattr(cj, "D_SCAN_CAP", 10**5)
        assert cj.find_smarandache_D_counterexample(0.4, 10**5 + 1) is None


class TestSmarandacheRatio:
    def test_maximum_is_exactly_5_over_3(self):
        r = cj.check_smarandache_ratio(10**6)
        assert r.status is ReportStatus.ALL_HOLD  # the tie at (3,5) holds
        assert r.extremes["max_ratio_pair"] == (2, 3, 5)
        assert r.extremes["max_ratio_exact"] == "5/3"

    def test_2_3_below_bound(self):
        assert 3 * 3 <= 5 * 2

    def test_partition_invariance(self, monkeypatch):
        # 1e5 lies in one default segment, so the base stream is dense
        base = normalized(cj.check_smarandache_ratio(10**5))
        gated = gated_blocks(monkeypatch)
        assert not gated
        for odds in (1024, 4096):
            monkeypatch.setattr(sieve, "SEGMENT_ODDS", odds)
            monkeypatch.setattr(gaps, "PAIR_SLICE", odds // 32)
            gated.clear()
            got = normalized(cj.check_smarandache_ratio(10**5))
            assert got == base
            assert gated


class TestPartitionInvarianceInterval:
    """Chunks of `chunk` values of n over 2048-wide sieve segments give the
    report of the default cuts."""

    @staticmethod
    def cut_small(monkeypatch, chunk):
        monkeypatch.setattr(cj, "INTERVAL_CHUNK", chunk)
        monkeypatch.setattr(sieve, "SEGMENT_ODDS", 1024)

    @pytest.mark.parametrize("chunk", [4, 16])
    def test_legendre(self, monkeypatch, chunk):
        want = normalized(cj.check_legendre(500))
        self.cut_small(monkeypatch, chunk)
        assert normalized(cj.check_legendre(500)) == want

    @pytest.mark.parametrize("chunk", [4, 16])
    def test_oppermann(self, monkeypatch, chunk):
        want = normalized(cj.check_oppermann(500))
        self.cut_small(monkeypatch, chunk)
        assert normalized(cj.check_oppermann(500)) == want

    @pytest.mark.parametrize("chunk", [4, 16])
    def test_brocard(self, monkeypatch, chunk):
        want = normalized(cj.check_brocard(200))
        self.cut_small(monkeypatch, chunk)
        assert normalized(cj.check_brocard(200)) == want


def _reference_observe_block(best, blk):
    # ExtremeTracker.observe_block before metrics could be passed in: each
    # candidate record is observed for all four metrics.  `best` maps each
    # metric to its record: the larger value wins, an equal value the
    # smaller n
    p = blk.p.astype(np.float64)
    q = blk.q.astype(np.float64)
    gap = blk.q - blk.p
    for values in (gap, gap / np.log(p) ** 2, np.sqrt(q) - np.sqrt(p), q / p):
        top = values.max()
        for i in np.flatnonzero(values >= top - 1e-12 * abs(top)):
            rec = gaps.GapRecord.from_pair(
                blk.n0 + int(i), int(blk.p[i]), int(blk.q[i]))
            for metric in ("gap", "cramer_ratio", "andrica", "ratio"):
                cur = best.get(metric)
                value = getattr(rec, metric)
                if (cur is None or value > getattr(cur, metric)
                        or value == getattr(cur, metric) and rec.n < cur.n):
                    best[metric] = rec


def _reference_strict_margin(bound, n, p, q):
    # each gap bound's margin at STRICT_DPS, kept here so that the reference
    # does not share the strict margins of the code under test
    with mp.workdps(cj.STRICT_DPS):
        if bound == "andrica":
            return float(1 - (mp.sqrt(q) - mp.sqrt(p)))
        if bound == "kourbatov":
            lp = mp.log(p)
            return float(lp**2 - lp - 1 - (q - p))
        if bound == "cramer":
            return float(mp.log(p) ** 2 - (q - p))
        if bound == "firoozbakht":
            return float((n + 1) * mp.log(p) - n * mp.log(q))
    raise KeyError(bound)


def reference_gap_bounds(limit, which=cj.GAP_BOUNDS, start=2):
    """check_gap_bounds before the single metric pass: a second tracker for
    the pairs from p = 29 on, metrics recomputed per tracker and per bound,
    and separate scans for near-threshold pairs and violations."""
    which = tuple(w for w in cj.GAP_BOUNDS if w in set(which))
    report = cj.ConjectureReport(
        "gap-bounds:" + ",".join(which), f"pairs with {start} <= p < {limit}")
    best, floor_best = {}, {}
    # the whole pair stream as one block, so that the cost per block is paid
    # once whatever the PAIR_SLICE
    stream = list(gaps.pair_blocks(start, limit))
    for a, b in zip(stream, stream[1:]):
        assert b.n0 == a.n0 + a.p.size
    whole = [gaps.PairBlock(stream[0].n0,
                            np.concatenate([b.p for b in stream]),
                            np.concatenate([b.q for b in stream]))
             ] if stream else []
    for blk in whole:
        _reference_observe_block(best, blk)
        above = np.flatnonzero(blk.p >= bounds.KOURBATOV_FLOOR)
        if above.size:
            i0 = int(above[0])
            _reference_observe_block(floor_best, gaps.PairBlock(
                blk.n0 + i0, blk.p[i0:], blk.q[i0:]))
        p = blk.p.astype(np.float64)
        q = blk.q.astype(np.float64)
        gap = q - p
        log_p = np.log(p)
        floor_ok = blk.p >= bounds.KOURBATOV_FLOOR
        for bound in which:
            scale = None
            if bound == "andrica":
                margins = 1.0 - (np.sqrt(q) - np.sqrt(p))
                mask = np.ones(p.size, dtype=bool)
            elif bound == "kourbatov":
                margins = log_p**2 - log_p - 1.0 - gap
                mask = floor_ok
            elif bound == "cramer":
                margins = log_p**2 - gap
                mask = floor_ok
            else:
                ns = blk.n0 + np.arange(p.size, dtype=np.float64)
                margins = (ns + 1.0) * log_p - ns * np.log(q)
                scale = ns * np.log(q)
                mask = np.ones(p.size, dtype=bool)
            report.checked_count += int(mask.sum())
            report.skipped_count += int(p.size - mask.sum())
            tol = 1e-9 * (
                np.maximum(scale, 1.0) if scale is not None else 1.0)
            for i in np.flatnonzero(mask & (np.abs(margins) < tol)):
                n, pi, qi = blk.n0 + int(i), int(blk.p[i]), int(blk.q[i])
                strict = _reference_strict_margin(bound, n, pi, qi)
                s = max(float(scale[i]) if scale is not None else 1.0, 1.0)
                if abs(strict) < bounds.STRICT_REL_TOL * s:
                    report.uncertain.append((bound, n, pi, qi))
                elif strict <= 0:
                    report.violations.append((bound, n, pi, qi))
                margins[i] = 1.0
            for i in np.flatnonzero(mask & (margins <= 0.0)):
                report.violations.append(
                    (bound, blk.n0 + int(i), int(blk.p[i]), int(blk.q[i])))
    report.extremes["max_cramer_ratio"] = floor_best.get("cramer_ratio")
    report.extremes["max_andrica"] = best.get("andrica")
    report.extremes["max_gap"] = best.get("gap")
    report.extremes["max_ratio"] = best.get("ratio")
    return report.finalize()


class TestGapBoundsAgainstReference:
    """The single metric pass gives the reports of the two-tracker loop."""

    SELECTIONS = [(b,) for b in cj.GAP_BOUNDS] + [cj.GAP_BOUNDS]

    @pytest.mark.parametrize("limit, start", [
        (lim, st) for lim in (5, 29, 30, 31, 10**5)
        for st in (2, 28, 29, 30, 10**4) if st < lim])
    def test_many_blocks(self, monkeypatch, limit, start):
        gated = gated_blocks(monkeypatch)
        for which in self.SELECTIONS:
            for odds in (1024, 4096):
                monkeypatch.setattr(sieve, "SEGMENT_ODDS", odds)
                gated.clear()
                got = cj.check_gap_bounds(limit, which, start=start)
                # past the first segment the scan reads gated segments
                assert bool(gated) == (limit == 10**5), (which, odds)
                want = reference_gap_bounds(limit, which, start=start)
                assert normalized(got) == normalized(want), (which, odds)
                if limit <= bounds.KOURBATOV_FLOOR:
                    assert got.extremes["max_cramer_ratio"] is None

    @pytest.mark.parametrize("pairs, limit, start", [
        *(pytest.param(5, 10**5, st, id=str(st)) for st in (2, 29, 10**4)),
        *(pytest.param(1, 10**5, st, id=f"{st}-pairs1")
          for st in (2, 29, 10**4)),
        pytest.param(5, 10**11 + 10**5, 10**11, id="1e11")])
    def test_small_slices(self, monkeypatch, pairs, limit, start):
        monkeypatch.setattr(gaps, "PAIR_SLICE", pairs)
        gated = gated_blocks(monkeypatch)
        for odds in (1024, 4096):
            monkeypatch.setattr(sieve, "SEGMENT_ODDS", odds)
            gated.clear()
            got = cj.check_gap_bounds(limit, start=start)
            assert gated
            want = reference_gap_bounds(limit, start=start)
            assert normalized(got) == normalized(want)

    def test_violations_and_near_threshold_pairs(self, monkeypatch):
        # a made-up chain of "consecutive" values: 256 -> 289 has Andrica
        # difference exactly 1 (uncertain), the wide gaps break every bound
        chain = np.array([23, 29, 200, 225, 256, 289, 400, 401, 10**6],
                         dtype=np.int64)
        dropped = []

        def fake_blocks(lo, hi, gate=None):
            yield gaps.PairBlock(1, chain[:3], chain[1:4])
            p, q = chain[3:-1], chain[4:]
            if gate is None:
                yield gaps.PairBlock(4, p, q)
                return
            # a gated block, as a later segment gives: only the pairs whose
            # gap reaches the gate, each with its n
            keep = np.flatnonzero(q - p >= gate(int(p[0]), 4 + p.size - 1))
            dropped.extend(np.delete(p, keep).tolist())
            yield gaps.PairBlock(4, p[keep], q[keep], 4 + keep, p.size)

        monkeypatch.setattr(gaps, "pair_blocks", fake_blocks)
        got = cj.check_gap_bounds(10**6)
        want = reference_gap_bounds(10**6)
        assert normalized(got) == normalized(want)
        assert dropped == [400]  # the gap 1 after 400 reaches no bound
        assert got.uncertain and got.violations
        assert {w[0] for w in got.violations} == set(cj.GAP_BOUNDS)


class TestGatedScans:
    """The pairs a scan hands to settle_block and observe_block: only those
    its catalog can fail or record, where the gate reaches 32."""

    @staticmethod
    def handed(monkeypatch):
        """The blocks handed to observe_block, after settle_block saw each
        of them for every lead."""
        settled, observed = [], []
        settle_block = bounds.GapBound.settle_block
        observe_block = gaps.ExtremeTracker.observe_block
        monkeypatch.setattr(bounds.GapBound, "settle_block", lambda self, blk,
                            gap: settled.append(blk) or settle_block(
                                self, blk, gap))
        monkeypatch.setattr(gaps.ExtremeTracker, "observe_block",
                            lambda self, blk, gap: observed.append(blk)
                            or observe_block(self, blk, gap))
        return settled, observed

    def test_gap_bounds_past_the_first_segment(self, monkeypatch):
        settled, observed = self.handed(monkeypatch)
        r = cj.check_gap_bounds(10**8)
        assert r.checked_count == 4 * 5761455 - 18
        assert settled == [b for b in observed for _ in cj.GAP_BOUNDS]
        # the first segment is dense: no record is set before it
        first = 3 + 2 * sieve.SEGMENT_ODDS
        past = 5761455 - sieve.prime_count(first - 1)
        built = sum(int(np.count_nonzero(b.p >= first)) for b in observed)
        assert built < past // 100
        assert sum(b.count for b in observed) == 5761455

    def test_smarandache_b_builds_every_pair(self, monkeypatch):
        settled, observed = self.handed(monkeypatch)
        r = cj.check_smarandache_B(2 * 10**7, 0.85)
        assert settled == observed
        assert sum(b.p.size for b in observed) == r.checked_count == 1270607


def test_far_window_makes_no_strict_evaluation(monkeypatch):
    # at 1e11 a heuristic window sent every Firoozbakht margin to mpmath;
    # the integer gap against each block's threshold decides every pair.
    # Each margin escalated to mpmath is counted (record fields are
    # computed in mpmath too, and are not margins)
    entries = []
    settle = bounds.settle

    def counted(lhs, rhs, strict):
        return settle(lhs, rhs, lambda i: entries.append(i) or strict(i))

    monkeypatch.setattr(bounds, "settle", counted)
    r = cj.check_gap_bounds(10**11 + 10**6, start=10**11)
    assert r.status is ReportStatus.ALL_HOLD and r.checked_count > 10**5
    assert entries == []


class TestIntervalChunks:
    """Chunks of at most INTERVAL_CHUNK values of n change no report."""

    @pytest.mark.parametrize("check, n_max", [
        (cj.check_legendre, 2000), (cj.check_oppermann, 2000),
        (cj.check_brocard, 300)])
    def test_tiny_chunks_give_the_same_report(self, monkeypatch, check, n_max):
        want = normalized(check(n_max))
        monkeypatch.setattr(cj, "INTERVAL_CHUNK", 7)
        assert normalized(check(n_max)) == want
        monkeypatch.setattr(sieve, "SEGMENT_ODDS", 1024)
        assert normalized(check(n_max)) == want


def reference_scan(report, lo, hi, edges, sides):
    """The former _scan_intervals: every count in full, from the sieve."""
    ns = np.arange(lo, hi, dtype=np.int64)
    pi = sieve.prime_counts_at(np.concatenate(edges(ns))).reshape(-1, ns.size)
    best = []
    for i, j, least, tag in sides:
        counts = pi[j] - pi[i]
        if tag is not None:
            report.checked_count += ns.size
            report.violations.extend(
                (n, tag) for n in ns[counts < least].tolist())
        m = int(np.argmin(counts))
        best.append((int(counts[m]), int(ns[m])))
    return best


class TestCappedIntervalScan:
    """Capped counts give the violations and least counts of full counts,
    wherever the least lies and however the range is cut."""

    CASES = [
        # Legendre intervals held to 12 primes: violations up to n = 13
        (1, 3000, lambda ns: (ns * ns, (ns + 1) ** 2),
         [(0, 1, 12, "few")]),
        # 30 wide past n^2: empty intervals, the first far from lo
        (100, 5000, lambda ns: (ns * ns, ns * ns + 30),
         [(0, 1, 2, "short"), (0, 1, 0, None)]),
        # nested ends, and a side that only records its least
        (2, 2000, lambda ns: (ns * ns - ns, ns * ns, ns * ns + 3 * ns),
         [(0, 1, 3, "below"), (1, 2, 0, None), (0, 2, 6, "both")]),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("first, chunk", [(64, 1 << 16), (3, 7), (1, 500)])
    def test_matches_full_counts(self, monkeypatch, case, first, chunk):
        lo, hi, edges, sides = self.CASES[case]
        want = cj.ConjectureReport("x", "")
        want_best = reference_scan(want, lo, hi, edges, sides)
        monkeypatch.setattr(cj, "FIRST_CHUNK", first)
        monkeypatch.setattr(cj, "INTERVAL_CHUNK", chunk)
        got = cj.ConjectureReport("x", "")
        assert cj._scan_intervals(got, lo, hi, edges, sides) == want_best
        # reports sort their violations when they are finalized
        assert sorted(got.violations) == sorted(want.violations)
        assert got.checked_count == want.checked_count
