import math
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import bounds, gaps
from primegaps import conjectures as cj
from primegaps.bounds import Precision, Status


def strict_margin(terms, *args):
    """The margin lhs - rhs of terms(mpmath, *args), at the working
    precision."""
    lhs, rhs = terms(mp, *args)
    return lhs - rhs


def catalog_margins(bound, n, p, q):
    """The two binary64 terms and the 50-digit strict margin of one pair,
    read from the catalog entry of `bound`."""
    entry = bounds.GAP_BOUNDS[bound]
    lhs, rhs = entry.terms(np, np.array([float(n)]), np.array([p]),
                           np.array([q]))
    with mp.workdps(50):
        strict = strict_margin(entry.terms, n, p, q)
    return float(lhs[0]), float(rhs[0]), strict


def decide(bound, n, p, q):
    """The status of the pair (p, q), p the n-th prime, under the catalog
    entry `bound`, decided as the commands decide it: by `settle_block` on
    a one-pair block."""
    blk = gaps.PairBlock(n, np.array([p]), np.array([q]))
    fails, uncertain = bounds.GAP_BOUNDS[bound].settle_block(blk,
                                                             blk.q - blk.p)
    return (Status.UNCERTAIN if uncertain.size
            else Status.FAILS if fails.size else Status.HOLDS)


def settled(bound, n, p, q):
    """`bounds.settle` of the catalog terms of one pair, as `settle_block`
    calls it: the failing and uncertain indices, and {0: m} where the
    margin was decided at strict precision."""
    entry = bounds.GAP_BOUNDS[bound]
    lhs, rhs = entry.terms(np, np.array([float(n)]), np.array([p]),
                           np.array([q]))
    return bounds.settle(lhs, rhs, lambda i: entry.terms(mp, n, p, q))


class TestKourbatovBound:
    """The catalog entry of g < (ln p)^2 - ln p - 1: its left term is the
    bound, and `settle_block` tests it only from p = 29 on."""

    @staticmethod
    def bound_at(p):
        return catalog_margins("kourbatov", 1, p, p)[0]

    def test_at_29(self):
        lp = math.log(29)
        assert self.bound_at(29) == pytest.approx(lp * lp - lp - 1)
        assert self.bound_at(29) == pytest.approx(6.97138, abs=1e-5)
        assert decide("kourbatov", 10, 29, 31) is Status.HOLDS
        assert decide("kourbatov", 10, 29, 36) is Status.FAILS  # 7 > 6.97

    def test_at_e(self):
        assert self.bound_at(math.e) == pytest.approx(-1.0)

    def test_at_127(self):
        lp = math.log(127)
        assert self.bound_at(127) == pytest.approx(lp * lp - lp - 1)
        assert self.bound_at(127) == pytest.approx(17.622, abs=1e-3)
        assert decide("kourbatov", 31, 127, 131) is Status.HOLDS
        assert decide("kourbatov", 31, 127, 145) is Status.FAILS  # 18

    def test_domain_error(self):
        # most pairs below 29 fail the bound (at p = 2 it is -1.2), and
        # settle_block leaves them untested: it decides from p = 29 on
        p = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
        q = np.array([3, 5, 7, 11, 13, 17, 19, 23, 29, 37])
        failing = [pi for n, (pi, qi) in enumerate(zip(p.tolist(),
                                                       q.tolist()), 1)
                   if catalog_margins("kourbatov", n, pi, qi)[2] < 0]
        assert failing == [2, 3, 5, 7, 13, 23, 29]
        blk = gaps.PairBlock(1, p, q)
        fails, uncertain = bounds.GAP_BOUNDS["kourbatov"].settle_block(
            blk, blk.q - blk.p)
        assert fails.tolist() == [9] and not uncertain.size

    @given(st.floats(min_value=2.0, max_value=1e12))
    @settings(max_examples=200)
    def test_always_below_squared_log(self, p):
        cramer = catalog_margins("cramer", 1, p, p)[0]
        assert cramer == pytest.approx(math.log(p) ** 2)
        assert self.bound_at(p) < cramer


class TestAndricaCheck:
    """The catalog entry of sqrt(q) - sqrt(p) < 1, decided by
    `settle_block`: its threshold and strict margin agree."""

    @staticmethod
    def holds(p, q, margin, abs_):
        assert decide("andrica", 1, p, q) is Status.HOLDS
        lhs, rhs, strict = catalog_margins("andrica", 1, p, q)
        assert (lhs, rhs) == (1 + math.sqrt(p), math.sqrt(q))
        assert lhs - rhs == pytest.approx(margin, abs=abs_)
        assert strict == pytest.approx(margin, abs=abs_)
        # (q - p - 1)^2 < 4p: the block rule holds each of them
        assert q - p < bounds.GAP_BOUNDS["andrica"].threshold(p, 1)

    def test_7_11(self):
        self.holds(7, 11, 1 - 0.670873, 1e-6)

    def test_2_3(self):
        self.holds(2, 3, 1 - (math.sqrt(3) - math.sqrt(2)), 1e-15)

    def test_113_127(self):
        self.holds(113, 127, 1 - 0.6392, 1e-4)

    def test_failure_within_the_root_error(self):
        # (g - 1)^2 - 4p = 574 949 092 > 0, but each binary64 root near
        # 2e17 is off by up to 3e-8, and the fast margin reads +6e-8: only
        # the strict margin may decide it
        p, q = 214797378458451888, 214797379385376651
        assert (q - p - 1) ** 2 - 4 * p == 574_949_092
        assert decide("andrica", 1, p, q) is Status.FAILS
        lhs, rhs, _ = catalog_margins("andrica", 1, p, q)
        assert 0 < lhs - rhs <= bounds.TERM_REL_ERR * (lhs + rhs)
        fails, uncertain, values = settled("andrica", 1, p, q)
        assert fails.tolist() == [0] and not uncertain.size
        assert values[0] == pytest.approx(-3.3459e-10, rel=1e-4)


class TestFiroozbakhtCheck:
    """The catalog entry of q^(1/(n+1)) < p^(1/n), decided by
    `settle_block` on its terms (n + 1) ln p and n ln q."""

    @staticmethod
    def holds(n, p, q):
        assert p ** (1 / n) > q ** (1 / (n + 1))
        assert decide("firoozbakht", n, p, q) is Status.HOLDS
        lhs, rhs, strict = catalog_margins("firoozbakht", n, p, q)
        assert lhs - rhs > 0 and strict > 0
        assert lhs == pytest.approx((n + 1) * math.log(p))
        assert rhs == pytest.approx(n * math.log(q))
        # p ln p / n is below each of these small gaps: the block rule
        # leaves them to the margins
        assert q - p >= bounds.GAP_BOUNDS["firoozbakht"].threshold(p, n)

    def test_4_7_11(self):
        self.holds(4, 7, 11)  # 7^(1/4) = 1.6266 > 11/7 = 1.571

    def test_1_2_3(self):
        self.holds(1, 2, 3)  # ln 3 < 2 ln 2

    def test_2_3_5(self):
        self.holds(2, 3, 5)  # 25 < 27

    def test_equivalent_rearrangements_agree(self):
        # deciding via n ln q < (n+1) ln p must match the power form
        # q < p^((n+1)/n) at strict precision on assorted pairs
        cases = [(1, 2, 3), (2, 3, 5), (4, 7, 11), (30, 113, 127),
                 (217, 1327, 1361)]
        for n, p, q in cases:
            with mp.workdps(40):
                direct = mp.power(p, mp.mpf(n + 1) / n) - q
            assert ((decide("firoozbakht", n, p, q) is Status.HOLDS)
                    == (direct > 0))


@st.composite
def block_and_pair(draw):
    """(p0, n1, n, p): a block whose first p is p0 and last n is n1, and a
    pair (n, p) in it, with 29 <= p0 <= p < 2^63 - 2000 and n <= p; n is
    often about the index of p, or the last n of the block."""
    p = draw(st.integers(29, 2**63 - 2001))
    p0 = p - draw(st.one_of(st.just(0), st.integers(0, min(p - 29, 10**6)),
                            st.integers(0, p - 29)))
    n = draw(st.one_of(st.integers(1, p), st.just(max(1, p // 44))))
    n1 = n + draw(st.one_of(st.just(0), st.integers(0, 10**6)))
    return p0, n1, n, p


class Built(Exception):
    """Carries the bound a checker built, and stops the checker there."""


def used_bound(check, *args):
    """The `bounds.power_gap_bound` that check(*args) decides its pairs
    by, taken before it scans any pair."""
    real = bounds.power_gap_bound

    def spy(*bound_args):
        raise Built(real(*bound_args))

    with mock.patch.object(bounds, "power_gap_bound", spy), \
            pytest.raises(Built) as built:
        check(*args)
    return built.value.args[0]


def power_bounds(e, k):
    """The bounds q^e - p^e < 1 (Smarandache B), q^(1/k) - p^(1/k) < 2/k
    (C) and q^e - p^e < 1/n (D), as their checkers build them."""
    return [used_bound(cj.check_smarandache_B, 3, e),
            used_bound(cj.check_smarandache_C, 3, k),
            used_bound(cj.find_smarandache_D_counterexample, e, 1)]


# Smarandache B refuses an exponent below 2^-959
EXPONENTS = st.floats(2.0**-959, 1.0, exclude_max=True)


class TestGapBoundThresholds:
    """A block threshold only ever decides "holds", and only where the
    strict margin is positive."""

    @given(block_and_pair(), EXPONENTS, st.integers(2, 1000), st.data())
    @settings(max_examples=300, deadline=None)
    def test_threshold_holds_only_where_the_bound_does(self, block, e, k,
                                                       data):
        p0, n1, n, p = block
        for bound in (*bounds.GAP_BOUNDS.values(), *power_bounds(e, k),
                      bounds.RATIO_BOUND):
            threshold = bound.threshold(p0, n1)
            if bound is bounds.RATIO_BOUND:  # tight: g = T fails at p0
                assert 3 * (p0 + threshold) > 5 * p0
            # the largest gaps the threshold holds, which are the tightest,
            # up to q - p = 2000
            g = min(threshold - 1, 2000) - data.draw(
                st.integers(0, 2), label=bound.id)
            if g < 1:
                continue
            assert g < threshold
            with mp.workdps(50):
                margin = strict_margin(bound.terms, n, p, p + g)
            # q/p <= 5/3 is not strict: its exact margin 5p - 3q holds at 0
            assert margin > 0 or (bound is bounds.RATIO_BOUND
                                  and margin == 0), (bound.id, n, p, g)

    @given(st.integers(6, 3037000498), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_andrica_equality_is_never_held(self, k, below):
        # sqrt((k+1)^2) - sqrt(k^2) = 1 exactly: (g - 1)^2 = 4p, whose
        # strict margin is zero, so the verdict must come out uncertain
        p, q = k * k, (k + 1) ** 2
        andrica = bounds.GAP_BOUNDS["andrica"]
        assert not q - p < andrica.threshold(max(p - below, 2), 1)
        with mp.workdps(50):
            assert strict_margin(andrica.terms, 1, p, q) == 0

    def test_kourbatov_threshold_reads_its_bound(self):
        # floor((ln p)^2 - ln p - 1): 6.97 at p = 29, 17.62 at 127
        kourbatov = bounds.GAP_BOUNDS["kourbatov"]
        assert kourbatov.threshold(29, 10) == 6
        assert kourbatov.threshold(127, 31) == 17 == math.floor(
            catalog_margins("kourbatov", 31, 127, 127)[0])


def assert_within_error_bound(terms, exact, label):
    """The binary64 margin lhs - rhs of the two terms lies within
    TERM_REL_ERR (|lhs| + |rhs|) of `exact`, the margin at 50 digits."""
    lhs, rhs = (float(np.ravel(t)[0]) for t in terms)
    with mp.workdps(50):
        error = abs(mp.mpf(lhs - rhs) - exact)
    assert error <= bounds.TERM_REL_ERR * (abs(lhs) + abs(rhs)), (
        label, lhs, rhs, exact)


# each exponent of a power bound, in module m's arithmetic
POWER_EXPONENTS = (lambda m: bounds.num(m, 1) / 3,
                   lambda m: bounds.num(m, 1) / 2,
                   lambda m: bounds.num(m, 0.85))


def exact_power_bounds():
    """`bounds.power_gap_bound` at each exponent of POWER_EXPONENTS, with
    bound 1 and with bound 1/n."""
    return [
        bounds.power_gap_bound(e, bound)
        for e in POWER_EXPONENTS
        for bound in (lambda m, n: bounds.num(m, 1),
                      lambda m, n: bounds.num(m, 1) / n)
    ]


class TestTermErrorBound:
    """Every catalog entry's two binary64 terms give a margin within
    TERM_REL_ERR (|lhs| + |rhs|) of its 50-digit value, the rule by which
    `settle` decides it."""

    @given(st.one_of(st.integers(29, 10**6), st.integers(29, 2**63 - 2000)),
           st.integers(1, 750), st.integers(1, 2**53))
    @settings(max_examples=300, deadline=None)
    def test_pair_terms(self, p, half_gap, n):
        q = p + 2 * half_gap
        for bound in (*bounds.GAP_BOUNDS.values(), *exact_power_bounds(),
                      bounds.RATIO_BOUND):
            terms = bound.terms(np, np.array([float(n)]), np.array([p]),
                                np.array([q]))
            with mp.workdps(50):
                exact = strict_margin(bound.terms, n, p, q)
            assert_within_error_bound(terms, exact, (bound.id, n, p, q))

    @given(st.one_of(st.integers(2, 10**4), st.integers(2, 2**53)))
    @settings(max_examples=300, deadline=None)
    def test_integer_terms(self, n):
        for pred in bounds.PREDICATES.values():
            with mp.workdps(50):
                exact = strict_margin(pred.terms, n)
            assert_within_error_bound(
                pred.terms(np, np.array([float(n)])), exact, (pred.id, n))
        # a monotonicity step compares neighbouring values, up to 2^53
        n = min(n, 2**53 - 1)
        for seq in bounds.SEQUENCES.values():
            values = seq.terms(np, np.array([n, n + 1], dtype=np.float64))
            with mp.workdps(50):
                exact = seq.terms(mp, n + 1) - seq.terms(mp, n)
            assert_within_error_bound((values[1], values[0]), exact,
                                      (seq.id, n))


def claimed_pair_margins(n, p, q, a, k):
    """lhs - rhs of each pair inequality, written out from its claim at the
    working precision, for the pair (p, q) with p the n-th prime: B and D
    at the exponent a, C at the root order k."""
    g = q - p
    lp, lq = mp.log(p), mp.log(q)
    power = mp.power(q, mp.mpf(repr(a))) - mp.power(p, mp.mpf(repr(a)))
    return {
        "andrica": 1 + mp.sqrt(p) - mp.sqrt(q),
        "kourbatov": lp**2 - lp - 1 - g,
        "firoozbakht": (n + 1) * lp - n * lq,
        "cramer": lp**2 - g,
        "smarandache-ratio": mp.mpf(5 * p + 1 - 3 * q),
        "smarandache-b": 1 - power,
        "smarandache-c": mp.mpf(2) / k - (mp.root(q, k) - mp.root(p, k)),
        "smarandache-d": mp.mpf(1) / n - power,
    }


def claimed_integer_margins(n):
    """lhs - rhs of each predicate, and the value of each sequence, written
    out from its description at the working precision."""
    ln = mp.log(n)
    return {
        "two-n-plus-one-vs-4log2": 2 * n + 1 - 4 * ln**2,
        "sqrt-vs-2log": mp.sqrt(n) - 2 * ln,
        "n-vs-4log2": n - 4 * ln**2,
        "log2-vs-2sqrt-plus-1": 2 * mp.sqrt(n) + 1 - ln**2,
        "n-over-logpow-vs-9.33": n / ln ** mp.mpf("2.3095") - mp.mpf("9.33"),
        "a0-pow-vs-log2": mp.mpf("1.76320819") * mp.power(
            n, mp.mpf("0.432852")) - ln**2,
        "sqrt-over-log-squared": mp.sqrt(n) / ln**2,
    }


def assert_claimed(terms, want, label):
    """terms, a pair (lhs, rhs) or one value, give `want` to within 1e-40
    of their size."""
    got, size = ((terms[0] - terms[1], abs(terms[0]) + abs(terms[1]))
                 if isinstance(terms, tuple) else (terms, abs(terms)))
    assert abs(got - want) <= 1e-40 * size, (label, got, want)


class TestTermsOracle:
    """Every catalog entry's terms(mpmath, ...) at 50 digits give the
    margin of the inequality it claims, as written out above: the one
    cross-check of the single expression that both arithmetics evaluate."""

    @given(st.one_of(st.integers(2, 10**6), st.integers(2, 2**63 - 2001)),
           st.integers(1, 1500), st.integers(1, 2**53), EXPONENTS,
           st.integers(2, 1000))
    @settings(max_examples=300, deadline=None)
    def test_pair_entries(self, p, g, n, a, k):
        entries = {**bounds.GAP_BOUNDS,
                   "smarandache-ratio": bounds.RATIO_BOUND,
                   **dict(zip(("smarandache-b", "smarandache-c",
                               "smarandache-d"), power_bounds(a, k)))}
        with mp.workdps(50):
            claims = claimed_pair_margins(n, p, p + g, a, k)
            assert claims.keys() == entries.keys()
            for name, entry in entries.items():
                assert_claimed(entry.terms(mp, n, p, p + g), claims[name],
                               (name, n, p, g, a, k))

    @given(st.one_of(st.integers(2, 10**4), st.integers(2, 2**53)))
    @settings(max_examples=300, deadline=None)
    def test_integer_entries(self, n):
        entries = {**bounds.PREDICATES, **bounds.SEQUENCES}
        with mp.workdps(50):
            claims = claimed_integer_margins(n)
            assert claims.keys() == entries.keys()
            for name, entry in entries.items():
                assert_claimed(entry.terms(mp, n), claims[name], (name, n))


class TestNum:
    """`bounds.num`: the value a constant stands for in each arithmetic."""

    CONSTANTS = (0.85, np.float64(0.85), bounds.SM9_COEFF,
                 bounds.SM9_EXPONENT, bounds.SM9_LOG_POWER, bounds.SM9_RHS)
    INTS = (0, 1, 5, 2**53 + 1, 2**63 - 1, np.int64(2**63 - 1))

    def test_numpy_side_is_the_float(self):
        for x in (*self.CONSTANTS, *self.INTS):
            got = bounds.num(np, x)
            assert type(got) is float and got == float(x)

    @pytest.mark.parametrize("dps", [bounds.STRICT_DPS, 50])
    def test_mpmath_side_is_the_printed_decimal(self, dps):
        with mp.workdps(dps):
            for x in self.CONSTANTS:
                assert bounds.num(mp, x) == mp.mpf(repr(float(x)))
            # 85/100, not the binary64 value nearest it
            assert bounds.num(mp, 0.85) != mp.mpf(0.85)
            for i in self.INTS:
                assert bounds.num(mp, i) == int(i)


def predicate_margin(pid, n):
    """The binary64 margin lhs - rhs of the predicate `pid` at n."""
    lhs, rhs = bounds.PREDICATES[pid].terms(np, np.array([float(n)]))
    return float(np.subtract(lhs, rhs)[0])


class TestPointwiseCurves:
    def test_log_sq_vs_two_sqrt_at_121(self):
        assert predicate_margin("log2-vs-2sqrt-plus-1", 121) == pytest.approx(
            0.000393, abs=5e-6
        )

    def test_log_sq_vs_two_sqrt_trivial(self):
        assert predicate_margin("log2-vs-2sqrt-plus-1", 1) == pytest.approx(
            3.0)

    def test_log_sq_vs_two_sqrt_below_threshold(self):
        margin = predicate_margin("log2-vs-2sqrt-plus-1", 120)
        assert margin < 0
        assert margin == pytest.approx(-0.0107, abs=1e-3)

    def test_domain_errors(self):
        # the scans refuse n < 2, where ln n is not positive
        for pid in ("log2-vs-2sqrt-plus-1", "a0-pow-vs-log2"):
            with pytest.raises(ValueError):
                bounds.crossover_scan(pid, 0, 10)
            with pytest.raises(ValueError):
                bounds.crossover_scan(pid, 1, 10)

    def test_smarandache9_margin(self):
        assert predicate_margin("a0-pow-vs-log2", 5850) >= 0.08077
        assert predicate_margin("a0-pow-vs-log2", 1) == pytest.approx(
            1.76320819)
        assert predicate_margin("a0-pow-vs-log2", 10**6) > 0
        # the printed constants hold from 5820 on
        r = bounds.crossover_scan("a0-pow-vs-log2", 2, 10**5)
        assert (r.threshold, r.pre_threshold_failure) == (5820, 5819)

    def test_recomputed_constants_close_to_printed(self):
        audit = bounds.recompute_smarandache9_constants(0.5671481302020263)
        # the printed decimals come from a truncated root, so they sit a few
        # 1e-7 away from the recomputed values; the audit reports that gap
        assert abs(audit["coeff_discrepancy"]) < 1e-6
        assert abs(audit["exponent_discrepancy"]) < 5e-7


class TestCrossoverScan:
    def test_legendre_threshold(self):
        r = bounds.crossover_scan("two-n-plus-one-vs-4log2", 2, 10**4)
        assert r.threshold == 11
        assert r.pre_threshold_failure == 10

    def test_sqrt_vs_2log_threshold(self):
        r = bounds.crossover_scan("sqrt-vs-2log", 2, 10**4)
        assert r.threshold == 75

    def test_n_vs_4log2_threshold(self):
        r = bounds.crossover_scan("n-vs-4log2", 2, 10**4)
        assert r.threshold == 75

    def test_andrica_threshold(self):
        r = bounds.crossover_scan("log2-vs-2sqrt-plus-1", 2, 10**4)
        assert r.threshold == 121
        assert r.pre_threshold_failure == 120

    def test_z_predicate_threshold_below_5850(self):
        r = bounds.crossover_scan("n-over-logpow-vs-9.33", 2, 10**4)
        assert r.threshold <= 5850
        z_5850 = 5850 / math.log(5850) ** bounds.SM9_LOG_POWER - bounds.SM9_RHS
        assert z_5850 == pytest.approx(30.5, abs=0.1)

    def test_stability_when_window_doubles(self):
        for pid in bounds.PREDICATES:
            r1 = bounds.crossover_scan(pid, 2, 10**4)
            r2 = bounds.crossover_scan(pid, 2, 2 * 10**4)
            assert r2.threshold >= r1.threshold
            assert r2.threshold == r1.threshold  # all are stable here

    def test_no_crossover_signal(self):
        never = bounds.Predicate("never", "0 > 1",
                                 lambda m, n: (0 * n, 0 * n + 1))
        with pytest.raises(bounds.NoCrossoverError):
            bounds.crossover_scan(never, 2, 100)

    def test_unknown_id_lists_catalog(self):
        with pytest.raises(KeyError, match="two-n-plus-one-vs-4log2"):
            bounds.crossover_scan("nope", 2, 100)

    def test_nan_margin_is_settled_strictly(self):
        # a NaN fast margin neither holds nor fails: strict decides it
        def terms(m, n):
            if m is np:
                return np.where(n == 50, np.nan, n), 10.5
            return (mp.mpf(-1), 0) if n == 50 else (n, mp.mpf("10.5"))

        nan_at_50 = bounds.Predicate(
            "nan-at-50", "n > 10.5, NaN in binary64 at 50", terms)
        r = bounds.crossover_scan(nan_at_50, 2, 100)
        assert r.threshold == 51 and r.pre_threshold_failure == 50


class TestMonotoneScan:
    def test_sqrt_over_log_squared_increasing_from_190(self):
        v = bounds.monotone_scan("sqrt-over-log-squared", 190, 10**5)
        assert v.status is Status.HOLDS

    def test_value_at_190(self):
        seq = bounds.SEQUENCES["sqrt-over-log-squared"]
        val = float(seq.terms(np, np.array([190.0]))[0])
        assert val == pytest.approx(0.50066, abs=5e-5)
        assert val > 0.5

    def test_constant_sequence_is_uncertain_immediately(self):
        # every step is exactly 0 at strict precision too, which is
        # uncertain under the one zero rule, not a failure
        const = bounds.Predicate("const", "always 1", lambda m, n: 0 * n + 1)
        v = bounds.monotone_scan(const, 2, 100)
        assert v.status is Status.UNCERTAIN
        assert v.witness == (2,)

    def test_sequence_decreasing_below_190(self):
        # the same sequence is not monotone when started too early
        v = bounds.monotone_scan("sqrt-over-log-squared", 2, 300)
        assert v.status is Status.FAILS

    def test_unknown_id_lists_catalog(self):
        with pytest.raises(KeyError, match="unknown sequence 'nope'.*"
                                           "sqrt-over-log-squared"):
            bounds.monotone_scan("nope", 2, 100)

    def test_steps_are_judged_at_their_own_scale(self):
        # near -1e10 a binary64 step is off by up to a spacing of 1e10
        # (~1.9e-6), so the glitch at n = 21 must be settled strictly
        # rather than against the window of the small values near n = 89
        def fast(n):
            v = np.where(n < 50, -1e10 + 1e-7 * n,
                         1e-3 * (n - 49) - 0.05 * (n >= 90))
            v[n == 21] -= np.spacing(1e10)
            return v

        def strict(n):
            if n < 50:
                return -mp.mpf(10) ** 10 + n * mp.mpf("1e-7")
            return (n - 49) * mp.mpf("1e-3") - (mp.mpf("0.05") if n >= 90
                                                else 0)

        glitch = bounds.Predicate(
            "glitch", "steps of two scales",
            lambda m, n: fast(n) if m is np else strict(n))
        v = bounds.monotone_scan(glitch, 2, 100)
        assert v.status is Status.FAILS and v.witness == (89,)
        assert v.precision_used is Precision.FAST
        assert v.margin == pytest.approx(-0.049)

    def test_steps_near_1e12_are_decided_in_binary64(self):
        # each step there, about 5.6e-10, lies far outside its error bound
        # TERM_REL_ERR * 2620 = 3.7e-11, so none reaches mpmath
        seq = bounds.SEQUENCES["sqrt-over-log-squared"]

        def no_strict(m, n):
            if m is not np:
                raise AssertionError(f"the step at {n} was escalated")
            return seq.terms(m, n)

        lo, hi = 10**12, 10**12 + 5 * 10**4
        v = bounds.monotone_scan(
            bounds.Predicate("fast", seq.description, no_strict), lo, hi)
        assert v.status is Status.HOLDS
        assert v.precision_used is Precision.FAST
        with mp.workdps(bounds.STRICT_DPS):
            last = float(seq.terms(mp, hi) - seq.terms(mp, hi - 1))
        assert v.margin == pytest.approx(last, rel=1e-2)

    def test_escalated_steps_report_the_strict_margin(self):
        # below 2^53 every step (~4e-12) is under the scaled window and
        # binary64 gets even its sign wrong, so each is settled strictly;
        # the steps shrink with n, so the last one is the smallest
        seq = bounds.SEQUENCES["sqrt-over-log-squared"]
        hi = bounds.MAX_EXACT_FLOAT_INT
        v = bounds.monotone_scan(seq, hi - 1000, hi)
        assert v.status is Status.HOLDS
        assert v.precision_used is Precision.STRICT
        with mp.workdps(bounds.STRICT_DPS):
            last = float(seq.terms(mp, hi) - seq.terms(mp, hi - 1))
        assert v.margin == pytest.approx(last, rel=1e-9)
        assert v.margin > 0


# a sequence that rises to n = 1000 and falls after it: its first failing
# step, and its smallest step, lie far from the window start
PEAK_AT_1000 = bounds.Predicate(
    "peak", "-(n - 1000)^2", lambda m, n: -((n - bounds.num(m, 1000)) ** 2))


class TestChunkedScans:
    """The scanners walk [lo, hi] in runs of SCAN_CHUNK integers; the
    result must not depend on where the runs are cut."""

    CHUNKS = (1, 2, 7, 1000)

    @staticmethod
    def _outcome(scan, entry, lo, hi):
        try:
            return scan(entry, lo, hi)
        except bounds.NoCrossoverError as exc:
            return str(exc)

    @pytest.mark.parametrize("pid", sorted(bounds.PREDICATES))
    def test_crossover_independent_of_chunk(self, monkeypatch, pid):
        want = bounds.crossover_scan(pid, 2, 3 * 10**4)
        for chunk in self.CHUNKS:
            monkeypatch.setattr(bounds, "SCAN_CHUNK", chunk)
            assert bounds.crossover_scan(pid, 2, 3 * 10**4) == want

    def test_crossover_failure_at_window_end_independent_of_chunk(
            self, monkeypatch):
        want = self._outcome(bounds.crossover_scan, "sqrt-vs-2log", 2, 50)
        assert "still failing at the window end 50" in want
        for chunk in self.CHUNKS:
            monkeypatch.setattr(bounds, "SCAN_CHUNK", chunk)
            assert self._outcome(
                bounds.crossover_scan, "sqrt-vs-2log", 2, 50) == want

    @pytest.mark.parametrize("lo", [2, 150, 190])
    def test_monotone_independent_of_chunk(self, monkeypatch, lo):
        want = bounds.monotone_scan("sqrt-over-log-squared", lo, 3 * 10**4)
        for chunk in self.CHUNKS:
            monkeypatch.setattr(bounds, "SCAN_CHUNK", chunk)
            got = bounds.monotone_scan("sqrt-over-log-squared", lo, 3 * 10**4)
            assert got == want

    def test_monotone_late_failure_independent_of_chunk(self, monkeypatch):
        want = bounds.monotone_scan(PEAK_AT_1000, 2, 3000)
        assert want.status is Status.FAILS and want.witness == (1000,)
        for chunk in self.CHUNKS:
            monkeypatch.setattr(bounds, "SCAN_CHUNK", chunk)
            assert bounds.monotone_scan(PEAK_AT_1000, 2, 3000) == want

    def test_memory_stays_flat(self):
        # a whole-window scan of 5e6 integers takes about 120 MiB
        for run in (
            lambda: bounds.crossover_scan("two-n-plus-one-vs-4log2", 2,
                                          5 * 10**6),
            lambda: bounds.monotone_scan("sqrt-over-log-squared", 190,
                                         5 * 10**6),
        ):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20


class TestTriStateEngine:
    def test_decided_fast_margin(self):
        # margin 0.33, far outside its window: no escalation
        assert decide("andrica", 1, 7, 11) is Status.HOLDS
        fails, uncertain, values = settled("andrica", 1, 7, 11)
        assert not fails.size and not uncertain.size and values == {}

    def test_escalates_to_strict(self):
        # a margin of 1e-12 between terms of 1000 is inside their error
        # bound, TERM_REL_ERR * 2000 = 2.8e-11
        fails, uncertain, values = bounds.settle(
            np.array([1000 + 1e-12]), np.array([1000.0]),
            lambda i: (mp.mpf("1e-12"), 0))
        assert not fails.size and not uncertain.size  # holds
        assert values == {0: 1e-12}  # at strict precision

    def test_uncertain_when_strict_cannot_separate(self):
        fails, uncertain, values = bounds.settle(
            np.array([1.0]), np.array([1.0]),
            lambda i: (mp.mpf("1e-30"), 0))
        assert uncertain.tolist() == [0] and not fails.size
        assert values == {0: 1e-30}

    def test_exactly_zero_strict_margin_is_uncertain(self):
        # sqrt(289) - sqrt(256) = 1
        assert decide("andrica", 1, 256, 289) is Status.UNCERTAIN
        fails, uncertain, values = settled("andrica", 1, 256, 289)
        assert uncertain.tolist() == [0] and not fails.size
        assert values == {0: 0.0}

    def test_nan_margin_is_decided_strictly(self):
        fails, uncertain, values = bounds.settle(
            np.array([np.nan]), np.array([0.0]), lambda i: (mp.mpf(-1), 0))
        assert fails.tolist() == [0] and not uncertain.size
        assert values == {0: -1.0}

    def test_fails_carry_witness(self):
        # sqrt(29) - sqrt(7) = 2.74: the failing position gives the
        # witness (n, p, q) that the checkers capture
        blk = gaps.PairBlock(2, np.array([3, 7, 11]), np.array([5, 29, 13]))
        fails, uncertain = bounds.GAP_BOUNDS["andrica"].settle_block(
            blk, blk.q - blk.p)
        assert fails.tolist() == [1] and not uncertain.size
        assert (blk.index(1), blk.p[1], blk.q[1]) == (3, 7, 29)

    def test_fast_and_strict_agree_near_boundaries(self):
        # sampled near-threshold soundness: both routes must agree whenever
        # the fast margin lies outside its error bound
        rng = np.random.default_rng(20240817)
        pred = bounds.PREDICATES["log2-vs-2sqrt-plus-1"]
        offsets = rng.uniform(-2.0, 2.0, size=2500)
        for x in 121.0 + offsets:
            lhs, rhs = (float(t[0]) for t in pred.terms(np, np.array([x])))
            fast = lhs - rhs
            if abs(fast) <= bounds.TERM_REL_ERR * (abs(lhs) + abs(rhs)):
                continue
            with mp.workdps(bounds.STRICT_DPS):
                strict = strict_margin(pred.terms, x)
            assert (fast > 0) == (strict > 0)


def reference_settle(lhs, rhs, stricts):
    """`bounds.settle` one pair of terms at a time, from its docstring, and
    the indices it decides strictly."""
    fails, uncertain, inside = [], [], []
    for i, (a, b, s) in enumerate(zip(lhs, rhs, stricts)):
        scale = abs(a) + abs(b)
        window = bounds.TERM_REL_ERR * scale
        if a - b > window:
            continue
        if a - b < -window:
            fails.append(i)
            continue
        inside.append(i)
        if abs(s) < bounds.STRICT_REL_TOL * max(scale, 1.0):
            uncertain.append(i)
        elif s <= 0:
            fails.append(i)
    return fails, uncertain, inside


TERMS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 1e3, np.nan]),
                  st.floats(-1e6, 1e6))
STRICT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-25, -1e-25, 5e-26, 2e-24, -3e-23]),
    st.floats(-1.0, 1.0),
)


@st.composite
def settle_cases(draw):
    """Pairs of terms, the left one often a few hundred ulps off the right
    one: around the window, which is 128 ulps of 2|rhs| wide at 1."""
    size = draw(st.integers(1, 12))
    rhs = draw(st.lists(TERMS, min_size=size, max_size=size))
    lhs = [draw(st.one_of(
        TERMS,
        st.sampled_from([0, 127, 128, 129, 256, 257]).map(
            lambda k, b=b: b * (1 + k * 2.0**-53)),
        st.integers(-300, 300).map(lambda k, b=b: b * (1 + k * 2.0**-52)),
    )) for b in rhs]
    stricts = draw(st.lists(STRICT_VALUES, min_size=size, max_size=size))
    return lhs, rhs, stricts


class TestSettle:
    @given(settle_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scalar_rule(self, case):
        lhs, rhs, stricts = case
        calls = []

        def strict(i):
            assert mp.mp.dps == bounds.STRICT_DPS
            calls.append(i)
            return mp.mpf(stricts[i]), 0

        fails, uncertain, values = bounds.settle(np.array(lhs),
                                                 np.array(rhs), strict)
        want_fails, want_uncertain, inside = reference_settle(lhs, rhs,
                                                              stricts)
        assert (fails.tolist(), uncertain.tolist()) == (want_fails,
                                                        want_uncertain)
        # strict is called once for each margin at or inside its window,
        # or NaN, and for no other
        assert calls == inside
        assert values == {i: stricts[i] for i in inside}
