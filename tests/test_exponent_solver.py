import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import cli, exponent_solver as es
from primegaps import gaps
from conftest import primes_trial


def bisect_oracle(p, q, tol=1e-10):
    """Independent bisection at fixed tolerance, no shared code."""
    lo, hi = 1e-6, 1.0
    f = lambda x: q**x - p**x - 1.0
    assert f(lo) < 0 <= f(1.0)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def root_oracle(p, q, x):
    """The root of q^t - p^t = 1 to 60 digits, found near x by mpmath on
    the cancelling form, with the digits of q on top."""
    with mp.workdps(60 + len(str(q))):
        return float(mp.findroot(
            lambda t: mp.power(q, t) - mp.power(p, t) - 1,
            (mp.mpf(x) - mp.mpf("1e-9"), mp.mpf(x) + mp.mpf("1e-9")),
            solver="anderson"))


class TestSolveExponent:
    def test_2_3_is_exactly_one(self):
        sol = es.solve_exponent(2, 3)
        assert sol.x == 1.0
        assert sol.residual == 0.0

    def test_113_127(self):
        sol = es.solve_exponent(113, 127)
        assert sol.x == pytest.approx(0.567148, abs=1e-6)

    def test_7_11_against_oracle(self):
        sol = es.solve_exponent(7, 11)
        assert sol.x == pytest.approx(bisect_oracle(7, 11), abs=1e-9)
        assert sol.x == pytest.approx(0.5996, abs=1e-4)

    def test_bad_pair(self):
        with pytest.raises(ValueError):
            es.solve_exponent(11, 7)

    def test_pair_past_binary64_refused(self):
        with pytest.raises(ValueError, match="past binary64"):
            es.solve_exponent(10**400, 10**400 + 2)

    def test_pair_near_1e18(self, capsys):
        # binary64 rounds q and p to one value here, so q^x - p^x - 1
        # read -1 everywhere and the bisection ran to x = 1 - 6e-14
        p, q = 10**18 + 3, 10**18 + 9
        sol = es.solve_exponent(p, q)
        assert abs(sol.x - 0.95780942464021) < 1e-13
        assert abs(sol.x - root_oracle(p, q, sol.x)) < es.X_TOL
        assert cli.main(["solve", "pair", "--p", str(p), "--q", str(q),
                         "--format", "json"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["x"] == round(sol.x, 14)

    def test_a_root_lost_in_binary64_is_refused(self, monkeypatch, capsys):
        # the bisection driven by q^x - p^x - 1 in binary64, as it was:
        # its x misses the root, and the strict check refuses it
        p, q = 10**18 + 3, 10**18 + 9
        strict = es._f_sign

        def cancelling(x, ln_p, ln_ratio, m=math):
            if m is math:
                return math.pow(q, x) - math.pow(p, x) - 1.0
            return strict(x, ln_p, ln_ratio, m)

        monkeypatch.setattr(es, "_f_sign", cancelling)
        with pytest.raises(ValueError, match="not within"):
            es.solve_exponent(p, q)
        assert cli.main(["solve", "pair", "--p", str(p),
                         "--q", str(q)]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            f"error: the root of ({p}, {q}) is not within 1e-13 of x = ")

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.just((2, 1)),
                     st.tuples(st.integers(2, 10**300), st.integers(2, 1000))))
    def test_root_within_x_tol_of_a_60_digit_root(self, pair):
        p, g = pair
        sol = es.solve_exponent(p, p + g)
        assert abs(sol.x - root_oracle(p, p + g, sol.x)) < es.X_TOL

    def test_residual_bound(self):
        primes = primes_trial(2, 500)
        for p, q in zip(primes[:-1], primes[1:]):
            sol = es.solve_exponent(p, q)
            assert sol.residual < 1e-10

    def test_bracket_invariant(self):
        for p, q in [(3, 5), (7, 11), (113, 127), (1327, 1361)]:
            sol = es.solve_exponent(p, q)
            lo, hi = sol.bracket
            assert lo <= sol.x <= hi
            assert hi - lo <= 2e-13
            assert q**lo - p**lo - 1 < 0 <= q**hi - p**hi - 1

    def test_roots_lie_in_half_open_unit_interval(self):
        primes = primes_trial(2, 10**4)
        for p, q in zip(primes[:-1], primes[1:]):
            sol = es.solve_exponent(p, q)
            assert 0.5 < sol.x <= 1.0


class TestScans:
    def test_min_at_128_is_113_127(self):
        sol, pairs = es.min_exponent(128)
        assert (sol.p, sol.q) == (113, 127)
        assert sol.x == pytest.approx(0.567148, abs=1e-6)
        assert pairs == 31

    def test_min_at_10_compares_all_four_pairs(self):
        xs = {(p, q): es.solve_exponent(p, q).x
              for p, q in [(2, 3), (3, 5), (5, 7), (7, 11)]}
        best = min(xs, key=xs.get)
        sol, _ = es.min_exponent(10)
        assert (sol.p, sol.q) == best == (7, 11)

    def test_min_at_3_is_only_pair(self):
        sol, _ = es.min_exponent(3)
        assert (sol.p, sol.q, sol.x) == (2, 3, 1.0)

    def test_min_stays_at_113_127_through_1e6(self):
        sol, _ = es.min_exponent(10**6)
        assert (sol.p, sol.q) == (113, 127)

    def test_max_is_always_2_3(self):
        assert (es.max_exponent(3).p, es.max_exponent(3).q) == (2, 3)
        sol = es.max_exponent(10**6)
        assert (sol.p, sol.q, sol.x) == (2, 3, 1.0)

    def test_twin_pair_roots_below_one_and_monotone(self):
        # sampled twins up to 1e5: x < 1 always, and strictly increasing in
        # p (a fixed gap of 2 forces x toward 1 as p grows)
        from primegaps import sieve

        blocks = sieve.prime_blocks(2, 10**5 + 3)
        primes = set(np.concatenate(list(blocks)).tolist())
        twins = sorted((p, p + 2) for p in primes if p + 2 in primes)
        sampled = twins[::97] + [twins[-1]]
        xs = [es.solve_exponent(p, q).x for p, q in sampled]
        assert all(x < 1 for x in xs)
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_min_at_1e6_takes_few_solves(self, monkeypatch):
        calls = []
        solve = es.solve_exponent
        monkeypatch.setattr(es, "solve_exponent",
                            lambda p, q: calls.append((p, q)) or solve(p, q))
        sol, _ = es.min_exponent(10**6)
        assert (sol.p, sol.q) == (113, 127)
        assert len(calls) <= 8


def _pair_roots_reference(limit):
    # the vectorized bisection of every pair, block by block
    for blk in gaps.pair_blocks(2, limit):
        p = blk.p.astype(np.float64)
        q = blk.q.astype(np.float64)
        lo = np.zeros(p.size)
        hi = np.ones(p.size)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            neg = q**mid - p**mid < 1.0
            lo = np.where(neg, mid, lo)
            hi = np.where(neg, hi, mid)
        x = 0.5 * (lo + hi)
        x[blk.q - blk.p == 1] = 1.0
        yield blk.p, blk.q, x


def _beats(cand, best, sign):
    # (sign * x, p, q) tuples, least key first: near-ties are refined with
    # the scalar solver, exact ties go to the smaller p
    kc, kb = cand[0], best[0]
    if abs(kc - kb) <= 1e-9:
        kc = sign * es.solve_exponent(cand[1], cand[2]).x
        kb = sign * es.solve_exponent(best[1], best[2]).x
    return (kc, cand[1]) < (kb, best[1])


def unpruned_min_max(limit):
    """(min pair, max pair, pairs scanned) with every root bisected."""
    lo_best = hi_best = None
    count = 0
    for p, q, x in _pair_roots_reference(limit):
        count += p.size
        top = x.min()
        for i in np.flatnonzero(x <= top + 1e-12):
            cand = (float(x[i]), int(p[i]), int(q[i]))
            if lo_best is None or _beats(cand, lo_best, 1.0):
                lo_best = cand
        top = x.max()
        for i in np.flatnonzero(x >= top - 1e-12):
            cand = (-float(x[i]), int(p[i]), int(q[i]))
            if hi_best is None or _beats(cand, hi_best, -1.0):
                hi_best = cand
    return lo_best[1:], hi_best[1:], count


class TestPrunedScans:
    @given(st.integers(min_value=3, max_value=10**5))
    @settings(max_examples=25, deadline=None)
    def test_same_pairs_as_unpruned_scan(self, limit):
        lo_pair, hi_pair, count = unpruned_min_max(limit)
        sol, pairs = es.min_exponent(limit)
        assert (sol.p, sol.q) == lo_pair
        assert pairs == count
        sol = es.max_exponent(limit)
        assert (sol.p, sol.q) == hi_pair

    @given(st.integers(min_value=3, max_value=10**5))
    @settings(max_examples=10, deadline=None)
    def test_small_pair_blocks(self, limit):
        lo_pair, hi_pair, count = unpruned_min_max(limit)
        for pair_slice in (1, 7, 100):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gaps, "PAIR_SLICE", pair_slice)
                lo, pairs = es.min_exponent(limit)
                hi = es.max_exponent(limit)
            assert ((lo.p, lo.q), (hi.p, hi.q)) == (lo_pair, hi_pair)
            assert pairs == count

    # roots 1.8e-10 apart (not prime pairs; the solver only needs q > p)
    NEAR_TIE = [(1051, 1107), (1781, 1853)]

    @pytest.mark.parametrize("order", [1, -1])
    def test_near_tie_is_refined_after_pruning(self, monkeypatch, order):
        a, b = self.NEAR_TIE[::order]
        roots = {pq: es.solve_exponent(*pq).x for pq in self.NEAR_TIE}
        assert 0 < abs(roots[a] - roots[b]) < 1e-9

        def fake_blocks(lo, hi):
            # (2, 3) first, so the near-tied pairs meet an existing best
            for i, (p, q) in enumerate([(2, 3), a, b]):
                yield gaps.PairBlock(i + 1, np.array([p]), np.array([q]))

        calls = []
        solve = es.solve_exponent
        monkeypatch.setattr(gaps, "pair_blocks", fake_blocks)
        monkeypatch.setattr(es, "solve_exponent",
                            lambda p, q: calls.append((p, q)) or solve(p, q))
        sol, pairs = es.min_exponent(10)
        assert (sol.p, sol.q) == min(roots, key=roots.get)
        assert pairs == 3
        assert {a, b} <= set(calls)  # both near-tied roots were solved
