"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from primegaps import bounds, conjectures as cj, exponent_solver as es
from primegaps import panaitopol as pt
from primegaps import gaps, sieve
from primegaps.conjectures import ReportStatus

SCAN_BUDGET_SECONDS = 300.0


def _line(name, ok=True):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", flush=True)


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- criterion 1: paper constants -------------------------------------------


def test_c1_exponent_root_113_127():
    sol = es.solve_exponent(113, 127)
    assert sol.x == pytest.approx(0.567148, abs=1e-6)
    assert _best_time(lambda: es.solve_exponent(113, 127)) < 1e-3
    _line("1a: root of 127^x - 113^x = 1 is 0.567148 +- 1e-6, under 1 ms")


def test_c1_exponent_root_2_3():
    assert es.solve_exponent(2, 3).x == pytest.approx(1.0, abs=1e-12)
    _line("1b: root of 3^x - 2^x = 1 is 1 +- 1e-12")


def test_c1_curve_value_at_121():
    lhs, rhs = bounds.PREDICATES["log2-vs-2sqrt-plus-1"].terms(
        np, np.array([121.0]))
    assert lhs[0] - rhs[0] == pytest.approx(0.000393, abs=5e-6)
    _line("1c: 2*sqrt(121) - (ln 121)^2 + 1 = 0.000393 +- 5e-6")


def test_c1_sequence_value_at_190():
    val = math.sqrt(190) / math.log(190) ** 2
    assert val == pytest.approx(0.50066, abs=5e-5)
    _line("1d: sqrt(190)/(ln 190)^2 = 0.50066 +- 5e-5")


def test_c1_z_value_at_5850():
    z = 5850 / math.log(5850) ** bounds.SM9_LOG_POWER - bounds.SM9_RHS
    assert z == pytest.approx(30.5, abs=0.1)
    _line("1e: 5850/(ln 5850)^2.3095 - 9.33 = 30.5 +- 0.1")


# -- criterion 2: crossover thresholds --------------------------------------


@pytest.mark.parametrize(
    "pid,expected",
    [
        ("two-n-plus-one-vs-4log2", 11),
        ("sqrt-vs-2log", 75),
        ("n-vs-4log2", 75),
        ("log2-vs-2sqrt-plus-1", 121),
    ],
)
def test_c2_crossover_thresholds(pid, expected):
    t0 = time.perf_counter()
    r = bounds.crossover_scan(pid, 2, 10**4)
    elapsed = time.perf_counter() - t0
    assert r.threshold == expected
    assert r.verified_through == 10**4
    assert elapsed < 1.0
    _line(f"2: {pid} crosses over at {expected}, verified through 1e4, "
          f"{elapsed * 1e3:.1f} ms")


# -- criterion 3: coefficient recurrence ------------------------------------


def test_c3_coefficients():
    table = pt.coefficients(6)
    assert table.k == (1, 3, 13, 71, 461, 3447)
    for m in range(1, 7):
        residual = (
            table.k[m - 1]
            + sum(math.factorial(j) * table.k[m - j - 1] for j in range(1, m))
            - m * math.factorial(m)
        )
        assert residual == 0
    assert _best_time(lambda: pt.coefficients(6)) < 1e-3
    deep = pt.coefficients(20)
    assert len(deep.k) == 20 and all(k > 0 for k in deep.k)
    _line("3: coefficients [1,3,13,71,461,3447], zero residual, under 1 ms; "
          "depth 20 exact")


# -- criterion 4: exhaustive no-violation scans -----------------------------


def test_c4_gap_bounds_to_1e8():
    r = cj.check_gap_bounds(10**8)
    assert r.status is ReportStatus.ALL_HOLD
    assert not r.violations and not r.uncertain
    assert r.extremes["max_cramer_ratio"].cramer_ratio < 1
    assert r.duration < SCAN_BUDGET_SECONDS
    _line(f"4a: Andrica/Firoozbakht/Kourbatov/Cramer hold for all p < 1e8 "
          f"({r.duration:.1f} s)")


def test_c4_legendre():
    r = cj.check_legendre(10**4)
    assert r.status is ReportStatus.ALL_HOLD
    assert r.duration < SCAN_BUDGET_SECONDS
    _line(f"4b: Legendre intervals non-empty for n <= 1e4 ({r.duration:.1f} s)")


def test_c4_oppermann():
    r = cj.check_oppermann(10**4)
    assert r.status is ReportStatus.ALL_HOLD
    assert r.duration < SCAN_BUDGET_SECONDS
    _line(f"4c: Oppermann intervals non-empty for n <= 1e4 ({r.duration:.1f} s)")


def test_c4_brocard():
    r = cj.check_brocard(2000)
    assert r.status is ReportStatus.ALL_HOLD
    assert r.extremes["min_interval_count"] >= 4
    assert r.duration < SCAN_BUDGET_SECONDS
    _line(f"4d: Brocard >= 4 primes between squares for index <= 2000 "
          f"({r.duration:.1f} s)")


def test_c4_smarandache_ratio():
    r = cj.check_smarandache_ratio(10**6)
    assert r.status is ReportStatus.ALL_HOLD
    assert r.extremes["max_ratio_pair"] == (2, 3, 5)
    assert r.duration < SCAN_BUDGET_SECONDS
    _line(f"4e: q/p <= 5/3 for p < 1e6 with unique maximum at (3,5) "
          f"({r.duration:.1f} s)")


def test_c4_smarandache_b_half():
    r = cj.check_smarandache_B(10**6, 0.5)
    assert r.status is ReportStatus.ALL_HOLD
    assert r.duration < SCAN_BUDGET_SECONDS
    _line(f"4f: q^0.5 - p^0.5 < 1 for p < 1e6 ({r.duration:.1f} s)")


@pytest.mark.parametrize("k", [2, 3, 10])
def test_c4_smarandache_c(k):
    r = cj.check_smarandache_C(10**6, k)
    assert r.status is ReportStatus.ALL_HOLD
    assert r.duration < SCAN_BUDGET_SECONDS
    _line(f"4g: q^(1/{k}) - p^(1/{k}) < 2/{k} for p < 1e6 "
          f"({r.duration:.1f} s)")


# -- criterion 5: the 1/n disproof ------------------------------------------


def test_c5_counterexample():
    w = cj.find_smarandache_D_counterexample(0.4, 1)
    assert w is not None and w.n <= 100
    with mp.workdps(40):
        val = mp.power(w.q, mp.mpf("0.4")) - mp.power(w.p, mp.mpf("0.4"))
        assert val >= mp.mpf(1) / w.n
    _line(f"5: q^0.4 - p^0.4 >= 1/n first at n = {w.n} (pair {w.p},{w.q}), "
          "confirmed at strict precision")


# -- criterion 6: extremal exponents ----------------------------------------


def test_c6_min_exponent():
    sol, _ = es.min_exponent(10**6)
    assert (sol.p, sol.q) == (113, 127)
    _line("6a: minimal exponent root below 1e6 at pair (113, 127)")


def test_c6_max_exponent():
    sol = es.max_exponent(10**6)
    assert (sol.p, sol.q) == (2, 3)
    assert sol.x == 1.0
    _line("6b: maximal exponent root below 1e6 at pair (2, 3) with x = 1")


# -- criterion 7: property suites -------------------------------------------


def test_c7_partition_invariance(monkeypatch):
    import dataclasses

    def norm(rep):
        return dataclasses.replace(rep, duration=0.0)

    # (sieve segment, pair slice, interval chunk) sizes
    cuts = [(1024, 64, 7), (4096, 256, 100)]
    gap_base = norm(cj.check_gap_bounds(2 * 10**5))
    legendre_base = norm(cj.check_legendre(1000))
    for odds, pairs, ns in cuts:
        monkeypatch.setattr(sieve, "SEGMENT_ODDS", odds)
        monkeypatch.setattr(gaps, "PAIR_SLICE", pairs)
        monkeypatch.setattr(cj, "INTERVAL_CHUNK", ns)
        assert norm(cj.check_gap_bounds(2 * 10**5)) == gap_base
        assert norm(cj.check_legendre(1000)) == legendre_base
    _line("7a: identical reports for segment, slice and chunk sizes")


def test_c7_tristate_soundness_sampling():
    rng = np.random.default_rng(1234)
    checked = 0
    cases = [
        ("log2-vs-2sqrt-plus-1", 121.0),
        ("sqrt-vs-2log", 75.0),
        ("n-vs-4log2", 75.0),
        ("two-n-plus-one-vs-4log2", 11.0),
    ]
    for pid, center in cases:
        pred = bounds.PREDICATES[pid]
        xs = center + rng.uniform(-1.5, 1.5, size=2500)
        xs = xs[xs > 2.0]
        lhs, rhs = pred.terms(np, xs)
        window = bounds.TERM_REL_ERR * (np.abs(lhs) + np.abs(rhs))
        for x, f, w in zip(xs, lhs - rhs, window):
            if abs(f) <= w:
                continue
            with mp.workdps(bounds.STRICT_DPS):
                a, b = pred.terms(mp, float(x))
                strict = a - b
            assert (f > 0) == (strict > 0), (pid, x)
            checked += 1
    assert checked >= 10**4 - 100
    _line(f"7b: fast and strict precision agree on {checked} near-boundary "
          "evaluations")


def test_c7_sieve_vs_trial_division():
    from conftest import primes_trial

    ours = np.concatenate(list(sieve.prime_blocks(2, 100_001))).tolist()
    assert ours == primes_trial(2, 100_001)
    _line("7c: sieve agrees with trial division for all x <= 1e5")


def test_c7_oppermann_implies_legendre():
    n_max = 10**4
    ns = np.arange(2, n_max + 1, dtype=np.int64)
    pi = sieve.prime_counts_at(
        np.concatenate([ns * ns, ns * ns + ns, (ns + 1) ** 2])
    ).reshape(3, ns.size)
    above = pi[1] - pi[0]          # Oppermann right interval (n^2, n^2+n)
    legendre = pi[2] - pi[0]       # Legendre interval (n^2, (n+1)^2)
    assert np.all(legendre >= above)
    assert np.all((above < 1) | (legendre >= 1))
    _line("7d: wherever the right Oppermann interval has a prime, the "
          "Legendre interval does too, for all scanned n")


# -- criterion 8: limit claims replaced by finite probes --------------------


def test_c8_shanks_trend_probe():
    rows = cj.check_shanks_trend(10**6, 10**4)
    assert len(rows) >= 1
    for row in rows:
        assert 0.0 < row.mean < 1.0
    _line("8a: windowed means of gap/(ln p)^2 all lie in (0, 1); the limit "
          "itself is out of reach at desk scale")


def test_c8_pi_approx_errors():
    r6 = pt.pi_approx(10**6, 4)
    r8 = pt.pi_approx(10**8, 4)
    assert r6.rel_error == pytest.approx(1.5e-3, rel=0.05)
    assert r8.rel_error < r6.rel_error
    _line(f"8b: pi(x) series rel_error {r6.rel_error:.2e} at 1e6 (4 terms), "
          f"strictly smaller ({r8.rel_error:.2e}) at 1e8")
