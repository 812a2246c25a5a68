import math

import pytest

from primegaps import panaitopol as pt


def coeffs_oracle(n):
    """Independent unrolling of the factorial recurrence."""
    ks = []
    for m in range(1, n + 1):
        total = m * math.factorial(m)
        for j in range(1, m):
            total -= math.factorial(j) * ks[m - j - 1]
        ks.append(total)
    return ks


class TestCoefficients:
    def test_first_coefficient(self):
        assert pt.coefficients(1).k == (1,)

    def test_hand_unrolled_to_four(self):
        # k2 = 4 - 1, k3 = 18 - 3 - 2, k4 = 96 - 13 - 6 - 6
        assert pt.coefficients(4).k == (1, 3, 13, 71)

    def test_six_terms(self):
        assert pt.coefficients(6).k == (1, 3, 13, 71, 461, 3447)
        assert pt.coefficients(6).k == tuple(coeffs_oracle(6))

    def test_recurrence_residual_exactly_zero(self):
        table = pt.coefficients(25)
        for m in range(1, 26):
            residual = (
                table.k[m - 1]
                + sum(math.factorial(j) * table.k[m - j - 1]
                      for j in range(1, m))
                - m * math.factorial(m)
            )
            assert residual == 0

    def test_strictly_growing(self):
        depth = 20  # factorial growth makes deeper terms useless here
        k = pt.coefficients(depth).k
        assert all(b > a for a, b in zip(k, k[1:]))
        assert all(v > 0 for v in k)

    def test_depth_20_has_no_overflow(self):
        k = pt.coefficients(20).k
        assert len(k) == 20
        assert k[-1] > 10**17  # far beyond int64; exact Python ints

    def test_precondition(self):
        with pytest.raises(ValueError):
            pt.coefficients(0)


class TestPiApprox:
    def test_million_four_terms(self):
        r = pt.pi_approx(10**6, 4)
        assert r.exact == 78498
        assert r.approx == pytest.approx(78613, abs=1)
        assert r.rel_error == pytest.approx(1.5e-3, rel=0.05)

    def test_zero_terms_is_classical_form(self):
        r = pt.pi_approx(10**6, 0)
        classical = 10**6 / (math.log(10**6) - 1)
        assert r.approx == pytest.approx(classical, rel=1e-15)
        assert r.approx == pytest.approx(78030, abs=1)

    def test_error_shrinks_with_x(self):
        small = pt.pi_approx(10**6, 4)
        large = pt.pi_approx(10**8, 4)
        assert large.rel_error < small.rel_error

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            pt.pi_approx(7, 2)  # ln 7 < 2

    def test_rejects_divergent_denominator(self):
        # piling on terms at barely-admissible x drives the denominator
        # negative; the failing combination must be identified
        with pytest.raises(ValueError, match="terms=12"):
            pt.approx_only(9, 12)


class TestErrorTable:
    def test_shape(self):
        rows = pt.error_table([10**4], [0, 1, 2])
        assert len(rows) == 3
        assert [r.terms for r in rows] == [0, 1, 2]

    def test_terms_beat_classical_form(self):
        # with the vanishing correction factor taken as zero, rel_error is
        # not monotone in the term count; what does hold at desk scale is
        # that every truncation with >= 1 term beats the bare x/(ln x - 1)
        rows = pt.error_table([10**6], [0, 1, 2, 3, 4])
        errs = [r.rel_error for r in rows]
        assert all(e < errs[0] for e in errs[1:])
        assert min(errs) < 1e-3

    def test_consistent_with_pi_approx(self):
        (row,) = pt.error_table([10**6], [4])
        direct = pt.pi_approx(10**6, 4)
        assert row == direct

    def test_row_major_ordering(self):
        rows = pt.error_table([10**4, 10**5], [0, 1])
        assert [(r.x, r.terms) for r in rows] == [
            (10**4, 0), (10**4, 1), (10**5, 0), (10**5, 1)
        ]

    def test_iterators_give_the_rows_of_lists(self):
        # each x reads every term count, so the counts must be read once
        rows = pt.error_table([10**6, 10**4], [0, 2])
        assert len(rows) == 4
        assert pt.error_table(iter([10**6, 10**4]), iter([0, 2])) == rows

    def test_bad_input_is_refused_before_any_count(self, monkeypatch):
        # pi(1e11) took about a second before these were refused
        def refuse(x):
            raise AssertionError(f"pi({x}) counted before the input check")

        monkeypatch.setattr(pt.sieve, "prime_count", refuse)
        with pytest.raises(ValueError, match="terms must be >= 0"):
            pt.error_table([10**11], [-1])
        with pytest.raises(ValueError, match="ln x <= 2"):
            pt.error_table([10**11, 5], [1])

    def test_repeated_x_is_counted_once(self, monkeypatch):
        calls = []
        count = pt.sieve.prime_count
        monkeypatch.setattr(pt.sieve, "prime_count",
                            lambda x: calls.append(x) or count(x))
        rows = pt.error_table([10**5, 10**4, 10**5], [1, 2])
        assert calls == [10**5, 10**4]
        assert [(r.x, r.terms) for r in rows] == [
            (10**5, 1), (10**5, 2), (10**4, 1), (10**4, 2),
            (10**5, 1), (10**5, 2)]
        assert rows[:2] == rows[4:]
        assert rows == [pt.pi_approx(r.x, r.terms) for r in rows]
