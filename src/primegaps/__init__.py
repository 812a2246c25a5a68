"""Desk-scale numerical verification of prime-gap inequalities, crossover
thresholds, exponent equations, and the integer-coefficient pi(x) expansion.
"""

from .bounds import (
    CrossoverResult,
    Precision,
    Status,
    Verdict,
    crossover_scan,
    monotone_scan,
)
from .conjectures import (
    ConjectureReport,
    ReportStatus,
    check_brocard,
    check_gap_bounds,
    check_legendre,
    check_oppermann,
    check_shanks_trend,
    check_smarandache_B,
    check_smarandache_C,
    check_smarandache_ratio,
    find_smarandache_D_counterexample,
)
from .exponent_solver import ExponentSolution, max_exponent, min_exponent, solve_exponent
from .gaps import ExtremeTracker, GapRecord
from .panaitopol import CoefficientTable, PiApproxResult, coefficients, error_table, pi_approx
from .sieve import nth_prime, prime_count

__all__ = [name for name in dir() if not name.startswith("_")]
