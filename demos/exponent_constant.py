"""Reproduce the critical exponent: the root of q^x - p^x = 1 per pair.

The pair (2, 3) sits exactly at x = 1; scanning all pairs shows the
minimum root below any desk-scale limit lands on (113, 127), defining
the constant a0 = 0.567148...
"""

from primegaps import bounds, exponent_solver as es

for p, q in [(2, 3), (3, 5), (7, 11), (113, 127), (1327, 1361)]:
    sol = es.solve_exponent(p, q)
    print(f"({p:5d}, {q:5d})  x = {sol.x:.12f}  residual {sol.residual:.1e} "
          f"in {sol.iterations} bisection steps")

limit = 10**6
sol, pairs = es.min_exponent(limit)
print(f"\nminimum over {pairs} pairs below {limit}: "
      f"({sol.p}, {sol.q}) with x = {sol.x:.6f}")

best = es.max_exponent(10**6)
print(f"maximum: ({best.p}, {best.q}) with x = {best.x} (the only gap-1 pair)")

audit = bounds.recompute_smarandache9_constants(sol.x)
print(f"\n1/a0   recomputed {audit['coeff_recomputed']:.8f} "
      f"vs printed {audit['coeff_printed']} "
      f"(off by {audit['coeff_discrepancy']:.1e})")
print(f"1 - a0 recomputed {audit['exponent_recomputed']:.8f} "
      f"vs printed {audit['exponent_printed']} "
      f"(off by {audit['exponent_discrepancy']:.1e})")
