"""The smoothing family p_eps = (1 + eps d/dx)^(m-1) p and its root gaps.

For every eps > 0 the transform is strictly hyperbolic and consecutive
roots stay at least c_m * eps apart, with c_m from an explicit recursion.
The operator is exactly invertible on degree-m polynomials, so p_eps - p
is a controlled perturbation of order eps.
"""

from fractions import Fraction

from bezoutian import (
    Polynomial,
    default_epsilon_grid,
    gap_constant,
    invert_transform,
    nuij_family,
    nuij_transform,
    verify_gaps,
)

p = Polynomial.from_roots([0, 0, 0, 2])  # triple root plus a simple one
m = int(p.degree)
print("p =", p)
print("gap floor constants c_2..c_m:", [round(gap_constant(l), 6) for l in range(2, m + 1)])

print(f"\n{'eps':>10} {'min gap':>12} {'gap/eps':>10} {'floor':>8}  pass")
for eps in default_epsilon_grid():
    check = verify_gaps(p, eps)
    print(f"{eps:10.2e} {check.min_gap_over_eps * eps:12.4e} "
          f"{check.min_gap_over_eps:10.4f} {check.floor_constant:8.4f}  {check.passed}")

# one family point in detail, exact arithmetic
eps = Fraction(1, 10)
fam = nuij_family(p, eps)
print("\np_eps =", fam.p_eps)
print("roots of p_eps:", [float(r) for r in fam.roots_eps.flattened])
print("q_eps = p - p_eps =", fam.q_eps)

# and the exact inversion: p is recoverable from p_eps alone
recovered = invert_transform(nuij_transform(p, eps), eps)
print("\ninversion recovers p exactly:", recovered == p)
