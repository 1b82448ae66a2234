"""Energy forms along solutions of the companion system D_t U = A U.

For u solving p(D_t) u = 0 the quadratic form (H U(t), U(t)) built from the
Bezout matrix of (p, q) is a conserved, nonnegative energy whenever q
separates p.  On arbitrary exponential-sum signals the time derivative of
the form matches a closed expression in p(D_t)u and q(D_t)u, and the
chained derivative forms obey a pointwise differential inequality.
"""

import numpy as np

from bezoutian import (
    ExponentialSignal,
    Polynomial,
    chain_bound_check,
    derivative_identity_check,
    energy_series,
    propagate,
    separates,
)

p = Polynomial.exact([1, 0, -5, 0, 4])  # roots -2, -1, 1, 2
q = p.derivative()
print("p =", p)
print("q = p' =", q)
print("q separates p:", separates(p, q).separates)

U0 = [1.0, 0.5, -0.25, 0.125]
traj = propagate(p, U0, T=10.0, steps=400)
series = energy_series(p, q, traj)
print(f"\nenergy at t=0: {series.values[0]:.6f}")
print(f"relative spread over [0, 10]: {series.relative_spread():.2e}")
print(f"minimum along the trajectory: {float(np.min(series.values)):.6f} (stays >= 0)")

signal = ExponentialSignal.of((1.0, 0.7), (0.5 - 0.25j, 2.1), (0.3, -1.4))
resid = derivative_identity_check(p, q, signal)
print(f"\nderivative identity residual on a generic signal: {resid:.2e}")

for j in range(3):
    result = chain_bound_check(p, j, signal)
    print(f"chain inequality at stage j={j}: passed={result.passed}, "
          f"floor constant c_j={result.constant:.4f}")
