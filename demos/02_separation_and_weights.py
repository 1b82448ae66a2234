"""Separation certificates and the weighted factorization H = G^T diag(w) G.

A polynomial q of degree m-1 separates p when it carries every multiple
root of p with multiplicity one less and its remaining roots strictly
interlace the distinct roots of p.  Exactly then the Bezout form admits a
positive lower bound c * sum_k |p_k_hat(z)|^2, with c emitted by the
certificate.
"""

from fractions import Fraction

from bezoutian import (
    Polynomial,
    bezout_matrix,
    factorization_bundle,
    lagrange_weights,
    separates,
    separation_lower_bound_check,
)

p = Polynomial.exact([1, 0, -1])  # roots -1, 1

for q in (Polynomial.exact([1, 0]),        # root 0: interlaces
          Polynomial.exact([1, -2]),       # root 2: outside
          Polynomial.exact([-1, 0])):      # wrong sign
    cert = separates(p, q)
    print(f"q = {str(q):>6}: separates={cert.separates}"
          + (f", c = {cert.constant_c}" if cert.separates else f"  ({cert.failure_reason})"))

print()

# the factorization behind the lower bound, for a strictly hyperbolic cubic
p = Polynomial.exact([1, 0, -1, 0])
q = p.derivative()
bundle = factorization_bundle(p, q)
print("weights:", bundle.weights)
print("G =")
print(bundle.basis_matrix)
print("G^T diag(w) G reproduces H exactly; residual:", bundle.residual)
print("H =")
print(bezout_matrix(p, q).fractions)

# multiple roots go through the reduced weights over distinct roots
p = Polynomial.from_roots([0, 0, 2])
q = Fraction(2) * Polynomial.from_roots([0, 1])  # carries 0 once, 1 interlaces
cert = separates(p, q)
print("\nmultiple-root example: separates =", cert.separates, ", c =", cert.constant_c)
print("reduced weights:", lagrange_weights(p, q))
print("lower bound holds:", separation_lower_bound_check(p, q, cert.constant_c))
