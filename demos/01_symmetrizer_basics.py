"""Build a Bezout matrix and watch it symmetrize the companion matrix.

The quadratic form with matrix H built from the pair (p, q) is the
coefficient table of (p(x)q(y) - p(y)q(x)) / (x - y).  For hyperbolic p and
q = p' this matrix is positive semidefinite, H @ A is symmetric for the
companion matrix A of p, and det H is the discriminant of p.
"""

from bezoutian import (
    Polynomial,
    bezout_matrix,
    companion_matrix,
    discriminant,
    is_hyperbolic,
    psd_check,
    symmetrization_defect,
)

p = Polynomial.exact([1, 0, -1, 0])  # x^3 - x, roots -1, 0, 1
q = p.derivative()

print("p =", p)
print("q = p' =", q)

H = bezout_matrix(p, q)
A = companion_matrix(p)
print("\nBezout matrix H:")
print(H.fractions)
print("\nCompanion matrix A:")
print(A.fractions)

print("\nH A =")
print(H.fractions @ A.fractions)
print("symmetrization defect (max |HA - (HA)^T|):", symmetrization_defect(H, A))

verdict = psd_check(H)
print("\nPSD certificate:", "PSD" if verdict.is_psd else "indefinite",
      "| pivots:", verdict.pivots)

print("\ndet H =", discriminant(p), " (squared difference product of the roots)")

# the same matrix decides hyperbolicity: complex roots break semidefiniteness
for coeffs in ([1, 0, -1], [1, 0, 1], [1, 0, 0]):
    cand = Polynomial.exact(coeffs)
    v = is_hyperbolic(cand)
    print(f"{str(cand):>10}: hyperbolic={v.is_hyperbolic} strict={v.is_strict}")
