"""The classical power-sum symmetrizer and its exact relation to the Bezout form.

S has entries P_(i+j), the power sums of the roots, computed from the
coefficients alone through Newton's identities.  Its adjugate B also
symmetrizes the companion matrix, det S is the discriminant, and
S H = p'(A)^2, so det(S) H = B p'(A)^2, ties B to the Bezout matrix H of
(p, p') without roots.  For quadratics the two symmetrizers coincide.
"""

from bezoutian import (
    Polynomial,
    bezout_matrix,
    companion_matrix,
    discriminant,
    h_b_relation_check,
    leray_symmetrizer,
    power_sum_matrix,
    symmetrization_defect,
)
from bezoutian.exactla import det

p = Polynomial.exact([1, 0, -1, 0])
print("p =", p)
S = power_sum_matrix(p)
print("\npower-sum matrix S (no roots used):")
print(S)

sym = leray_symmetrizer(p)
print("\nadjugate B:")
print(sym.adjugate)
print("B A symmetry defect:", sym.symmetry_defect)
print("det S =", sym.det_power_sum_gram, "= discriminant:", discriminant(p))
print("det B =", det(sym.adjugate), "= (det S)^(m-1)")
print("positive definite:", sym.definiteness.is_pd)

print("\nH-B relation residual (exact):", h_b_relation_check(p))

# for m = 2 the adjugate IS the Bezout matrix of (p, p')
q2 = Polynomial.exact([1, 0, -4])
B = leray_symmetrizer(q2).adjugate
H = bezout_matrix(q2, q2.derivative()).fractions
print("\nm = 2:", "B == H exactly" if (B == H).all() else "mismatch")

# the singular case stays total: adjugate of a rank-deficient S
double = Polynomial.exact([1, 0, 0])
print("\nx^2: S =", power_sum_matrix(double).tolist(),
      " B =", leray_symmetrizer(double).adjugate.tolist())
print("B A defect:", symmetrization_defect(leray_symmetrizer(double).adjugate,
                                           companion_matrix(double)))
