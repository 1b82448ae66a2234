"""The power-sum symmetrizer: S with entries sum_k root_k^(i+j), and its adjugate.

S is a polynomial in the coefficients of p (Newton's identities, no roots),
equal to R R^T for the Vandermonde R of the roots.  Its adjugate B also
symmetrizes the companion matrix and is positive definite exactly when p is
strictly hyperbolic.  For every monic p, S H = p'(A)^2 with H the Bezout
matrix of (p, p') and A the companion matrix, so det(S) H = B p'(A)^2;
``h_b_relation_check`` tests S H = p'(A)^2 from the coefficients alone.

Everything here is exact: float input is taken at its exact dyadic value
(``Polynomial.as_exact``), the value the decimal denotes, so S, B and the
relation are the same for a decimal and for that value typed as a fraction.
S and B are held as integer matrices (``exactla.IntMatrix``).  The power
sums of S come from Newton's identities on the primitive integers of p
(``power_sums``).  B and its certificates come from S, by its rank
(Horn-Johnson, Matrix Analysis, 0.8.2):

- rank S = m - deg gcd(p, p') (Hermite: S = sum_k mult_k v_k v_k^T over the
  distinct complex roots), and the gcd is the last member of the Sturm chain
  that p keeps (``roots._sturm_ends``).  At rank <= m - 2 every (m-1)-minor
  of S vanishes, so B = 0, with det 0, semidefinite and not definite: no
  adjugate is computed.
- Otherwise one Faddeev-LeVerrier run, which computes half of each product
  since S is symmetric, gives B and, by one row product, det S.  For det S
  != 0 the full product S B = det(S) I (``exactla.is_adjugate_product``)
  certifies B = det(S) S^-1, so det B = det(S)^(m-1), and B > 0 exactly
  when S > 0 (B has the inertia of det(S) S, and s_0 = m > 0), read from the
  LDL certificate of S: B is not eliminated.
- At rank m - 1, B has rank one, and its own LDL certificate (one pivot)
  gives its definiteness and determinant, as it does for a B that the
  product check rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import exactla
from .bezout import bezout_matrix, companion_matrix, symmetrization_defect
from .exactla import IntMatrix, PsdVerdict
from .polynomial import Polynomial, power_sums
from .roots import _sturm_ends

if TYPE_CHECKING:
    import numpy as np


def _power_sum_form(p: Polynomial) -> IntMatrix:
    """S[i][j] = P_(i+j) as integer rows over the common denominator of the power sums."""
    p = p.as_exact()
    p.require_monic("power-sum matrix input")
    m = int(p.degree)
    sums = power_sums(p, max(2 * m - 2, 0))
    D = math.lcm(*(s.denominator for s in sums))
    ints = [s.numerator * (D // s.denominator) for s in sums]
    return IntMatrix(tuple(tuple(ints[i:i + m]) for i in range(m)), D)


def power_sum_matrix(p: Polynomial) -> np.ndarray:
    """S[i][j] = P_(i+j), power sums of the roots, from coefficients alone."""
    return _power_sum_form(p).fractions


@dataclass(frozen=True)
class LeraySymmetrizer:
    """S, B = adj S and the certificates of B; S and B are held as integer
    matrices, and ``adjugate`` builds its Fraction array on first read."""

    power_sum_ints: IntMatrix       # S = R R^T
    adjugate_ints: IntMatrix        # B, total even when S is singular
    det_power_sum_gram: object      # equals the squared difference product
    det_adjugate: object            # det B, det(S)^(m-1) once S B = det(S) I is checked
    symmetry_defect: object         # max-norm of B A - (B A)^T
    definiteness: PsdVerdict        # of B, read from S where S is nonsingular

    @property
    def adjugate(self) -> np.ndarray:
        return self.adjugate_ints.fractions


def leray_symmetrizer(p: Polynomial) -> LeraySymmetrizer:
    """Build S and B = adj(S); B A symmetric, B positive definite iff strict.

    B = 0 when deg gcd(p, p') >= 2, read from the Sturm chain p keeps.
    Otherwise det S comes from the adjugate, S B = det(S) I, as row 0 of S
    times column 0 of B, and for det S != 0 that product, checked in full,
    gives det B and the definiteness of B from the LDL certificate of S;
    only a B of rank one is eliminated.  The exact p keeps the result
    (``Polynomial.memo``).
    """
    p = p.as_exact()
    return p.derived("leray", lambda: _leray_symmetrizer(p))


def _leray_symmetrizer(p: Polynomial) -> LeraySymmetrizer:
    S = _power_sum_form(p)
    m = len(S.rows)
    if m > 2 and _sturm_ends(p)[-1][0] > 2:
        # deg gcd(p, p') >= 2: rank S <= m - 2, so every (m-1)-minor of S vanishes
        B = IntMatrix(((0,) * m,) * m)
        return LeraySymmetrizer(S, B, Fraction(0), Fraction(0), Fraction(0), B.ldl)
    B = exactla.adjugate(S)
    det_s = exactla.adjugate_det(S, B)
    defect = symmetrization_defect(B, companion_matrix(p))
    if det_s and exactla.is_adjugate_product(S, B, det_s):
        # B = det(S) S^-1 is nonsingular, and definite exactly when S is
        pd = S.ldl.is_pd
        verdict = PsdVerdict(pd, pd, "adjugate-identity", rank=m,
                             witness="" if pd else f"S indefinite: {S.ldl.witness}")
        return LeraySymmetrizer(S, B, det_s, det_s ** (m - 1), defect, verdict)
    return LeraySymmetrizer(S, B, det_s, exactla.det(B), defect, B.ldl)


def _derivative_at_companion(p: Polynomial) -> tuple[list, object]:
    """(W, d) with p'(A) = W / d for the companion matrix A of exact monic p.

    Row i of p'(A) is x^i p'(x) mod p, so each row is the previous one times
    x with x^m reduced by p.  It runs on the primitive integers P of p,
    whose leading coefficient L is a common denominator of p: row i has
    denominator L^(i+1) and is kept over the common d = L^m, which makes
    each reduction an exact division.
    """
    m = int(p.degree)
    P = p.primitive[0][::-1]
    L = P[-1]
    row = [(j + 1) * P[j + 1] * L ** (m - 1) for j in range(m)]
    W = [row]
    for _ in range(m - 1):
        top = row[-1] // L
        row = [(row[j - 1] if j else 0) - top * P[j] for j in range(m)]
        W.append(row)
    return W, L ** m


def h_b_relation_check(p: Polynomial) -> float:
    """Relative max-norm residual of S H - p'(A)^2, zero in algebra.

    S H = p'(A)^2 for the Bezout matrix H of (p, p') and every monic p; no
    roots enter.  Multiplied on the left by B = adj S, for which
    B S = det(S) I, it gives det(S) H = B p'(A)^2, the relation of H to
    Leray's B, and for nonsingular S, where ``leray_symmetrizer`` checked
    S B = det(S) I, the two are equivalent.  So the check multiplies S, whose
    entries are smaller than the (m-1)-minors in B.  It runs on integer
    matrices of the exact p, over max(1, |S H|), and the residual is
    exactly 0.
    """
    p = p.as_exact()
    p.require_monic("relation check input")
    S = leray_symmetrizer(p).power_sum_ints
    X = bezout_matrix(p, p.derivative())
    W, d = _derivative_at_companion(p)
    # over the common denominator den, S H = lhs and p'(A)^2 = b W W
    den = S.den * X.den * d * d
    lhs = [[d * d * v for v in row] for row in exactla._matmul(S.rows, X.rows)]
    rhs, b = exactla._matmul(W, W), S.den * X.den
    diff = max(abs(u - b * v) for lr, rr in zip(lhs, rhs) for u, v in zip(lr, rr))
    size = max(abs(u) for row in lhs for u in row)
    return float(Fraction(diff, max(size, den)))
