"""The power-sum symmetrizer: S with entries sum_k root_k^(i+j), and its adjugate.

S is a polynomial in the coefficients of p (Newton's identities, no roots),
equal to R R^T for the Vandermonde R of the roots.  Its adjugate B also
symmetrizes the companion matrix and is positive definite exactly when p is
strictly hyperbolic.  For every monic p, S H = p'(A)^2 with H the Bezout
matrix of (p, p') and A the companion matrix, so det(S) H = B p'(A)^2;
``h_b_relation_check`` tests that from the coefficients alone.

Everything here is exact: float input is taken at its exact dyadic value
(``Polynomial.as_exact``), the value the decimal denotes, so S, B and the
relation are the same for a decimal and for that value typed as a fraction.
S and B are held as integer matrices (``exactla.IntMatrix``).  The power
sums of S come from Newton's identities on the primitive integers of p
(``power_sums``), and one Faddeev-LeVerrier run, which computes half of
each product since S is symmetric, gives B and, by one row product, det S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .bezout import bezout_matrix, companion_matrix, symmetrization_defect
from .errors import DegreeMismatchError
from .exactla import IntMatrix, PsdVerdict
from .polynomial import Polynomial, _primitive, power_sums


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
    matrices, and ``power_sum_gram`` and ``adjugate`` build their Fraction
    arrays on first read."""

    power_sum_ints: IntMatrix       # S = R R^T
    adjugate_ints: IntMatrix        # B, total even when S is singular
    det_power_sum_gram: object      # equals the squared difference product
    symmetry_defect: object         # max-norm of B A - (B A)^T
    definiteness: PsdVerdict

    @property
    def power_sum_gram(self) -> np.ndarray:
        return self.power_sum_ints.fractions

    @property
    def adjugate(self) -> np.ndarray:
        return self.adjugate_ints.fractions


def leray_symmetrizer(p: Polynomial) -> LeraySymmetrizer:
    """Build S and B = adj(S); B A symmetric, B positive definite iff strict.

    det S comes from the adjugate, S B = det(S) I, as row 0 of S times
    column 0 of B: no elimination of S runs.
    """
    p = p.as_exact()
    S = _power_sum_form(p)
    B = exactla.adjugate(S)
    A = companion_matrix(p)
    defect = symmetrization_defect(B, A)
    verdict = exactla.psd_certificate(B)
    return LeraySymmetrizer(S, B, exactla.adjugate_det(S, B), defect, verdict)


def _derivative_at_companion(p: Polynomial) -> tuple[list, object]:
    """(W, d) with p'(A) = W / d for the companion matrix A of exact monic p.

    Row i of p'(A) is x^i p'(x) mod p, so each row is the previous one times
    x with x^m reduced by p.  It runs on the primitive integers P of p,
    whose leading coefficient L is a common denominator of p: row i has
    denominator L^(i+1) and is kept over the common d = L^m, which makes
    each reduction an exact division.
    """
    m = int(p.degree)
    P = _primitive(p.coeffs)[0][::-1]
    L = P[-1]
    row = [(j + 1) * P[j + 1] * L ** (m - 1) for j in range(m)]
    W = [row]
    for _ in range(m - 1):
        top = row[-1] // L
        row = [(row[j - 1] if j else 0) - top * P[j] for j in range(m)]
        W.append(row)
    return W, L ** m


def h_b_relation_check(p: Polynomial, sym: LeraySymmetrizer | None = None,
                       H=None) -> float:
    """Relative max-norm residual of det(S) H - B p'(A)^2, zero in algebra.

    S H = p'(A)^2 for the Bezout matrix H of (p, p') and every monic p, so
    det(S) H = B p'(A)^2 with B = adj S; no roots enter.  The check runs on
    integer matrices of the exact p (and of the exact values of a float H),
    over max(1, |det(S) H|), and the residual is exactly 0.  Pass ``sym``
    and ``H`` when they are already built.
    """
    p = p.as_exact()
    p.require_monic("relation check input")
    if sym is None:
        sym = leray_symmetrizer(p)
    det_s = sym.det_power_sum_gram
    X = IntMatrix.of(H if H is not None else bezout_matrix(p, p.derivative()))
    W, d = _derivative_at_companion(p)
    if X.shape != (len(W), len(W)):
        raise DegreeMismatchError(f"Bezout matrix of shape {X.shape} for degree {len(W)}")
    Y = sym.adjugate_ints
    dx, dy = X.den, Y.den
    # over the common denominator den, det(S) H = a X and B p'(A)^2 = b Y W W
    den = det_s.denominator * dx * dy * d * d
    a, b = det_s.numerator * dy * d * d, det_s.denominator * dx
    lhs = [[a * x for x in row] for row in X.rows]
    rhs = exactla._matmul(Y.rows, exactla._matmul(W, W))
    diff = max(abs(u - b * v) for lr, rr in zip(lhs, rhs) for u, v in zip(lr, rr))
    size = max(abs(u) for row in lhs for u in row)
    return float(Fraction(diff, max(size, den)))
