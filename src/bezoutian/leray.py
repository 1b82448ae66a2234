"""The power-sum symmetrizer: S with entries sum_k root_k^(i+j), and its adjugate.

S is a polynomial in the coefficients of p (Newton's identities, no roots),
equal to R R^T for the Vandermonde R of the roots.  Its adjugate B also
symmetrizes the companion matrix, is positive definite exactly when p is
strictly hyperbolic, and relates to the Bezout matrix H of (p, p') through
congruence by R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactla
from .bezout import bezout_matrix, companion_matrix, symmetrization_defect
from .errors import MultipleRootError
from .exactla import PsdVerdict
from .polynomial import Polynomial, RootProfile, power_sums
from .roots import real_roots


def power_sum_matrix(p: Polynomial) -> np.ndarray:
    """S[i][j] = P_(i+j), power sums of the roots, from coefficients alone."""
    p.require_monic("power-sum matrix input")
    m = int(p.degree)
    sums = power_sums(p, max(2 * m - 2, 0))
    S = exactla.zeros(m, m, p.backend)
    for i in range(m):
        for j in range(m):
            S[i, j] = sums[i + j]
    return S


@dataclass(frozen=True)
class LeraySymmetrizer:
    power_sum_gram: np.ndarray      # S = R R^T
    adjugate: np.ndarray            # B, total even when S is singular
    det_power_sum_gram: object      # equals the squared difference product
    symmetry_defect: object         # max-norm of B A - (B A)^T
    definiteness: PsdVerdict


def leray_symmetrizer(p: Polynomial, tol: float = 1e-9) -> LeraySymmetrizer:
    """Build S and B = adj(S); B A symmetric, B positive definite iff strict."""
    S = power_sum_matrix(p)
    B = exactla.adjugate(S)
    A = companion_matrix(p)
    defect = symmetrization_defect(B, A)
    verdict = exactla.psd_certificate(B, tol)
    return LeraySymmetrizer(S, B, exactla.det(S), defect, verdict)


def h_b_relation_check(p: Polynomial, profile: RootProfile | None = None,
                       adjugate: np.ndarray | None = None) -> float:
    """Max-norm residual of H R diag(p'(root)^-2) R^-1 - B / delta^2.

    Requires simple roots; raises MultipleRootError otherwise.  Float path:
    the identity is root-based and delta vanishes at multiple roots.  Pass
    the ``adjugate`` B = adj(S) when it is already built.
    """
    p.require_monic("relation check input")
    if profile is None:
        profile = real_roots(p)
    if not profile.is_strict:
        raise MultipleRootError("the H-B relation requires strict hyperbolicity")
    pf = p.as_float()
    roots = [float(r) for r in profile.flattened]
    m = len(roots)
    H = np.asarray(bezout_matrix(pf, pf.derivative()).matrix, dtype=float)
    R = np.vander(roots, m, increasing=True).T
    dp = pf.derivative()
    D = np.diag([1.0 / dp(lam) ** 2 for lam in roots])
    delta = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            delta *= roots[j] - roots[i]
    if adjugate is None:
        adjugate = exactla.adjugate(power_sum_matrix(p))
    B = np.asarray(adjugate, dtype=float)
    lhs = np.linalg.solve(R.T, (H @ R @ D).T).T
    return float(np.max(np.abs(lhs - B / delta**2)))
