"""Uniform-in-eps certification of the smoothed Bezout symmetrizer family.

For the smoothing family p_eps with H_eps the Bezout matrix of
(p_eps, p_eps'), two bounds are certified on an epsilon grid: a lower bound
eps**(2r) |z|^2 <= C (H_eps z, z) and a commutator bound
|((H_eps A - A^T H_eps) z, w)| <= C eps**s (H_eps z,z)^(1/2) (H_eps w,w)^(1/2),
with one C for every eps in (0, 1] (Spagnolo's quasi-symmetrizers, as in
D'Ancona-Spagnolo 1998).  Both bounds are one-sided: the per-eps lower
constant may grow and the commutator constant may shrink as eps -> 0.

Both are evaluated through the congruence by G_eps (H_eps = G^T G when
q = p'), which turns them into singular-value statements that stay accurate
when the smallest eigenvalue of H_eps sits below float noise.  Randomized
sampling of the raw bilinear form cross-checks the congruence route.  The
family points of the grid are built in one pass (``nuij.build_family``),
and the singular values of every grid point come from one stacked call.
The default lower exponent r is the largest root multiplicity minus one,
read from the Yun decomposition of the exact p (``max_multiplicity``): the
CLI certifies a decimal p at its exact dyadic value, as ``verify_quasi``
decides hyperbolicity there.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bezout import companion_matrix
from .errors import NonHyperbolicError
from .factorization import lagrange_basis_matrix, scaled_inverse_diagonal
from .nuij import NuijFamilyPoint, build_family, default_epsilon_grid, nuij_family
from .polynomial import Polynomial
from .roots import is_hyperbolic, squarefree_decomposition

if TYPE_CHECKING:
    import numpy as np

# a one-sided constant moves by less than this factor between grid points
UNIFORMITY_FACTOR = 10.0


def max_multiplicity(p: Polynomial) -> int:
    """Largest root multiplicity of exact p of degree >= 1, from the Yun decomposition."""
    return max(mult for _, mult in squarefree_decomposition(p))


def _eps_power(eps: float, k: float) -> float:
    """eps**k, or ValueError when it leaves the float64 range."""
    with contextlib.suppress(OverflowError):
        if power := eps ** k:
            return power
    raise ValueError(f"eps**{k:g} at eps={eps:g} leaves the float64 range")


def _family_diagonal(fam: NuijFamilyPoint) -> list:
    """d_i = +-p_eps'(root_i) of ``scaled_inverse_diagonal``, which both conditions divide by.

    A zero means that float64 merged roots of p_eps, and raises ValueError.
    """
    d = scaled_inverse_diagonal(fam.roots_eps.flattened, fam.p_eps.derivative())
    if not all(d):
        raise ValueError(f"smoothing family at eps={float(fam.epsilon):g} has merged roots "
                         "in float64: p_eps' vanishes at a root")
    return d


@dataclass(frozen=True)
class QuasiConditions:
    """Observed constants for the two family conditions on a grid.

    c_lower = inf over eps, j of |p_eps'(root_j)| / eps**r
    C_upper = sup over eps, j of |q_eps(root_j)| / (eps**s |p_eps'(root_j)|)
    """

    r: float
    s: float
    c_lower: float
    C_upper: float
    rows: tuple  # (eps, min_derivative_over_eps_r, max_perturbation_ratio)


def check_conditions(p: Polynomial, epsilon_grid=None, r: float = 0.0,
                     s: float = 1.0) -> QuasiConditions:
    """The two family conditions on the grid.

    The family point ``nuij_family(p, eps)`` of every grid eps, which needs
    monic p, is built first, all in one pass (``build_family``), so a point
    that cannot be built stops the call before any condition is read.
    """
    grid = tuple(epsilon_grid) if epsilon_grid is not None else default_epsilon_grid()
    build_family(p, [float(eps) for eps in grid])
    families = [nuij_family(p, float(eps)) for eps in grid]
    rows = []
    c_lower = None
    C_upper = None
    for eps, fam in zip(grid, families):
        eps = float(eps)
        q_eps, roots, d = fam.q_eps, fam.roots_eps.flattened, _family_diagonal(fam)
        lo = min(abs(v) / _eps_power(eps, r) for v in d)
        hi = max(abs(q_eps(lam)) / (_eps_power(eps, s) * abs(v)) for lam, v in zip(roots, d))
        rows.append((eps, lo, hi))
        c_lower = lo if c_lower is None else min(c_lower, lo)
        C_upper = hi if C_upper is None else max(C_upper, hi)
    return QuasiConditions(r, s, c_lower, C_upper, tuple(rows))


@dataclass(frozen=True)
class CommutatorParts:
    """A = A_eps + Q_eps with Q_eps = S_eps G_eps factored through the roots."""

    A: np.ndarray
    A_eps: np.ndarray
    Q_eps: np.ndarray
    S_eps: np.ndarray
    G_eps: np.ndarray
    reconstruction_residual: float


def commutator_decomposition(p: Polynomial, epsilon) -> CommutatorParts:
    """Split the companion matrix of p against the smoothed one.

    Q_eps is zero except for its last row, which holds the negated
    coefficients of q_eps = p - p_eps; S_eps carries the root-wise ratios
    -q_eps(root_j) / d_j with d_j the signed derivative values that make
    G_eps R diagonal, R the Vandermonde matrix of the roots, read from the
    family point ``nuij_family(p, eps)``.
    """
    import numpy as np

    eps = float(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    fam = nuij_family(p, eps)
    pf, p_eps, q_eps, roots = p.as_float(), fam.p_eps, fam.q_eps, fam.roots_eps.flattened
    m = int(pf.degree)
    A = np.asarray(companion_matrix(pf).matrix, dtype=float)
    A_eps = np.asarray(companion_matrix(p_eps).matrix, dtype=float)
    Q = A - A_eps
    G = lagrange_basis_matrix([float(r) for r in roots])
    d = _family_diagonal(fam)
    S = np.zeros((m, m))
    for j, lam in enumerate(roots):
        S[m - 1, j] = -q_eps(lam) / d[j]
    residual = float(np.max(np.abs(S @ G - Q))) if m else 0.0
    return CommutatorParts(A, A_eps, Q, S, G, residual)


@dataclass(frozen=True)
class QuasiVerdict:
    """Per-eps certified constants and the one-sided uniformity verdict.

    A quasi-symmetrizer needs one C for every eps in (0, 1]: the lower
    constant must not go to 0 and the commutator constant must not blow up
    as eps -> 0.  On a finite grid that reads as two one-sided factors,
    taken over pairs ordered by eps value (not by grid position):
    ``lower_decay`` is the largest factor by which the lower constant falls
    from a larger eps to a smaller one, ``commutator_growth`` the largest
    factor by which the commutator constant rises.  A lower constant that
    is <= 0 or not finite gives ``lower_decay`` = inf.  ``uniform_pass``
    holds when both stay below ``UNIFORMITY_FACTOR``.
    """

    r: float
    s: float
    epsilons: tuple
    lower_bound_constants: tuple   # sigma_min(G_eps)^2 / eps^(2r)
    commutator_constants: tuple    # ||G^-T K G^-1||_2 / eps^s via G S - (G S)^T
    sample_max_ratios: tuple
    sampling_consistent: bool

    @property
    def lower_decay(self) -> float:
        if not all(v > 0 for v in self.lower_bound_constants):
            return math.inf
        return _worst_factor(self.epsilons, self.lower_bound_constants, rising=False)

    @property
    def commutator_growth(self) -> float:
        return _worst_factor(self.epsilons, self.commutator_constants, rising=True)

    @property
    def uniform_pass(self) -> bool:
        return (self.lower_decay < UNIFORMITY_FACTOR
                and self.commutator_growth < UNIFORMITY_FACTOR)


def _worst_factor(epsilons, values, rising: bool) -> float:
    """Largest factor by which values rise (or fall) as eps decreases; 1 if never.

    A non-finite value, or a rise from 0, counts as an infinite factor.
    """
    if not all(math.isfinite(v) for v in values):
        return math.inf
    points = sorted(zip(epsilons, values), key=lambda point: -point[0])
    worst = 1.0
    for i, (_, at_big) in enumerate(points):
        for _, at_small in points[i + 1:]:
            num, den = (at_small, at_big) if rising else (at_big, at_small)
            if num > den:
                worst = max(worst, num / den if den > 0 else math.inf)
    return worst


def _sample_pairs(rng: np.random.Generator, samples: int, n: int) -> tuple:
    """``samples`` random complex pairs (z, w) of length n, as the rows of Z and W.

    The draws of each sample are z_re, z_im, w_re, w_im, rows of one block,
    so the stream is that of drawing them one sample at a time.  A count
    below 1 draws nothing.
    """
    import numpy as np

    draws = rng.standard_normal((max(samples, 0), 4, n))
    return draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]


def _sample_ratios(Z: np.ndarray, W: np.ndarray, H: np.ndarray, K: np.ndarray,
                   eps_s: float) -> np.ndarray:
    """|(K z, w)| / (eps_s (H z, z)^(1/2) (H w, w)^(1/2)) for each row pair (z, w).

    One matrix product each for K z, H z and H w.  A pair whose denominator
    is not positive does not count and gives NaN.
    """
    import numpy as np

    num = np.abs(np.einsum("ij,ij->i", W.conj(), Z @ K.T))
    zhz = np.einsum("ij,ij->i", Z.conj(), Z @ H.T).real
    whw = np.einsum("ij,ij->i", W.conj(), W @ H.T).real
    den = eps_s * np.sqrt(zhz * whw)
    ratios = np.full(len(den), np.nan)
    counted = den > 0
    ratios[counted] = num[counted] / den[counted]
    return ratios


def _singular_values(mats: list) -> list:
    """The singular values of each matrix, descending, from one stacked ``svd`` call."""
    import numpy as np

    return list(np.linalg.svd(np.array(mats), compute_uv=False)) if mats else []


def verify_quasi(p: Polynomial, epsilon_grid=None, r: float | None = None,
                 s: float = 1.0, samples: int = 24, seed: int = 0) -> QuasiVerdict:
    """Certify the two quasi-symmetrizer bounds over an epsilon grid.

    Without r, p must be hyperbolic at its exact value, and r is its
    largest root multiplicity minus one (``max_multiplicity``).
    Each grid point gives a lower constant and a commutator constant; the
    verdict is uniform when, ordered by eps, the lower constant never falls
    and the commutator constant never rises by ``UNIFORMITY_FACTOR`` or more
    (see ``QuasiVerdict``).  The grid may come in any order.

    The commutator norm is computed from K' = G S - (G S)^T, the congruence
    of H A - A^T H by G^-1; this avoids forming H-products whose rounding
    noise would swamp eps-scaled quantities at the small end of the grid.
    Sampling of the raw form cross-checks it: per eps, ``samples`` complex
    pairs (z, w) are drawn in one block (``_sample_pairs``) and scored
    together (``_sample_ratios``); only samples with a positive denominator
    count.
    """
    import numpy as np

    if r is None:
        # decided at the exact value of p, as the CLI certifies a decimal
        exact = p.as_exact()
        verdict = is_hyperbolic(exact)
        if not verdict.is_hyperbolic:
            raise NonHyperbolicError(f"not hyperbolic: {verdict.witness}")
        r = max_multiplicity(exact) - 1
    grid = tuple(float(e) for e in (epsilon_grid if epsilon_grid is not None
                                    else default_epsilon_grid()))
    build_family(p, grid)
    points = []
    for eps in grid:
        parts = commutator_decomposition(p, eps)
        G, S = parts.G_eps, parts.S_eps
        points.append((parts, _eps_power(eps, s), _eps_power(eps, 2 * r), G @ S - (G @ S).T))
    # sigma_min(G_eps), and ||K_c||_2 as the largest singular value, of every
    # eps from one stacked call each; a stack gives each matrix its own bits
    sv_G = _singular_values([parts.G_eps for parts, *_ in points])
    sv_K = _singular_values([K_c for *_, K_c in points])
    rng = np.random.default_rng(seed)
    lower = []
    comm = []
    sample_max = []
    sampling_ok = True
    for (parts, eps_s, eps_2r, _), svals, k_svals in zip(points, sv_G, sv_K):
        A, G = parts.A, parts.G_eps
        lower.append(float(svals[-1]) ** 2 / eps_2r)
        comm_const = float(np.amax(k_svals)) / eps_s
        comm.append(comm_const)
        H = G.T @ G
        K = H @ A - A.T @ H
        Z, W = _sample_pairs(rng, samples, len(G))
        # fmax skips NaN: a sample that does not count, or a NaN ratio, which
        # the running max over samples skipped too
        worst = float(np.fmax.reduce(_sample_ratios(Z, W, H, K, eps_s), initial=0.0))
        sample_max.append(worst)
        if worst > comm_const * (1 + 1e-6) + 1e-9:
            sampling_ok = False
    return QuasiVerdict(r, s, grid, tuple(lower), tuple(comm), tuple(sample_max),
                        sampling_ok)
