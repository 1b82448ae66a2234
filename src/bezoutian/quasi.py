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
and read in one array pass, the grid of E eps as a leading axis: p keeps
the (E, m) arrays of the roots, d and q_eps(root) (``_family_stack``);
``lagrange_basis_matrix`` maps float roots (..., m) to G (..., m, m), and
``commutator_decomposition`` maps one eps to m x m matrices and a grid to
(E, m, m) stacks.  Each eps keeps the bits and the error it has alone.
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

from .bezout import _companion_stack
from .errors import NonHyperbolicError
from .factorization import lagrange_basis_matrix, scaled_inverse_diagonal
from .nuij import build_family, default_epsilon_grid, nuij_family
from .polynomial import Polynomial, _horner_rows
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


def _merged_roots(eps: float) -> ValueError:
    return ValueError(f"smoothing family at eps={eps:g} has merged roots "
                      "in float64: p_eps' vanishes at a root")


def _family_stack(p: Polynomial, grid: tuple) -> tuple:
    """(p_eps, roots, d, q_at_roots) of the float grid's family points, read in one array pass.

    One row per eps: the coefficients of p_eps (E, m + 1), leading first;
    its flattened roots, d = ``scaled_inverse_diagonal`` and q_eps at the
    roots (E, m), by Horner's rule on the coefficient rows (q_eps padded
    with leading zeros), with the bits of ``Polynomial.__call__``.  A zero
    in a row of d means that float64 merged roots of that p_eps.  The
    points are fetched in grid order, so the first that cannot be built
    raises.  p keeps the arrays (``Polynomial.memo``), keyed by the grid.
    """
    import numpy as np

    def build() -> tuple:
        points = [nuij_family(p, eps) for eps in grid]
        n, m = len(points), int(p.degree)
        p_eps = np.array([fam.p_eps.coeffs for fam in points], dtype=float).reshape(n, m + 1)
        roots = np.array([fam.roots_eps.flattened for fam in points], dtype=float).reshape(n, m)
        q_eps = np.zeros((n, m))
        for row, fam in zip(q_eps, points):
            row[m - len(fam.q_eps.coeffs):] = fam.q_eps.coeffs
        # overflow gives inf, as the Python float rule does, with no warning
        with np.errstate(all="ignore"):
            d = scaled_inverse_diagonal(roots, p_eps[:, :-1] * np.arange(m, 0, -1))
            return p_eps, roots, d, _horner_rows(q_eps, roots)

    return p.derived(("quasi", grid), build)


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
    that cannot be built stops the call before any condition is read.  An
    eps <= 0 raises ValueError where it comes up in grid order, and no
    point is built at or after it.
    """
    grid = tuple(float(eps) for eps in (epsilon_grid if epsilon_grid is not None
                                        else default_epsilon_grid()))
    positive = next((i for i, eps in enumerate(grid) if eps <= 0), len(grid))
    build_family(p, grid[:positive])
    _, _, d_rows, q_rows = _family_stack(p, grid[:positive])
    rows = []
    c_lower = None
    C_upper = None
    # per eps in grid order: merged roots, then eps**r, then eps**s; Python's
    # min, max and float division keep their NaN and zero semantics
    for eps, d, q_at in zip(grid, d_rows.tolist(), q_rows.tolist()):
        if not all(d):
            raise _merged_roots(eps)
        eps_r = _eps_power(eps, r)
        lo = min(abs(v) / eps_r for v in d)
        eps_s = _eps_power(eps, s)
        hi = max(abs(q) / (eps_s * abs(v)) for q, v in zip(q_at, d))
        rows.append((eps, lo, hi))
        c_lower = lo if c_lower is None else min(c_lower, lo)
        C_upper = hi if C_upper is None else max(C_upper, hi)
    if positive < len(grid):
        raise ValueError("epsilon must be positive")
    return QuasiConditions(r, s, c_lower, C_upper, tuple(rows))


@dataclass(frozen=True)
class CommutatorParts:
    """A = A_eps + Q_eps with Q_eps = S_eps G_eps factored through the roots.

    m x m matrices and one residual for one eps; for a grid of E eps, each
    matrix gains a leading grid axis (E, m, m), A repeated, and the
    residual is an array of E values.
    """

    A: np.ndarray
    A_eps: np.ndarray
    Q_eps: np.ndarray
    S_eps: np.ndarray
    G_eps: np.ndarray
    reconstruction_residual: float | np.ndarray


def commutator_decomposition(p: Polynomial, epsilon) -> CommutatorParts:
    """Split the companion matrix of p against the smoothed one, at one eps or on a grid.

    Q_eps is zero except for its last row, which holds the negated
    coefficients of q_eps = p - p_eps; S_eps carries the root-wise ratios
    -q_eps(root_j) / d_j with d_j the signed derivative values that make
    G_eps R diagonal, R the Vandermonde matrix of the roots, read from the
    family point ``nuij_family(p, eps)``.

    ``epsilon`` is one eps, giving m x m matrices, or a sequence of E eps,
    giving (E, m, m) stacks from one ``lagrange_basis_matrix`` call and one
    residual per eps (see ``CommutatorParts``).  The eps are checked in grid
    order: eps <= 0 raises ValueError, then a family point that cannot be
    built raises, then one with merged roots; the first failing eps raises.
    """
    import numpy as np

    one = np.ndim(epsilon) == 0
    grid = tuple(float(eps) for eps in ((epsilon,) if one else epsilon))
    fetched = 0
    try:
        for eps in grid:
            if eps <= 0:
                raise ValueError("epsilon must be positive")
            nuij_family(p, eps)
            fetched += 1
    finally:
        # whatever stops the walk, an eps before it with merged roots fails first
        p_eps, roots, d, q_at_roots = _family_stack(p, grid[:fetched])
        for eps, d_row in zip(grid, d):
            if not d_row.all():
                raise _merged_roots(eps)
    n, m = roots.shape
    if n:
        A = np.repeat(_companion_stack([p.as_float().coeffs]), n, axis=0)
        A_eps = _companion_stack(p_eps)
    else:  # an empty grid, where p may have degree 0 and no companion matrix
        A = A_eps = np.zeros((0, m, m))
    Q = A - A_eps
    G = lagrange_basis_matrix(roots)
    S = np.zeros((n, m, m))
    with np.errstate(all="ignore"):  # as the Python float rule: inf, with no warning
        S[:, m - 1:] = (-q_at_roots / d)[:, None]
    residual = np.max(np.abs(S @ G - Q), axis=(-2, -1)) if m else np.zeros(n)
    if one:
        return CommutatorParts(A[0], A_eps[0], Q[0], S[0], G[0], float(residual[0]))
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


def _sample_pairs(rng: np.random.Generator, points: int, samples: int, n: int) -> tuple:
    """``samples`` random complex pairs (z, w) of length n per grid point, as Z and W.

    Z and W have the shape (points, samples, n).  The draws of each sample
    are z_re, z_im, w_re, w_im, rows of one block, and the blocks of the
    grid points follow each other, so the stream is that of drawing them one
    sample at a time, point after point.  A count below 1 draws nothing.
    """
    import numpy as np

    draws = rng.standard_normal((points, max(samples, 0), 4, n))
    return draws[..., 0, :] + 1j * draws[..., 1, :], draws[..., 2, :] + 1j * draws[..., 3, :]


def _sample_ratios(Z: np.ndarray, W: np.ndarray, H: np.ndarray, K: np.ndarray,
                   eps_s) -> np.ndarray:
    """|(K z, w)| / (eps_s (H z, z)^(1/2) (H w, w)^(1/2)) for each row pair (z, w).

    Z and W (..., samples, n) are scored against H and K (..., n, n) and
    eps_s (...) with the same leading axes, one matrix product each for
    K z, H z and H w.  A pair whose denominator is not positive does not
    count and gives NaN.
    """
    import numpy as np

    num = np.abs(np.einsum("...ij,...ij->...i", W.conj(), Z @ np.swapaxes(K, -1, -2)))
    zhz = np.einsum("...ij,...ij->...i", Z.conj(), Z @ np.swapaxes(H, -1, -2)).real
    whw = np.einsum("...ij,...ij->...i", W.conj(), W @ np.swapaxes(H, -1, -2)).real
    den = np.asarray(eps_s)[..., None] * np.sqrt(zhz * whw)
    ratios = np.full(den.shape, np.nan)
    counted = den > 0
    ratios[counted] = num[counted] / den[counted]
    return ratios


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
    pairs (z, w) are drawn (``_sample_pairs``) and scored (``_sample_ratios``);
    only samples with a positive denominator count.

    The grid goes through each step at once (one decomposition, product,
    ``svd`` and draw), and the first failing eps raises what it raises
    alone: eps <= 0, merged roots, then eps**s or eps**(2r) out of range.
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
    powers = []
    for eps in grid:
        try:
            powers.append((_eps_power(eps, s), _eps_power(eps, 2 * r)))
        except (ValueError, ZeroDivisionError):
            # a failure of the decomposition at this eps or before it comes first
            commutator_decomposition(p, grid[:len(powers) + 1])
            raise
    parts = commutator_decomposition(p, grid)
    G, S, A = parts.G_eps, parts.S_eps, parts.A
    GS = G @ S
    # sigma_min(G_eps), and ||K_c||_2 as the largest singular value, of every
    # eps from one stacked call each; a stack gives each matrix its own bits
    sv_G = np.linalg.svd(G, compute_uv=False)
    k_norms = np.amax(np.linalg.svd(GS - np.swapaxes(GS, -1, -2), compute_uv=False), axis=-1,
                      initial=-np.inf)  # -inf: an empty grid for p of degree 0 has no value
    H = np.swapaxes(G, -1, -2) @ G
    K = H @ A - np.swapaxes(A, -1, -2) @ H
    Z, W = _sample_pairs(np.random.default_rng(seed), len(grid), samples, G.shape[-1])
    ratios = _sample_ratios(Z, W, H, K, np.array([eps_s for eps_s, _ in powers]))
    # fmax skips NaN: a sample that does not count, or a NaN ratio, which
    # the running max over samples skipped too
    worst = np.fmax.reduce(ratios, axis=-1, initial=0.0)
    lower = []
    comm = []
    sampling_ok = True
    for (eps_s, eps_2r), svals, k_norm, sampled in zip(powers, sv_G, k_norms.tolist(),
                                                      worst.tolist()):
        lower.append(float(svals[-1]) ** 2 / eps_2r)
        comm_const = k_norm / eps_s
        comm.append(comm_const)
        if sampled > comm_const * (1 + 1e-6) + 1e-9:
            sampling_ok = False
    return QuasiVerdict(r, s, grid, tuple(lower), tuple(comm), tuple(worst.tolist()),
                        sampling_ok)
