"""Quadratic energy forms along solutions of the companion system.

With U = (u, D_t u, ..., D_t^(m-1) u) and D_t U = A U, the form
(H U, U) built from the Bezout matrix H of (p, q) is conserved when u
solves p(D_t) u = 0, nonnegative when q separates p, and satisfies the
derivative identity tying its time derivative to p(D_t)u and q(D_t)u.
Test signals are finite exponential sums so every derivative is closed
form; no numerical differentiation of u itself ever happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bezout import bezout_matrix, companion_matrix
from .errors import NonHyperbolicError
from .factorization import derivative_bound_constant
from .polynomial import Polynomial
from .roots import real_roots

if TYPE_CHECKING:
    import numpy as np

_EIGEN_GAP = 1e-6
# relative slack of chain_bound_check's finite-difference comparisons
_CHAIN_SLACK = 1e-7


@dataclass(frozen=True)
class ExponentialSignal:
    """u(t) = sum_k c_k exp(i nu_k t) with real frequencies nu_k.

    D_t = (1/i) d/dt acts as multiplication by nu_k on each term, so every
    operator value p(D_t)u is a closed-form exponential sum as well.
    """

    terms: tuple  # of (coeff, frequency) pairs

    @classmethod
    def of(cls, *terms) -> "ExponentialSignal":
        return cls(tuple((complex(c), float(nu)) for c, nu in terms))

    def dt_values(self, order: int, times: np.ndarray) -> np.ndarray:
        import numpy as np

        t = np.asarray(times, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for c, nu in self.terms:
            out += c * nu**order * np.exp(1j * nu * t)
        return out

    def operator_values(self, p: Polynomial, times: np.ndarray) -> np.ndarray:
        """p(D_t) u sampled on the grid."""
        import numpy as np

        t = np.asarray(times, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for c, nu in self.terms:
            out += c * complex(p.as_float()(nu)) * np.exp(1j * nu * t)
        return out

    def derivative_stack(self, depth: int, times: np.ndarray) -> np.ndarray:
        """Rows D_t^i u for i = 0..depth-1, shape (depth, len(times))."""
        import numpy as np

        return np.vstack([self.dt_values(i, times) for i in range(depth)])


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), m), state row per time
    generator: np.ndarray  # the float companion matrix A of D_t U = A U

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def dt_stack(self, depth: int) -> np.ndarray:
        """Rows D_t^i u for i = 0..depth-1 recovered from the states.

        Components of the state give orders < m; order m comes from the
        last row of A @ U since D_t U = A U along the trajectory.
        """
        import numpy as np

        m = self.dimension
        if depth > m + 1:
            raise ValueError("trajectories expose derivatives up to order m")
        rows = [self.states[:, i] for i in range(min(depth, m))]
        if depth == m + 1:
            rows.append((self.states @ self.generator.T)[:, m - 1])
        return np.vstack(rows)


# numerator coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and
# the 1-norm up to which it meets double precision unscaled (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _balance(M: np.ndarray) -> tuple:
    """(B, d) with B = D^-1 M D, D = diag(d), every d_i a power of two.

    Parlett-Reinsch balancing as LAPACK's gebal does it, without the
    permutation: scale row and column i by 1/f and f, f a power of two,
    while that cuts their 2-norm sum by 5 %.  Powers of two make the
    similarity exact.
    """
    import numpy as np

    B = np.array(M, dtype=complex)
    d = np.ones(B.shape[0])
    converged = False
    while not converged:
        converged = True
        for i in range(B.shape[0]):
            c, r = np.linalg.norm(B[:, i]), np.linalg.norm(B[i, :])
            if c == 0 or r == 0:
                continue
            s, f = c + r, 1.0
            while c < r / 2:
                c, r, f = c * 2, r / 2, f * 2
            while c / 2 >= r:
                c, r, f = c / 2, r * 2, f / 2
            if c + r < 0.95 * s:
                converged = False
                d[i] *= f
                B[i, :] /= f
                B[:, i] *= f
    return B, d


def _expm(M: np.ndarray) -> np.ndarray:
    """exp(M) by balancing, then scaling and squaring with the [13/13] Pade approximant.

    M is scaled by 2^-s so that its balanced 1-norm is at most theta_13,
    the Pade quotient is squared s times, and the balancing is undone.
    """
    import numpy as np

    if not np.isfinite(M).all():
        # balancing would never settle on an infinite row or column
        raise ValueError("the step matrix leaves the float64 range")
    B, d = _balance(M)
    norm = np.linalg.norm(B, 1)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    B = B / 2.0**s
    b, ident = _PADE13, np.eye(B.shape[0])
    B2 = B @ B
    B4 = B2 @ B2
    B6 = B4 @ B2
    U = B @ (B6 @ (b[13] * B6 + b[11] * B4 + b[9] * B2)
             + b[7] * B6 + b[5] * B4 + b[3] * B2 + b[1] * ident)
    V = B6 @ (b[12] * B6 + b[10] * B4 + b[8] * B2) + b[6] * B6 + b[4] * B4 + b[2] * B2 + b[0] * ident
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E * d[:, None] / d[None, :]


def propagate(p: Polynomial, U0, T: float, steps: int) -> Trajectory:
    """Solve D_t U = A U, i.e. dU/dt = i A U, on steps+1 equispaced times.

    A is the float companion matrix of monic p (``companion_matrix`` of its
    float rounding), which the trajectory keeps as its generator.

    Strictly hyperbolic generators propagate exactly through the eigenbasis
    U(t) = R diag(exp(i root_k t)) R^-1 U0, all times in one matrix product;
    otherwise the exponential of the single step (``_expm``: balanced,
    scaled and squared [13/13] Pade) is applied repeatedly.  The roots are
    those of the float generator polynomial at the default tolerance, which
    another check may have found already, or, if those come out complex, at
    the looser imaginary tolerance 1e-7.
    """
    import numpy as np

    if steps < 1:
        raise ValueError("steps must be >= 1")
    pf = p.as_float()
    A = companion_matrix(pf)
    m = A.shape[0]
    U0 = np.asarray(U0, dtype=complex)
    if U0.shape != (m,):
        raise ValueError(f"U0 must have length {m}")
    times = np.linspace(0.0, float(T), steps + 1)
    try:
        # where the default tolerance finds the roots, imag_tol=1e-7 finds the same
        profile = real_roots(pf)
    except NonHyperbolicError:
        try:
            profile = real_roots(pf, imag_tol=1e-7)
        except NonHyperbolicError:
            profile = None
    roots = [float(r) for r in profile.flattened] if profile is not None else []
    gaps = [b - a for a, b in zip(roots, roots[1:])]
    scale = max(1.0, max((abs(r) for r in roots), default=1.0))
    if profile is not None and profile.is_strict and (not gaps or min(gaps) > _EIGEN_GAP * scale):
        R = np.vander(roots, m, increasing=True).T
        y = np.linalg.solve(R, U0)
        states = (np.exp(1j * np.outer(times, roots)) * y) @ R.T
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            generator = 1j * A * (times[1] - times[0])
        if not np.isfinite(generator).all():
            raise ValueError("the step matrix leaves the float64 range")
        step = _expm(generator)
        states = np.empty((len(times), m), dtype=complex)
        states[0] = U0
        for k in range(1, len(times)):
            states[k] = step @ states[k - 1]
    return Trajectory(times, states, A)


@dataclass(frozen=True)
class EnergySeries:
    times: np.ndarray
    values: np.ndarray
    p: Polynomial
    q: Polynomial

    @property
    def spread(self) -> float:
        """Max absolute deviation from the initial value."""
        import numpy as np

        return float(np.max(np.abs(self.values - self.values[0])))

    def relative_spread(self) -> float:
        scale = max(1.0, abs(float(self.values[0])))
        return self.spread / scale


def energy_series(p: Polynomial, q: Polynomial, traj: Trajectory) -> EnergySeries:
    """(H U(t), U(t)) along the trajectory, H the float Bezout matrix of (p, q).

    Every state is scored in one product.
    """
    import numpy as np

    H = bezout_matrix(p.as_float(), q.as_float())
    if H.shape[0] != traj.dimension:
        raise ValueError("form dimension does not match the trajectory")
    U = traj.states
    vals = np.einsum("ti,ti->t", np.conj(U), U @ H.T).real
    if not np.isfinite(vals).all():
        raise ValueError("energy series leaves the float64 range")
    return EnergySeries(traj.times, vals, p, q)


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_draws(seed: int, n: int, low: float, high: float) -> list[float]:
    """numpy's ``default_rng(seed).uniform(low, high, n)`` bit for bit, without numpy.random.

    ``default_rng`` seeds PCG64 through a SeedSequence, whose two streams
    numpy's RNG policy (NEP 19) keeps stable: the seed's little-endian
    32-bit words are hashed into a pool of four words and mixed, the pool
    gives four 64-bit words w0..w3 (``generate_state(4, uint64)``), and
    PCG64 starts from state w0·2^64 + w1 on the stream w2·2^64 + w3.  Each
    draw takes one 128-bit LCG step and the XSL-RR output x, and returns
    low + (high − low)·((x >> 11)·2^−53) as numpy's ``random_uniform``
    does.  A negative seed raises numpy's ValueError.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state32 = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state32.append(value ^ value >> 16)
    w0, w1, w2, w3 = (state32[i] | state32[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    # from state 0: one step, add the initial state, one more step
    state = (inc + (w0 << 64 | w1)) * _PCG64_MULT + inc & _MASK128
    draws = []
    for _ in range(n):
        state = state * _PCG64_MULT + inc & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        draws.append(low + (high - low) * ((x >> 11) * 2.0**-53))
    return draws


def derivative_identity_check(p: Polynomial, q: Polynomial, signal: ExponentialSignal,
                              t_max: float = 10.0) -> float:
    """Residual of d/dt (H Du, Du) = i (p(D_t)u conj(q(D_t)u) - conj(p(D_t)u) q(D_t)u).

    The left side expands in closed form through the matrix entries of H,
    the right side through direct application of p and q to the signal; the
    two routes share no arithmetic.  Both are sampled at 201 times on
    [0, t_max].  H is the float Bezout matrix of (p, q).
    """
    import numpy as np

    m = max(int(p.degree), int(q.degree) if not q.is_zero else 0)
    H = bezout_matrix(p.as_float(), q.as_float())
    times = np.linspace(0.0, t_max, 201)
    coeffs = np.array([c for c, _ in signal.terms])
    freqs = np.array([nu for _, nu in signal.terms])
    V = np.vander(freqs, m, increasing=True)  # row k = (1, nu_k, ..., nu_k^(m-1))
    M = V @ H @ V.T
    lhs = np.zeros(times.shape, dtype=complex)
    for k in range(len(freqs)):
        for l in range(len(freqs)):
            dnu = freqs[k] - freqs[l]
            lhs += 1j * dnu * coeffs[k] * np.conj(coeffs[l]) * M[k, l] * np.exp(1j * dnu * times)
    P = signal.operator_values(p, times)
    Q = signal.operator_values(q, times)
    rhs = 1j * (P * np.conj(Q) - np.conj(P) * Q)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class ChainBoundResult:
    passed: bool
    derivative_margin: float      # max of d/dt energy minus 2|P_j||P_j+1| (<= slack)
    floor_margin: float           # max of c_j |P_j+1|^2 minus energy (<= slack)
    constant: float
    slack: float

    def __bool__(self) -> bool:
        return self.passed


def chain_bound_check(p: Polynomial, j: int, source, T: float = 10.0) -> ChainBoundResult:
    """Check d/dt (H_j Du, Du) <= 2 |p^(j)(D_t)u| |p^(j+1)(D_t)u| along u.

    H_j is the Bezout matrix of (p^(j), p^(j+1)); a signal ``source`` is
    sampled at 2001 times on [0, T], a ``Trajectory`` at its own.  The time
    derivative uses a 5-point central difference on the uniform grid, so the
    comparison carries a slack of 1e-7 times the scale of the data.  Also
    checks the floor c_j |p^(j+1)(D_t)u|^2 <= (H_j Du, Du) with the certified
    c_j = 1 / deg p^(j) of the monic p^(j) (``derivative_bound_constant``),
    which reads no root.
    """
    import numpy as np

    m = int(p.degree)
    if j > m - 2:
        raise ValueError("chain stage j must leave degree >= 2")
    pj_native = p.derivative(j)
    pj = pj_native.as_float()
    pj1 = p.derivative(j + 1).as_float()
    n = int(pj.degree)
    H = bezout_matrix(pj, pj1)

    times = np.linspace(0.0, float(T), 2001)
    if isinstance(source, Trajectory):
        times = source.times
        stack = source.dt_stack(n + 1)
    else:
        stack = source.derivative_stack(n + 1, times)
    du = stack[:n]
    energy = np.einsum("it,ij,jt->t", np.conj(du), H, du).real
    Pj = np.zeros(times.shape, dtype=complex)
    for i, c in enumerate(pj.ascending()):
        Pj += float(c) * stack[i]
    Pj1 = np.zeros(times.shape, dtype=complex)
    for i, c in enumerate(pj1.ascending()):
        Pj1 += float(c) * stack[i]
    rhs = 2.0 * np.abs(Pj) * np.abs(Pj1)

    h = times[1] - times[0]
    d_energy = (energy[:-4] - 8 * energy[1:-3] + 8 * energy[3:-1] - energy[4:]) / (12 * h)
    inner = slice(2, len(times) - 2)
    scale = max(1.0, float(np.max(rhs)), float(np.max(np.abs(d_energy))))
    slack = _CHAIN_SLACK * scale
    derivative_margin = float(np.max(d_energy - rhs[inner]))

    # the floor constant is 1 / deg p^(j), certified by the Sturm chain of the monic p^(j)
    monic = pj_native if pj_native.is_monic else pj_native * (1 / pj_native.leading)
    c_j = float(derivative_bound_constant(monic).constant)
    floor_margin = float(np.max(c_j * np.abs(Pj1) ** 2 - energy))
    floor_slack = _CHAIN_SLACK * max(1.0, float(np.max(energy)))
    passed = derivative_margin <= slack and floor_margin <= floor_slack
    return ChainBoundResult(passed, derivative_margin, floor_margin, c_j, slack)
