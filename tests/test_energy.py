"""Energy forms along companion trajectories and on exponential test signals."""

import numpy as np
import pytest

import corpus
from bezoutian import (
    ExponentialSignal,
    NonHyperbolicError,
    Polynomial,
    bezout_matrix,
    chain_bound_check,
    companion_matrix,
    derivative_identity_check,
    energy_series,
    propagate,
    real_roots,
)
from bezoutian.energy import _balance, _expm, _uniform_draws
from bezoutian.scalars import BACKEND_FLOAT

X2_MINUS_1 = Polynomial.exact([1, 0, -1])
X3_MINUS_X = Polynomial.exact([1, 0, -1, 0])


def test_propagate_eigenvector_modes():
    traj = propagate(X2_MINUS_1, [1, 1], 10.0, 100)
    # (1, 1) is the eigenvector with root +1: U(t) = e^{it} (1, 1)
    expect = np.exp(1j * traj.times)[:, None] * np.array([1.0, 1.0])
    assert np.max(np.abs(traj.states - expect)) < 1e-12
    traj = propagate(X2_MINUS_1, [1, -1], 10.0, 100)
    expect = np.exp(-1j * traj.times)[:, None] * np.array([1.0, -1.0])
    assert np.max(np.abs(traj.states - expect)) < 1e-12


def test_propagate_jordan_block():
    traj = propagate(Polynomial([1, 0, 0], BACKEND_FLOAT), [0, 1], 2.0, 40)
    expect = np.stack([1j * traj.times, np.ones_like(traj.times)], axis=1)
    assert np.max(np.abs(traj.states - expect)) < 1e-12


def test_trajectory_solves_the_system():
    # five-point finite differences of the states reproduce dU/dt = iAU
    p = Polynomial.from_roots([-2, -1, 1, 2]).as_float()
    traj = propagate(p, [1, 0.5, -0.25, 0.125], 5.0, 4000)
    h = traj.times[1] - traj.times[0]
    U = traj.states
    dU = (U[:-4] - 8 * U[1:-3] + 8 * U[3:-1] - U[4:]) / (12 * h)
    rhs = U[2:-2] @ (1j * companion_matrix(p)).T
    assert np.max(np.abs(dU - rhs)) < 1e-8


def test_energy_series_examples():
    traj = propagate(X2_MINUS_1, [1, 1], 10.0, 200)
    series = energy_series(X2_MINUS_1, Polynomial.exact([2, 0]), traj)
    assert series.values[0] == pytest.approx(4.0)
    assert series.spread < 1e-12
    series = energy_series(X2_MINUS_1, Polynomial.exact([1, 0]), traj)
    assert series.values[0] == pytest.approx(2.0)
    assert series.spread < 1e-12
    jordan = propagate(Polynomial([1, 0, 0], BACKEND_FLOAT), [0, 1], 10.0, 200)
    series = energy_series(Polynomial.exact([1, 0, 0]), Polynomial.exact([2, 0]), jordan)
    assert series.values[0] == pytest.approx(2.0)
    assert series.spread < 1e-12


def test_conservation_random_separating_pairs():
    rg = corpus.rng(81)
    for _ in range(15):
        m = rg.randint(2, 6)
        profile = corpus.strict_profile(rg, m)
        p = Polynomial.from_roots(profile)
        q = corpus.separating_q(rg, profile)
        U0 = [complex(rg.uniform(-1, 1), rg.uniform(-1, 1)) for _ in range(m)]
        traj = propagate(p, U0, 10.0, 150)
        series = energy_series(p, q, traj)
        assert series.relative_spread() <= 1e-12
        assert float(np.min(series.values)) >= -1e-9 * max(1.0, float(np.max(series.values)))


def test_derivative_identity_examples():
    residual = derivative_identity_check(
        X2_MINUS_1, Polynomial.exact([2, 0]), ExponentialSignal.of((1.0, 2.0)), t_max=10.0
    )
    assert residual <= 1e-9
    # kernel signal: both sides vanish
    kernel = ExponentialSignal.of((1.0, 1.0), (0.5, -1.0))
    residual = derivative_identity_check(X2_MINUS_1, Polynomial.exact([2, 0]), kernel,
                                         t_max=10.0)
    assert residual <= 1e-12
    residual = derivative_identity_check(
        X3_MINUS_X, X3_MINUS_X.derivative(), ExponentialSignal.of((1.0, 1.0), (1.0, 3.0)),
        t_max=10.0
    )
    assert residual <= 1e-8


def test_derivative_identity_random_signals():
    rg = corpus.rng(82)
    for _ in range(15):
        m = rg.randint(2, 4)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=2))
        q = corpus.nonzero_poly(rg, m - 1)
        signal = ExponentialSignal.of(
            *[(complex(rg.uniform(-1, 1), rg.uniform(-1, 1)), rg.uniform(-3, 3))
              for _ in range(3)]
        )
        assert derivative_identity_check(p, q, signal, t_max=10.0) <= 1e-8


def test_chain_bound_closed_form_signal():
    result = chain_bound_check(Polynomial.exact([1, 0, 0, 0]), 0,
                               ExponentialSignal.of((1.0, 1.0)))
    assert result.passed


def test_chain_bound_kernel_trajectory():
    traj = propagate(X2_MINUS_1, [1, 1], 10.0, 2000)
    result = chain_bound_check(X2_MINUS_1, 0, traj)
    assert result.passed
    # p(D_t)u = 0 along the trajectory, so the derivative side is flat zero
    assert abs(result.derivative_margin) < 1e-6


def test_chain_bound_random_stages():
    rg = corpus.rng(83)
    for _ in range(10):
        m = rg.randint(2, 4)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=2, min_gap=1))
        signal = ExponentialSignal.of(
            *[(complex(rg.uniform(-1, 1), rg.uniform(-1, 1)), rg.uniform(-2, 2))
              for _ in range(2)]
        )
        for j in range(m - 1):
            result = chain_bound_check(p, j, signal)
            assert result.passed, (p.coeffs, j, result)


def test_chain_bound_stage_guard():
    with pytest.raises(ValueError):
        chain_bound_check(X2_MINUS_1, 1, ExponentialSignal.of((1.0, 1.0)))


def propagate_by_steps(p, U0, T, steps):
    """The per-time-step propagation that ``propagate`` does in one product."""
    Am = companion_matrix(p.as_float())
    m = Am.shape[0]
    U0 = np.asarray(U0, dtype=complex)
    times = np.linspace(0.0, float(T), steps + 1)
    try:
        profile = real_roots(p.as_float(), imag_tol=1e-7)
    except NonHyperbolicError:
        profile = None
    roots = [float(r) for r in profile.flattened] if profile is not None else []
    gaps = [b - a for a, b in zip(roots, roots[1:])]
    scale = max(1.0, max((abs(r) for r in roots), default=1.0))
    if profile is not None and profile.is_strict and (not gaps or min(gaps) > 1e-6 * scale):
        R = np.vander(roots, m, increasing=True).T
        y = np.linalg.solve(R, U0)
        lam = np.array(roots)
        return np.array([R @ (np.exp(1j * lam * t) * y) for t in times])
    expm = pytest.importorskip("scipy.linalg").expm
    step = expm(1j * Am * (times[1] - times[0]))
    states = np.empty((len(times), m), dtype=complex)
    states[0] = U0
    for k in range(1, len(times)):
        states[k] = step @ states[k - 1]
    return states


def energy_by_rows(p, q, states):
    """The per-state energy that ``energy_series`` scores in one product."""
    H = np.asarray(bezout_matrix(p.as_float(), q.as_float()), dtype=float)
    return np.array([np.vdot(U, H @ U).real for U in states])


def relative_gap(new, old) -> float:
    return float(np.max(np.abs(new - old))) / max(1.0, float(np.max(np.abs(old))))


# two strict inputs, then two that take the expm branch
@pytest.mark.parametrize("roots", [[-2, -1, 0.5, 1, 3], [-3, -1, 2],
                                   [-1, -1, 2], [-2, 0.5, 0.5, 3]])
def test_vectorised_propagation_and_energy_match_the_step_loops(roots):
    p = Polynomial.from_roots(roots).as_float()
    q = p.derivative()
    rg = np.random.default_rng(len(roots))
    U0 = rg.uniform(-1, 1, len(roots)) + 1j * rg.uniform(-1, 1, len(roots))
    traj = propagate(p, U0, 10.0, 400)
    reference = propagate_by_steps(p, U0, 10.0, 400)
    assert relative_gap(traj.states, reference) <= 1e-12
    series = energy_series(p, q, traj)
    assert relative_gap(series.values, energy_by_rows(p, q, traj.states)) <= 1e-12


# float_forms-like multiple-root inputs: halves up to +-6 with double or
# triple roots; their step matrices 1j h A at the CLI's default h = 10/400
# have 1-norms 0.06, 0.16, 10.5, 134, 1736 and 6616
EXPM_ROOTS = [
    [0.5, 0.5, -1.0, 1.5, 0.0],
    [-0.5, -0.5, -0.5, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0],
    [-2.0, -2.0, -1.0, 0.5, 1.5, 2.5, 2.5, 2.5, 3.0],
    [-3.5, -3.5, -2.0, -0.5, 1.0, 2.5, 4.0, 4.0, 4.5],
    [-5.5, -4.0, -4.0, -4.0, 0.5, 2.0, 3.5, 5.0, 5.0],
    [-6.0, -6.0, -6.0, -4.5, -3.0, 1.0, 3.0, 5.5, 5.5],
]


def step_matrix(roots) -> np.ndarray:
    return 1j * companion_matrix(Polynomial.from_roots(roots).as_float()) * (10.0 / 400)


def relative_error(got, want) -> float:
    return float(np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1))


@pytest.mark.parametrize("roots", EXPM_ROOTS)
def test_expm_matches_a_60_digit_reference(roots):
    mpmath = pytest.importorskip("mpmath")
    M = step_matrix(roots)
    with mpmath.workdps(60):
        want = np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=complex)
    assert relative_error(_expm(M), want) <= 1e-15


@pytest.mark.parametrize("roots", EXPM_ROOTS)
def test_expm_agrees_with_scipy(roots):
    expm = pytest.importorskip("scipy.linalg").expm
    M = step_matrix(roots)
    assert relative_error(_expm(M), expm(M)) <= 2e-15


@pytest.mark.parametrize("roots", EXPM_ROOTS)
def test_balancing_is_an_exact_power_of_two_similarity(roots):
    M = step_matrix(roots)
    B, d = _balance(M)
    assert np.all(np.frexp(d)[0] == 0.5)  # every factor is a power of two
    assert np.array_equal(B, M / d[:, None] * d[None, :])


def test_expm_edge_cases():
    # the Pade solve may divide by b_0 through its reciprocal: within one ulp of 1
    assert np.allclose(_expm(np.zeros((3, 3), dtype=complex)), np.eye(3), rtol=0, atol=2**-52)
    with pytest.raises(ValueError, match="float64 range"):
        _expm(np.array([[0, 1], [np.inf, 0]], dtype=complex))


# seeds of 2-5 little-endian 32-bit words: past four, the pool mixes each further word in
MULTI_WORD_SEEDS = (2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**96 + 7, 2**128 + 5, 2**130 + 12345,
                    2**160 - 1)


@pytest.mark.parametrize("seeds, n, low, high", [
    (range(2000), 3, -3.0, 3.0),  # as energy draws its test frequencies
    (MULTI_WORD_SEEDS, 3, -3.0, 3.0),
    (MULTI_WORD_SEEDS, 9, 0.0, 1.0),
])
def test_uniform_draws_match_numpy_bit_for_bit(seeds, n, low, high):
    for seed in seeds:
        want = np.random.default_rng(seed).uniform(low, high, n).tolist()
        assert [x.hex() for x in _uniform_draws(seed, n, low, high)] == [x.hex() for x in want]


def test_uniform_draws_refuse_a_negative_seed_with_numpys_message():
    with pytest.raises(ValueError) as numpys:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as ours:
        _uniform_draws(-1, 3, -3.0, 3.0)
    assert str(ours.value) == str(numpys.value) == "expected non-negative integer"
