"""Uniform-in-eps bounds for the smoothed Bezout symmetrizer family."""

import collections
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from bezoutian import (
    Polynomial,
    QuasiVerdict,
    bezout_matrix,
    check_conditions,
    commutator_decomposition,
    companion_matrix,
    default_epsilon_grid,
    nuij_transform,
    quasi,
    symmetrization_defect,
    verify_quasi,
)
from bezoutian.cli import main
from bezoutian.quasi import _sample_pairs, _sample_ratios

X_SQUARED = Polynomial.exact([1, 0, 0])
GRID = (1.0, 10**-0.5, 0.1, 10**-1.5, 0.01, 10**-2.5, 1e-3, 10**-3.5, 1e-4)


def closed_form_H(eps):
    return np.array([[4 * eps**2, 2 * eps], [2 * eps, 2.0]])


def test_conditions_closed_form_for_double_root():
    cond = check_conditions(X_SQUARED, GRID, r=1, s=1)
    # |p_eps'| = 2 eps at both roots and |q_eps| / (eps |p_eps'|) is 0 or 2
    assert cond.c_lower == pytest.approx(2.0, rel=1e-9)
    assert cond.C_upper == pytest.approx(2.0, rel=1e-9)


def test_conditions_strict_polynomial_r_zero():
    cond = check_conditions(Polynomial.exact([1, 0, -1]), GRID, r=0, s=1)
    # as eps -> 0 the floor approaches min |p'(root)| = 2
    assert cond.c_lower > 0
    assert cond.rows[-1][1] == pytest.approx(2.0, rel=1e-3)


def test_conditions_fail_for_understated_exponent():
    # r = 0 on a double root: |p_eps'(root)| = 2 eps dives with the grid
    cond = check_conditions(X_SQUARED, GRID, r=0, s=1)
    assert cond.c_lower <= 2e-4 * (1 + 1e-9)


def test_commutator_decomposition_closed_form():
    eps = 0.1
    parts = commutator_decomposition(X_SQUARED, eps)
    assert parts.Q_eps == pytest.approx(np.array([[0.0, 0.0], [0.0, 2 * eps]]))
    assert np.sort(np.abs(parts.S_eps[-1])) == pytest.approx(np.array([0.0, 2 * eps]))
    assert parts.reconstruction_residual <= 1e-9


def test_commutator_decomposition_offset_quadratic():
    eps = 0.1
    parts = commutator_decomposition(Polynomial.exact([1, 0, -1]), eps)
    # q_eps = -2 eps x, so the last row of Q_eps is (0, 2 eps)
    assert parts.Q_eps == pytest.approx(np.array([[0.0, 0.0], [0.0, 2 * eps]]))


def test_decomposition_residual_at_unit_scale():
    # the 1e-9 identity residual across the whole grid, on unit-scale families
    for coeffs in ([1, 0, 0], [1, 0, 0, 0], [1, -1, 0, 0], [1, 0, -1, 0]):
        p = Polynomial.exact(coeffs)
        for eps in GRID:
            parts = commutator_decomposition(p, eps)
            assert parts.reconstruction_residual <= 1e-9


def test_decomposition_residual_across_grid():
    rg = corpus.rng(61)
    for _ in range(10):
        m = rg.randint(2, 5)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=3))
        # conditioning: root error of an off-origin multiple root grows like
        # 1/eps^(mult-1), so the float identity loosens as eps shrinks
        scale = max(1.0, max(abs(float(c)) for c in p.coeffs))
        for eps in GRID:
            parts = commutator_decomposition(p, eps)
            assert parts.reconstruction_residual <= scale * max(1e-9, 1e-12 / eps)


def test_closed_forms_for_double_root_family():
    for eps in (1.0, 0.1, 0.01):
        p_eps = nuij_transform(X_SQUARED.as_float(), eps)
        H = np.asarray(bezout_matrix(p_eps, p_eps.derivative()).matrix, float)
        assert np.max(np.abs(H - closed_form_H(eps))) <= 1e-12
        A = np.asarray(companion_matrix(X_SQUARED.as_float()).matrix, float)
        K = H @ A - A.T @ H
        expected_K = np.array([[0.0, 4 * eps**2], [-(4 * eps**2), 0.0]])
        assert np.max(np.abs(K - expected_K)) <= 1e-12


def test_exact_family_symmetrization_identity():
    # H_eps A_eps - A_eps^T H_eps = 0 exactly for rational eps
    rg = corpus.rng(62)
    for _ in range(10):
        m = rg.randint(2, 5)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=3))
        for eps in (Fraction(1), Fraction(1, 10), Fraction(1, 100)):
            p_eps = nuij_transform(p, eps)
            H = bezout_matrix(p_eps, p_eps.derivative())
            A = companion_matrix(p_eps)
            assert symmetrization_defect(H, A) == 0


def test_verify_quasi_double_root():
    v = verify_quasi(X_SQUARED, GRID, r=1, s=1, seed=3)
    assert v.uniform_pass
    assert v.sampling_consistent
    # commutator constant is exactly 2 for this family
    assert np.allclose(v.commutator_constants, 2.0, atol=1e-9)
    assert min(v.lower_bound_constants) == pytest.approx(3 - np.sqrt(5), rel=1e-9)
    assert max(v.lower_bound_constants) == pytest.approx(2.0, rel=1e-6)


def test_quasi_for_multiplicity_exponents():
    assert verify_quasi(X_SQUARED, GRID).r == 1
    assert verify_quasi(Polynomial.exact([1, 0, -1]), GRID).r == 0
    assert verify_quasi(Polynomial.exact([1, 0, 0, 0]), GRID).r == 2


def test_quasi_lower_bound_scales_with_exponent():
    # for x^3 with r = 2 the per-eps constants approach 12 from below
    v = verify_quasi(Polynomial.exact([1, 0, 0, 0]), GRID[2:], r=2, s=1, seed=5)
    assert v.lower_bound_constants[-1] == pytest.approx(12.0, rel=1e-6)
    assert v.uniform_pass


def test_sampling_never_exceeds_certified_norm():
    rg = corpus.rng(63)
    for _ in range(6):
        m = rg.randint(2, 5)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=2))
        v = verify_quasi(p, GRID[::2], samples=40, seed=7)
        assert v.sampling_consistent
        for sampled, certified in zip(v.sample_max_ratios, v.commutator_constants):
            assert sampled <= certified * (1 + 1e-6) + 1e-9


def test_zero_lower_constant_is_not_uniform():
    # sigma_min(G_eps) = 0 at one grid point: no C gives the lower bound there
    v = QuasiVerdict(1, 1, (1.0, 0.1, 0.01), (2.0, 0.0, 2.0), (2.0, 2.0, 2.0),
                     (0.0, 0.0, 0.0), True)
    assert v.lower_decay == math.inf
    assert not v.uniform_pass
    nan = QuasiVerdict(1, 1, (1.0, 0.1), (2.0, float("nan")), (2.0, 2.0), (0.0, 0.0), True)
    assert nan.lower_decay == math.inf
    assert not nan.uniform_pass


def test_uniformity_is_one_sided_and_ordered_by_eps():
    # the lower constant may rise and the commutator constant may fall as eps shrinks
    v = QuasiVerdict(1, 1, (1.0, 0.1, 0.01), (0.5, 6.0, 12.0), (4000.0, 40.0, 1.0),
                     (0.0, 0.0, 0.0), True)
    assert (v.lower_decay, v.commutator_growth) == (1.0, 1.0)
    assert v.uniform_pass
    # the same constants listed along an ascending grid read the same way
    up = QuasiVerdict(1, 1, (0.01, 0.1, 1.0), (12.0, 6.0, 0.5), (1.0, 40.0, 4000.0),
                      (0.0, 0.0, 0.0), True)
    assert (up.lower_decay, up.commutator_growth) == (1.0, 1.0)
    # the reverse drift fails by its largest factor over eps-ordered pairs
    bad = QuasiVerdict(1, 1, (0.01, 1.0, 0.1), (0.5, 12.0, 6.0), (4000.0, 1.0, 40.0),
                       (0.0, 0.0, 0.0), True)
    assert bad.lower_decay == pytest.approx(24.0)
    assert bad.commutator_growth == pytest.approx(4000.0)
    assert not bad.uniform_pass


def test_reversed_grid_gives_the_same_verdict():
    for coeffs, r, s in (([1, 0, 0, 0], None, 1), ([1, 0, 0, 0], 1, 1),
                         ([1, 0, 0], None, 2), ([1, 0, -1, 0], None, 1)):
        p = Polynomial.exact(coeffs)
        down = verify_quasi(p, GRID, r=r, s=s, seed=0)
        up = verify_quasi(p, GRID[::-1], r=r, s=s, seed=0)
        assert up.uniform_pass == down.uniform_pass
        assert up.lower_decay == pytest.approx(down.lower_decay, rel=1e-9)
        assert up.commutator_growth == pytest.approx(down.commutator_growth, rel=1e-9)


def loop_sampling(rng, samples, H, K, eps_s):
    """The sampling cross-check one sample at a time, as verify_quasi once ran it.

    Returns (z, w, ratio) per sample, with ratio None where the sample does
    not count.
    """
    out = []
    for _ in range(samples):
        z = rng.standard_normal(len(H)) + 1j * rng.standard_normal(len(H))
        w = rng.standard_normal(len(H)) + 1j * rng.standard_normal(len(H))
        num = abs(np.vdot(w, K @ z))
        den = eps_s * np.sqrt(np.vdot(z, H @ z).real * np.vdot(w, H @ w).real)
        out.append((z, w, num / den if den > 0 else None))
    return out


def sampling_cases():
    """(p, grid, r, s, samples, seed) of the verify_quasi calls above."""
    cases = [(X_SQUARED, GRID, 1, 1, 24, 3),
             (Polynomial.exact([1, 0, 0, 0]), GRID[2:], 2, 1, 24, 5)]
    rg = corpus.rng(63)
    for _ in range(6):
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, rg.randint(2, 5), max_mult=2))
        cases.append((p, GRID[::2], None, 1, 40, 7))
    for coeffs, r, s in (([1, 0, 0, 0], None, 1), ([1, 0, 0, 0], 1, 1),
                         ([1, 0, 0], None, 2), ([1, 0, -1, 0], None, 1)):
        cases.append((Polynomial.exact(coeffs), GRID, r, s, 24, 0))
    return cases


def test_batched_sampling_draws_and_scores_as_the_sample_loop():
    # one draw for the whole grid follows the per-sample stream, point after point
    for p, grid, r, s, samples, seed in sampling_cases():
        verdict = verify_quasi(p, grid, r=r, s=s, samples=samples, seed=seed)
        loop_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        parts = commutator_decomposition(p, verdict.epsilons)
        H = np.swapaxes(parts.G_eps, -1, -2) @ parts.G_eps
        K = H @ parts.A - np.swapaxes(parts.A, -1, -2) @ H
        eps_s = np.array([eps**s for eps in verdict.epsilons])
        m = H.shape[-1]
        Z, W = _sample_pairs(batch_rng, len(grid), samples, m)
        assert Z.shape == W.shape == (len(grid), samples, m)
        ratios = _sample_ratios(Z, W, H, K, eps_s)
        consistent = True
        for e, comm_const in enumerate(verdict.commutator_constants):
            loop = loop_sampling(loop_rng, samples, H[e], K[e], eps_s[e])
            worst = 0.0
            for k, (z, w, ratio) in enumerate(loop):
                assert (Z[e, k].tobytes(), W[e, k].tobytes()) == (z.tobytes(), w.tobytes())
                if ratio is None:
                    assert np.isnan(ratios[e, k])
                    continue
                # the products sum in another order: a few ulps apart
                assert ratios[e, k] == pytest.approx(ratio, rel=1e-12, abs=0)
                worst = max(worst, ratio)
            if worst > comm_const * (1 + 1e-6) + 1e-9:
                consistent = False
        assert verdict.sampling_consistent == consistent


def test_batched_sampling_edge_counts():
    rng = np.random.default_rng(0)
    for samples in (0, -3):
        Z, W = _sample_pairs(rng, 2, samples, 3)
        assert Z.shape == W.shape == (2, 0, 3)
    # the stream goes on where the empty block left it
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()
    # a pair with a zero quadratic form does not count
    H = np.diag([1.0, 0.0])
    K = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ratios = _sample_ratios(np.array([[0, 1j], [1, 1]]), np.array([[1, 0], [1, 0]]), H, K, 1.0)
    assert np.isnan(ratios[0]) and ratios[1] == pytest.approx(1.0)
    assert verify_quasi(X_SQUARED, GRID[:2], r=1, samples=0).sample_max_ratios == (0.0, 0.0)


def test_a_family_point_with_merged_roots_raises_value_error():
    # at eps = 1e-16 the float roots 0 and -2e-16 of x^2 + 2 eps x merge, and
    # p_eps' vanishes at the merged root that both conditions divide by
    with pytest.raises(ValueError, match="merged roots"):
        check_conditions(X_SQUARED, (1e-16,))
    with pytest.raises(ValueError, match="merged roots"):
        commutator_decomposition(X_SQUARED, 1e-16)


def bits(value):
    """A value with every float and array as its bytes, for equality bit for bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    return value


def outcome(call):
    """The bits of call(), or the type and message of what it raises."""
    try:
        return "returned", bits(call())
    except Exception as exc:  # every failure must match the reference's
        return type(exc), str(exc)


def grid_slices(parts) -> list:
    """The (A, A_eps, Q_eps, S_eps, G_eps, residual) of each eps of a grid decomposition."""
    return [(parts.A[i], parts.A_eps[i], parts.Q_eps[i], parts.S_eps[i], parts.G_eps[i],
             float(parts.reconstruction_residual[i])) for i in range(len(parts.A))]


def one_eps_outcomes(p, grid, decompose) -> list:
    """decompose(p, eps) per eps in grid order, up to the first error."""
    out = []
    for eps in grid:
        out.append(outcome(lambda: decompose(p, eps)))
        if out[-1][0] != "returned":
            break
    return out


QUASI_EPS = st.one_of(st.sampled_from(default_epsilon_grid()
                                      + (0.0, -0.5, 1e300, 1e-16, 1e-300, Fraction(1, 3))),
                      st.floats(1e-6, 10))


@settings(max_examples=60, deadline=None)
@given(corpus.multiple_root_polys(), st.lists(QUASI_EPS, max_size=6),
       st.sampled_from([0, 1, 2, 0.5, 40, None]), st.sampled_from([1, 2, 0.5, 200]))
@example(X_SQUARED, [1.0, 1e-16, 0.1], 1, 1)          # merged roots at 1e-16
@example(X_SQUARED, [0.1, 1e-16, 1e300], 1, 1)        # merged before a point past the range
@example(X_SQUARED, [1e-3, 1e-16], 200, 1)            # eps**400 underflows before the merge
@example(Polynomial.from_roots([1, 1, 2]), [0.5, -0.5, 1e-16], 40, 1)
@example(Polynomial.from_roots([1, 1, 2]), list(default_epsilon_grid())[::-1], None, 1)
def test_grid_kernels_equal_the_per_eps_reference(p, grid, r, s):
    # every value bit for bit, and the first failing eps raises what it raises alone
    def fresh():
        return Polynomial(p.coeffs, p.backend)

    r_conditions = 0 if r is None else r
    assert outcome(lambda: dataclasses.astuple(check_conditions(fresh(), grid, r_conditions, s))) \
        == outcome(lambda: corpus.conditions_reference(fresh(), grid, r_conditions, s))
    assert outcome(lambda: dataclasses.astuple(verify_quasi(fresh(), grid, r=r, s=s, samples=8,
                                                            seed=3))) \
        == outcome(lambda: corpus.verify_quasi_reference(fresh(), grid, r, s, 8, 3))
    want = one_eps_outcomes(fresh(), grid, corpus.decomposition_reference)
    assert one_eps_outcomes(fresh(), grid, lambda q, eps: dataclasses.astuple(
        commutator_decomposition(q, eps))) == want
    whole = outcome(lambda: grid_slices(commutator_decomposition(fresh(), grid)))
    if want and want[-1][0] != "returned":
        assert whole == want[-1]
    else:
        assert whole == ("returned", tuple(v for _, v in want))


def test_a_cli_quasi_request_builds_g_and_the_decomposition_once(monkeypatch, capsys):
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("lagrange_basis_matrix", "commutator_decomposition"):
        monkeypatch.setattr(quasi, name, counted(name, getattr(quasi, name)))
    assert main(["quasi", "--poly", "[1,0,-3,0,3,0,-1]"]) == 0
    capsys.readouterr()
    assert calls == {"lagrange_basis_matrix": 1, "commutator_decomposition": 1}
