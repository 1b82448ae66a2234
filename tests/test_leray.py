"""Power-sum symmetrizer: determinant laws and the relation to the Bezout form."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
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
from bezoutian import exactla
from bezoutian.exactla import IntMatrix, adjugate, det, is_adjugate_product, max_abs
from test_exactla import reference_adjugate

X2_MINUS_1 = Polynomial.exact([1, 0, -1])
X3_MINUS_X = Polynomial.exact([1, 0, -1, 0])


def test_power_sum_matrix_examples():
    assert power_sum_matrix(X2_MINUS_1).tolist() == [[2, 0], [0, 2]]
    assert power_sum_matrix(X3_MINUS_X).tolist() == [[3, 0, 2], [0, 2, 0], [2, 0, 2]]
    assert power_sum_matrix(Polynomial.exact([1, 0, 0])).tolist() == [[2, 0], [0, 0]]


def test_leray_symmetrizer_examples():
    sym = leray_symmetrizer(X2_MINUS_1)
    assert sym.adjugate.tolist() == [[2, 0], [0, 2]]
    assert sym.symmetry_defect == 0
    assert det(sym.adjugate) == 4
    assert sym.definiteness.is_pd

    sym3 = leray_symmetrizer(X3_MINUS_X)
    assert sym3.det_power_sum_gram == 4
    assert det(sym3.adjugate) == 16  # (det S)^(m-1)

    singular = leray_symmetrizer(Polynomial.exact([1, 0, 0]))
    assert singular.adjugate.tolist() == [[0, 0], [0, 2]]
    assert det(singular.adjugate) == 0
    assert not singular.definiteness.is_pd


def test_det_power_sum_gram_equals_discriminant():
    rg = corpus.rng(71)
    for _ in range(30):
        m = rg.randint(2, 6)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=3))
        assert leray_symmetrizer(p).det_power_sum_gram == discriminant(p)


def test_symmetrizes_companion_for_any_monic_input():
    rg = corpus.rng(72)
    for _ in range(40):
        m = rg.randint(1, 6)
        p = corpus.monic_poly(rg, m)  # hyperbolicity not needed for the algebra
        sym = leray_symmetrizer(p)
        assert sym.symmetry_defect == 0
        assert symmetrization_defect(sym.adjugate, companion_matrix(p).fractions) == 0


def test_adjugate_determinant_law():
    rg = corpus.rng(73)
    for _ in range(30):
        m = rg.randint(2, 5)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        sym = leray_symmetrizer(p)
        assert det(sym.adjugate) == sym.det_power_sum_gram ** (m - 1)


def test_positive_definite_iff_strict():
    rg = corpus.rng(74)
    for _ in range(30):
        m = rg.randint(2, 5)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        assert leray_symmetrizer(p).definiteness.is_pd == profile.is_strict


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@example(3, 1)  # roots of multiplicities (1, 1, 1): rank S = m
@example(3, 0)  # (1, 2): rank S = m - 1
@example(6, 0)  # (2, 4): rank S = m - 2
@example(10, 0)  # (4, 1, 4, 1): rank S = m - 6
def test_b_from_s_is_the_adjugate_with_its_own_certificates(m, seed):
    profile = corpus.hyperbolic_profile(corpus.rng(seed), m, max_mult=4)
    sym = leray_symmetrizer(Polynomial.from_roots(profile))
    B = sym.adjugate_ints
    assert sym.adjugate.tolist() == reference_adjugate(sym.power_sum_ints.fractions.tolist())
    ldl = exactla._integer_psd(B.rows, B.den)
    assert (sym.definiteness.is_psd, sym.definiteness.is_pd) == (ldl.is_psd, ldl.is_pd)
    assert sym.det_adjugate == det(sym.adjugate) == sym.det_power_sum_gram ** (m - 1)


def spy(monkeypatch, name) -> list:
    """Log the first argument of every call of ``exactla.<name>``."""
    calls, original = [], getattr(exactla, name)

    def logged(*args):
        calls.append(tuple(map(tuple, args[0])))
        return original(*args)

    monkeypatch.setattr(exactla, name, logged)
    return calls


@pytest.mark.parametrize("p", [
    Polynomial.from_roots([1, 1, 1]),
    Polynomial.from_roots([Fraction(1, 2)] * 2 + [-3] * 2 + [5]),
    Polynomial.from_roots([Fraction(-7, 3)] * 4 + [2] * 4 + [0, 6]),
    Polynomial.exact([1, -1, 2, -2, 1, -1]),  # (x^2 + 1)^2 (x - 1): complex roots
])
def test_no_adjugate_is_computed_when_gcd_of_p_and_its_derivative_has_degree_2(monkeypatch, p):
    runs = spy(monkeypatch, "_faddeev_adjugate")
    sym = leray_symmetrizer(p)
    assert runs == []
    assert sym.adjugate.tolist() == reference_adjugate(sym.power_sum_ints.fractions.tolist())
    assert (sym.det_power_sum_gram, sym.det_adjugate, sym.definiteness.is_pd) == (0, 0, False)


@pytest.mark.parametrize("p, pd", [
    (Polynomial.from_roots([-2, 1, 3, Fraction(7, 2)]), True),
    (Polynomial.from_roots([Fraction(k, 3) for k in range(-5, 6)]), True),
    (Polynomial.exact([1, -2, 1, -2]), False),  # (x^2 + 1)(x - 2): S indefinite
    (Polynomial.exact([1, 0, 0, -2]), False),  # x^3 - 2
])
def test_nonsingular_s_certifies_b_without_eliminating_it(monkeypatch, p, pd):
    runs = spy(monkeypatch, "_integer_psd")
    sym = leray_symmetrizer(p)
    B = sym.adjugate_ints
    assert runs == [sym.power_sum_ints.rows] and sym.definiteness.is_pd == pd
    assert exactla._integer_psd(B.rows, B.den).is_pd == pd


def test_the_product_check_rejects_an_adjugate_off_by_one():
    sym = leray_symmetrizer(Polynomial.from_roots([-2, 1, 3, Fraction(7, 2)]))
    S, B, det_s = sym.power_sum_ints, sym.adjugate_ints, sym.det_power_sum_gram
    assert is_adjugate_product(S, B, det_s)
    assert not is_adjugate_product(S, B, det_s + 1)
    for i, j in [(0, 0), (1, 2), (3, 0)]:
        rows = [list(row) for row in B.rows]
        rows[i][j] += 1
        assert not is_adjugate_product(S, IntMatrix(tuple(map(tuple, rows)), B.den), det_s)


def test_a_b_the_product_check_rejects_is_eliminated(monkeypatch):
    monkeypatch.setattr(exactla, "is_adjugate_product", lambda *args: False)
    runs = spy(monkeypatch, "_integer_psd")
    sym = leray_symmetrizer(Polynomial.from_roots([-2, 1, 3]))
    assert runs == [sym.adjugate_ints.rows] and sym.definiteness.method == "ldl-pivot"
    assert sym.det_adjugate == det(sym.adjugate) == sym.det_power_sum_gram ** 2


def test_adjugate_equals_bezout_for_quadratics():
    rg = corpus.rng(75)
    for _ in range(60):
        roots = [corpus.rational(rg, -6, 6) for _ in range(2)]
        p = Polynomial.from_roots(roots)
        B = leray_symmetrizer(p).adjugate
        H = bezout_matrix(p, p.derivative()).fractions
        assert (B == H).all()


def test_h_b_relation_examples():
    assert h_b_relation_check(X2_MINUS_1) <= 1e-12
    assert h_b_relation_check(X3_MINUS_X) <= 1e-10
    p = Polynomial.exact([1, 0, -4])
    assert h_b_relation_check(p) <= 1e-12
    B = leray_symmetrizer(p).adjugate
    H = bezout_matrix(p, p.derivative()).fractions
    assert (B == H).all()


def test_h_b_relation_vanishes_on_multiple_roots():
    # S H(p, p') = p'(A)^2 holds for every monic p, so no root condition applies
    for p in (Polynomial.exact([1, 0, 0]), Polynomial.from_roots([1, 1, -2]),
              Polynomial.from_roots([Fraction(1, 3)] * 3 + [Fraction(-5, 2)] * 2)):
        assert h_b_relation_check(p) == 0.0


def vandermonde_relation_residual(p: Polynomial, roots) -> float:
    """Max-norm of H R diag(p'(root)^-2) R^-1 - B / delta^2 in float64.

    The root-based form of the relation for strict p: B = delta^2 S^-1 and
    the Vandermonde R of the roots diagonalizes the companion matrix.
    """
    pf = p.as_float()
    roots = [float(r) for r in roots]
    m = len(roots)
    H = np.asarray(bezout_matrix(pf, pf.derivative()), dtype=float)
    R = np.vander(roots, m, increasing=True).T
    dp = pf.derivative()
    D = np.diag([1.0 / dp(lam) ** 2 for lam in roots])
    delta = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            delta *= roots[j] - roots[i]
    B = np.asarray(leray_symmetrizer(p).adjugate, dtype=float)
    lhs = np.linalg.solve(R.T, (H @ R @ D).T).T
    return float(np.max(np.abs(lhs - B / delta**2)))


def horner_at_companion(f: Polynomial, A) -> np.ndarray:
    m = A.shape[0]
    out = corpus.fraction_matrix(np.zeros((m, m), dtype=int))
    I = corpus.fraction_matrix(np.eye(m, dtype=int))
    for c in f.coeffs:
        out = out @ A + c * I
    return out


@settings(max_examples=60, deadline=None)
@given(corpus.factored_parts(max_linear=3))
def test_leray_identities_hold_on_corpus_products(parts):
    p = corpus.factor_product(*parts)
    p = p * (1 / p.leading)
    S, H = power_sum_matrix(p), bezout_matrix(p, p.derivative()).fractions
    M = horner_at_companion(p.derivative(), companion_matrix(p).fractions)
    assert (S @ H == M @ M).all()
    assert (det(S) * H == adjugate(S) @ M @ M).all()
    assert h_b_relation_check(p) == 0.0


def test_h_b_relation_matches_the_vandermonde_residual_on_strict_input():
    # on float input the identity passes wherever the root-based residual did
    rg = corpus.rng(76)
    for _ in range(30):
        profile = corpus.strict_profile(rg, rg.randint(2, 10))
        p = Polynomial.from_roots(profile)
        assert h_b_relation_check(p) == 0.0
        pf = p.as_float()
        if vandermonde_relation_residual(pf, profile.flattened) <= 1e-10:
            assert h_b_relation_check(pf) <= 1e-10


def test_entries_polynomial_in_coefficients():
    # same coefficients, two construction routes, identical exact entries;
    # and a small coefficient perturbation moves entries only a little
    p = Polynomial.from_roots([Fraction(-1), Fraction(1, 2), Fraction(2)])
    q = Polynomial.exact(p.coeffs)
    assert (power_sum_matrix(p) == power_sum_matrix(q)).all()
    assert (leray_symmetrizer(p).adjugate == leray_symmetrizer(q).adjugate).all()
    delta = Fraction(1, 10**9)
    bumped = Polynomial.exact(
        [p.coeffs[0]] + [c + delta for c in p.coeffs[1:]]
    )
    diff = max_abs(leray_symmetrizer(bumped).adjugate - leray_symmetrizer(p).adjugate)
    assert diff < Fraction(1, 10**6)
