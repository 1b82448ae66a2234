"""Polynomial arithmetic, symmetric functions and the two scalar backends."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from bezoutian import (
    BackendMismatchError,
    NonMonicError,
    Polynomial,
    RootProfile,
    power_sums,
)

X2_MINUS_1 = Polynomial.exact([1, 0, -1])
X3_MINUS_X = Polynomial.exact([1, 0, -1, 0])


def test_derivative_power_rule():
    assert X2_MINUS_1.derivative().coeffs == (2, 0)
    assert X3_MINUS_X.derivative().coeffs == (3, 0, -1)


def test_derivative_over_differentiation():
    assert Polynomial.exact([1, 0, 0]).derivative(3).is_zero
    assert Polynomial.zero().derivative().is_zero


def test_derivative_order_zero_and_negative():
    assert X2_MINUS_1.derivative(0) == X2_MINUS_1
    with pytest.raises(ValueError):
        X2_MINUS_1.derivative(-1)


def test_from_roots_expansion():
    assert Polynomial.from_roots([-1, 1]).coeffs == (1, 0, -1)
    assert Polynomial.from_roots([0, 0]).coeffs == (1, 0, 0)
    assert Polynomial.from_roots([-1, 0, 1]).coeffs == (1, 0, -1, 0)


def test_from_roots_accepts_profile_and_rejects_empty():
    profile = RootProfile((Fraction(-1), Fraction(1)), (1, 1))
    assert Polynomial.from_roots(profile) == X2_MINUS_1
    with pytest.raises(ValueError):
        Polynomial.from_roots([])


def test_ring_ops_examples():
    x2 = Polynomial.exact([1, 0, 0])
    eps = Fraction(1, 10)
    shifted = Polynomial.exact([1, 2 * eps, 0])
    assert (x2 - shifted).coeffs == (-2 * eps, 0)
    assert X3_MINUS_X(2) == 6
    assert Polynomial.exact([1, -1]) * Polynomial.exact([1, 1]) == X2_MINUS_1


def test_zero_polynomial_degree_sentinel():
    z = Polynomial.zero()
    assert z.degree == float("-inf")
    assert (X2_MINUS_1 - X2_MINUS_1).is_zero
    assert z(5) == 0


def test_backend_mismatch_raises():
    with pytest.raises(BackendMismatchError):
        X2_MINUS_1 + Polynomial.float64([1.0, 0.0])
    with pytest.raises(BackendMismatchError):
        X2_MINUS_1 * Polynomial.float64([1.0])


def test_exact_backend_rejects_bare_floats():
    with pytest.raises(TypeError):
        Polynomial.exact([1.5, 0])


def test_power_sums_examples():
    assert power_sums(X2_MINUS_1, 2) == [2, 0, 2]
    assert power_sums(X3_MINUS_X, 4) == [3, 0, 2, 0, 2]
    assert power_sums(Polynomial.exact([1, 0, 0]), 2) == [2, 0, 0]


def test_power_sums_requires_monic():
    with pytest.raises(NonMonicError):
        power_sums(Polynomial.exact([2, 0]), 1)


def test_power_sums_against_direct_summation():
    rg = corpus.rng(12)
    for _ in range(40):
        m = rg.randint(1, 8)
        roots = [corpus.rational(rg, -4, 4) for _ in range(m)]
        p = Polynomial.from_roots(roots)
        upto = 2 * m
        sums = power_sums(p, upto)
        for t in range(upto + 1):
            direct = sum(Fraction(r) ** t for r in roots)
            assert sums[t] == direct


def test_power_sums_float_close_to_direct():
    rg = corpus.rng(13)
    for _ in range(20):
        m = rg.randint(2, 8)
        roots = [rg.uniform(-3, 3) for _ in range(m)]
        p = Polynomial.from_roots(roots)
        sums = power_sums(p, 2 * m - 2)
        for t in range(2 * m - 1):
            direct = sum(r**t for r in roots)
            assert sums[t] == pytest.approx(direct, rel=1e-12, abs=1e-9)


small_coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=7)


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs)
def test_derivative_product_rule_exact(a, b):
    f, g = Polynomial.exact(a), Polynomial.exact(b)
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs)
def test_derivative_is_linear(a, b):
    f, g = Polynomial.exact(a), Polynomial.exact(b)
    assert (f + g).derivative() == f.derivative() + g.derivative()
    assert (3 * f).derivative() == 3 * f.derivative()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                min_size=1, max_size=6))
def test_from_roots_flatten_roundtrip(roots):
    p = Polynomial.from_roots(roots)
    assert p.is_monic
    for r in roots:
        assert p(r) == 0
    product = Polynomial.one()
    for r in roots:
        product = product * Polynomial.exact([1, -r])
    assert p == product


@settings(max_examples=40, deadline=None)
@given(small_coeffs, small_coeffs)
def test_divmod_recomposition(a, b):
    f, g = Polynomial.exact(a), Polynomial.exact(b)
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)
        return
    quo, rem = divmod(f, g)
    assert quo * g + rem == f
    assert rem.is_zero or rem.degree < g.degree


def test_ascending_padding():
    assert X2_MINUS_1.ascending() == (-1, 0, 1)
    assert X2_MINUS_1.ascending(5) == (-1, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        X2_MINUS_1.ascending(2)


def test_json_mixed_inputs_choose_float():
    p = Polynomial.from_coeff_list([1, 0.5])
    assert p.backend == "float64"
    q = Polynomial.from_coeff_list([1, "1/2"])
    assert q.backend == "exact"
    assert q.coeffs == (1, Fraction(1, 2))


def test_root_profile_validation():
    with pytest.raises(ValueError):
        RootProfile((1, 1), (1, 1))
    with pytest.raises(ValueError):
        RootProfile((2, 1), (1, 1))
    with pytest.raises(ValueError):
        RootProfile((0,), (0,))
    prof = RootProfile((Fraction(0),), (2,))
    assert prof.flattened == (0, 0)
    assert prof.max_multiplicity == 2
    assert not prof.is_strict
