"""Smoothing operator: transform, inversion, gap floors and interlacing."""

import contextlib
import importlib.util
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import corpus
from bezoutian import (
    GapCheck,
    Polynomial,
    RootProfile,
    bezout_matrix,
    build_family,
    certify_grid,
    default_epsilon_grid,
    gap_constant,
    invert_transform,
    is_hyperbolic,
    nuij_family,
    nuij_inverse_coeffs,
    nuij_transform,
    psd_check,
    real_roots,
    verify_gaps,
)
from bezoutian import nuij, roots
from bezoutian.cli import main
from bezoutian.errors import NonHyperbolicError
from bezoutian.nuij import (
    NuijFamilyPoint,
    _certify,
    _changes_sign,
    _float_horner,
    _float_signs,
    _int_stages,
    _midpoints,
    _sign_points,
    _simplest_rational,
    _stage_roots,
)
from bezoutian.polynomial import _int_horner
from bezoutian.roots import _hyperbolic_strict, _polish_roots, sturm_real_root_count
from bezoutian.scalars import BACKEND_FLOAT

EPS = Fraction(1, 10)


def test_transform_examples():
    assert nuij_transform(Polynomial.exact([1, 0, 0]), EPS).coeffs == (1, 2 * EPS, 0)
    assert nuij_transform(Polynomial.exact([1, 0, -1]), EPS).coeffs == (1, 2 * EPS, -1)
    out = nuij_transform(Polynomial.exact([1, 0, 0, 0]), EPS)
    assert out.coeffs == (1, 6 * EPS, 6 * EPS**2, 0)


def stage_poly(ints: list) -> Polynomial:
    """The monic exact polynomial of an integer stage of ``_int_stages``."""
    return Polynomial.exact([Fraction(v, ints[0]) for v in ints])


def test_the_stages_start_at_p_and_end_at_the_transform():
    # x^3 at eps = 1/10: P_1 = 10 x^3 + 3 x^2, P_2 = (100 x^3 + 60 x^2 + 6 x) / 2
    p = Polynomial.exact([1, 0, 0, 0])
    stages = _int_stages(p, EPS, 2)
    assert [list(ints) for ints in stages] == [[1, 0, 0, 0], [10, 3, 0, 0], [50, 30, 3, 0]]
    assert stage_poly(stages[-1]) == nuij_transform(p, EPS)


def derivative_sum_reference(p: Polynomial, eps: Fraction, applications: int) -> Polynomial:
    """sum_k C(n,k) eps^k p^(k) over Fraction polynomials."""
    out = Polynomial()
    for k in range(applications + 1):
        dk = p.derivative(k)
        if dk.is_zero:
            break
        out = out + math.comb(applications, k) * eps**k * dk
    return out


@settings(max_examples=100, deadline=None)
@given(corpus.factored_poly(max_linear=3),
       st.sampled_from([Fraction(1e-4), Fraction(1, 10), Fraction(-3, 7), Fraction(0), Fraction(2)]),
       st.data())
def test_transform_matches_derivative_sum(p, eps, data):
    got = nuij_transform(p, eps)
    assert got.coeffs == derivative_sum_reference(p, eps, max(int(p.degree) - 1, 0)).coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    # every stage, past the m - 1 of the transform too, is a positive
    # primitive multiple of its derivative sum
    count = data.draw(st.integers(0, int(p.degree) + 2))
    for k, ints in enumerate(_int_stages(p, eps, count)):
        want = derivative_sum_reference(p, eps, k)
        scale = want.leading / ints[0]
        assert scale > 0 and math.gcd(*ints) == 1
        assert tuple(scale * v for v in ints) == want.coeffs


def test_transform_exact_edge_cases():
    assert nuij_transform(Polynomial(), EPS).is_zero
    assert nuij_transform(Polynomial.exact([Fraction(-5, 3)]), EPS).coeffs == (Fraction(-5, 3),)
    assert [list(ints) for ints in _int_stages(Polynomial.exact([Fraction(-5, 3)]), EPS, 2)] \
        == [[-1]] * 3
    # integer eps; the default count is deg - 1
    p = Polynomial.exact([Fraction(1, 2), 0, 0, -1])
    assert nuij_transform(p, 2) == derivative_sum_reference(p, Fraction(2), 2)


def test_transform_float_epsilon_promotes_backend():
    out = nuij_transform(Polynomial.exact([1, 0, 0]), 0.1)
    assert out.backend == "float64"


def float_sum_reference(p: Polynomial, eps: float, applications: int) -> Polynomial:
    """The float transform as a sum of float64 Polynomials, term by term."""
    out = Polynomial((), BACKEND_FLOAT)
    for k in range(applications + 1):
        dk = p.derivative(k)
        if dk.is_zero:
            break
        out = out + math.comb(applications, k) * eps**k * dk
    return out


def float_poly(coeffs) -> Polynomial:
    return Polynomial(coeffs, BACKEND_FLOAT)


def float_bits(fn):
    """The hex of every coefficent fn() returns (signed zeros apart), or its error type."""
    try:
        return tuple(c.hex() for c in fn().coeffs)
    except OverflowError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
           st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=9)
           .map(float_poly),
           st.lists(st.floats(-100, 100), max_size=9).map(float_poly),
           corpus.factored_poly(max_linear=3)),
       st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-10, 10),
                 st.sampled_from([1e-4, 0.1, 0.0, -0.0, 5e-324])))
def test_float_transform_matches_the_polynomial_sum_bit_for_bit(p, eps):
    applications = max(len(p.coeffs) - 2, 0)  # deg p - 1, and 0 for the zero polynomial
    got = float_bits(lambda: nuij_transform(p, eps))
    assert got == float_bits(lambda: float_sum_reference(p.as_float(), eps, applications))


def float_inversion_reference(p_eps: Polynomial, eps: float) -> Polynomial:
    """The float inversion as a sum of float64 Polynomials, term by term."""
    out = p_eps
    for l, c in enumerate(nuij_inverse_coeffs(int(p_eps.degree)), start=1):
        term = p_eps.derivative(l)
        if term.is_zero:
            break
        out = out + float(c) * eps**l * term
    return out


@settings(max_examples=300, deadline=None)
@given(st.one_of(
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=9)
           .map(float_poly),
           st.lists(st.floats(-100, 100), min_size=3, max_size=9).map(float_poly),
           # signed zeros next to values whose products underflow
           st.lists(st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e-300, -1e-300, 1e300]),
                    min_size=3, max_size=9).map(float_poly),
           corpus.factored_poly(max_linear=3).map(lambda p: nuij_transform(p.as_float(), 0.01))),
       st.one_of(st.floats(0, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([1e-4, 0.1, 1e-30, 1e-160, 1e-170, 5e-324])))
def test_float_inversion_matches_the_polynomial_sum_bit_for_bit(p_eps, eps):
    # signed zeros included: the list route keeps the Polynomial product's
    # 0.0 + v * w entries and skips the leading zeros that Polynomial strips
    assume(p_eps.degree >= 2)
    got = float_bits(lambda: invert_transform(p_eps, eps))
    assert got == float_bits(lambda: float_inversion_reference(p_eps, eps))


def grid_bits(fn):
    """(backend, coefficients) of each Polynomial fn() returns, floats as hex, or its error type."""
    try:
        return [(q.backend, tuple(c.hex() if isinstance(c, float) else c for c in q.coeffs))
                for q in fn()]
    except (OverflowError, ValueError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.one_of(corpus.factored_poly(max_linear=3),
                 corpus.factored_poly(max_linear=3).map(Polynomial.as_float)),
       st.lists(st.one_of(st.sampled_from([1e-4, 0.1, 1e300, 5e-324, Fraction(1, 3), 2]),
                          st.floats(-10, 10)), max_size=6))
@example(Polynomial.exact([1, 0, -1, 0]), [0.5, Fraction(1, 3), 1e300])
def test_a_grid_transforms_and_inverts_as_each_eps_alone(p, grid):
    # each Polynomial of a grid call has the bits of its eps alone, exact and
    # float eps mixed, and the grid raises what its first failing eps raises
    want = grid_bits(lambda: [nuij_transform(p, eps) for eps in grid])
    assert grid_bits(lambda: nuij_transform(p, grid)) == want
    if isinstance(want, list):
        p_eps = nuij_transform(p, grid)
        assert grid_bits(lambda: invert_transform(p_eps, grid)) == \
            grid_bits(lambda: [invert_transform(q, eps) for q, eps in zip(p_eps, grid)])


def series_inverse_oracle(m: int) -> list:
    """Long division of 1 by (1+x)^(m-1), truncated after degree m."""
    denom = [1]
    for _ in range(m - 1):
        denom = [a + b for a, b in zip(denom + [0], [0] + denom)]
    coeffs = []
    rem = [Fraction(1)] + [Fraction(0)] * m
    for k in range(m + 1):
        c = rem[0]
        coeffs.append(c)
        rem = [r - c * Fraction(d) for r, d in zip(rem, denom + [0] * (m + 1 - len(denom)))]
        rem = rem[1:] + [Fraction(0)]
    return coeffs[1:]  # drop the constant term 1


def test_inverse_coeffs_examples():
    assert nuij_inverse_coeffs(1) == (0,)  # (1 + eps d/dx)^0 is the identity
    assert nuij_inverse_coeffs(2) == (-1, 1)
    assert nuij_inverse_coeffs(3) == (-2, 3, -4)


def test_inverse_coeffs_match_series_oracle():
    for m in range(2, 9):
        assert list(nuij_inverse_coeffs(m)) == series_inverse_oracle(m)


def test_inversion_identity_exact_random():
    rg = corpus.rng(51)
    for _ in range(60):
        m = rg.randint(2, 6)
        p = corpus.monic_poly(rg, m)
        eps = Fraction(rg.randint(1, 9), rg.randint(1, 9))
        assert invert_transform(nuij_transform(p, eps), eps) == p


def test_gap_constants():
    assert gap_constant(2) == 1.0
    assert gap_constant(3) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-15)
    # recursion oracle for the next stage, evaluated inline
    c3 = (3 - math.sqrt(5)) / 2
    expect = min(
        (k + c3 - math.sqrt((k + c3) ** 2 - 4 * c3)) / 2 for k in (2, 3)
    )
    assert gap_constant(4) == pytest.approx(expect, abs=1e-15)
    consts = [gap_constant(m) for m in range(2, 10)]
    assert all(a > b > 0 for a, b in zip(consts, consts[1:]))
    with pytest.raises(ValueError, match="m >= 2"):
        gap_constant(1)


def test_verify_gaps_examples():
    check = verify_gaps(Polynomial.exact([1, 0, 0]), 0.1)
    assert check.passed and check.min_gap_over_eps == pytest.approx(2.0, abs=1e-12)
    # quadratic-formula oracle: roots of x^3 + 6 e x^2 + 6 e^2 x are
    # 0 and (-3 +- sqrt(3)) e, so the minimal gap is (3 - sqrt(3)) e
    check = verify_gaps(Polynomial.exact([1, 0, 0, 0]), 0.1)
    assert check.passed
    assert check.min_gap_over_eps == pytest.approx(3 - math.sqrt(3), abs=1e-9)
    check = verify_gaps(Polynomial.exact([1, 0, -1]), 0.01)
    assert check.passed
    assert check.min_gap_over_eps * 0.01 == pytest.approx(2.0, abs=1e-4)


def test_exact_gap_for_quadratic():
    # rational route: x^2 + 2 e x factors exactly, gap is exactly 2 e
    eps = Fraction(1, 10)
    p_eps = nuij_transform(Polynomial.exact([1, 0, 0]), eps)
    prof = real_roots(p_eps)
    assert prof.flattened == (-2 * eps, 0)
    assert prof.flattened[1] - prof.flattened[0] == 2 * eps


def test_family_point_fields():
    fam = nuij_family(Polynomial.exact([1, 0, 0]), EPS)
    assert fam.q_eps.coeffs == (-2 * EPS, 0)
    assert fam.roots_eps.is_strict
    assert fam.p_eps.is_monic


def test_family_strictifies_multiplicities():
    rg = corpus.rng(52)
    for _ in range(20):
        m = rg.randint(2, 6)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=3))
        for eps in (1.0, 1e-1, 1e-2, 1e-3):
            v = is_hyperbolic(nuij_transform(p.as_float(), eps))
            assert v.is_hyperbolic and v.is_strict


# -- the grid kernel against the family point of each eps alone ------------------


def float_roots_reference(p: Polynomial) -> list:
    """The float roots of p from an eigvals call on its companion matrix alone, polished one by one."""
    pf = p.as_float()
    c = np.array(pf.coeffs, dtype=float)
    A = np.eye(len(c) - 1, k=1)
    A[-1, :] = -(c[1:] / c[0])[::-1]
    return [corpus.newton_polish_reference(pf, complex(z)) for z in np.linalg.eigvals(A)]


def family_point_reference(p: Polynomial, eps) -> tuple:
    """(p_eps, roots, q_eps) of eps alone: its own eigensolver call and a Polynomial sum."""
    try:
        p_eps = nuij_transform(p, eps)
        floats = p_eps.as_float()
        if not all(map(math.isfinite, floats.coeffs)):
            raise OverflowError("nonfinite coefficient")
        with mock.patch.object(roots, "_float_roots", float_roots_reference):
            roots_eps = real_roots(floats, 1e-12, imag_tol=1e-7)
    except OverflowError as exc:
        raise ValueError(f"smoothing family at eps={eps} leaves the float64 range") from exc
    except NonHyperbolicError as exc:
        raise ValueError(f"smoothing family at eps={eps} has complex roots in float64") from exc
    base = p if p.backend == p_eps.backend else p.as_float()
    return p_eps, roots_eps, base + (-1) * p_eps


def point_bits(p_eps, roots_eps, q_eps) -> tuple:
    def bits(values):
        return tuple(v.hex() if isinstance(v, float) else v for v in values)

    return (p_eps.backend, bits(p_eps.coeffs), bits(roots_eps.distinct_roots),
            roots_eps.multiplicities, q_eps.backend, bits(q_eps.coeffs))


def grid_outcomes(grid, point_of) -> list:
    """(eps, bits) per eps in grid order, up to the first error's (eps, type, message)."""
    out = []
    for eps in grid:
        try:
            out.append((eps, point_bits(*point_of(eps))))
        except Exception as exc:  # every failure must match the reference's
            out.append((eps, type(exc), str(exc)))
            break
    return out


GRID_EPS = st.one_of(st.sampled_from(default_epsilon_grid()
                                     + (0.0, -0.5, 1e300, 1e-300, 1e-12, Fraction(1, 3))),
                     st.floats(1e-6, 10))


@settings(max_examples=80, deadline=None)
@given(corpus.multiple_root_polys(), st.lists(GRID_EPS, min_size=1, max_size=9))
@example(Polynomial.from_roots([-228] * 3), list(default_epsilon_grid()))
@example(Polynomial.from_roots([Fraction(-233, 6)] * 3), [1.0, 1e-300, 1e300, 0.5])
@example(Polynomial.from_roots([1, 1, 2]), [0.5, 1e300, 0.25, -0.5])
@example(Polynomial.from_roots([1, 1, 2]), [0.5, -0.5, 0.25, Fraction(1, 3)])
def test_grid_kernel_builds_each_point_bit_for_bit_as_eps_alone(p, grid):
    # build_family raises the error that the first failing eps before the
    # first eps <= 0 raises alone; the per-eps calls after it raise at the
    # first failing eps, with the error that eps alone raises, and every point
    # before it has the bits of its own eigensolver call and per-root polish
    def kept_point(eps):
        point = nuij_family(p, eps)
        return point.p_eps, point.roots_eps, point.q_eps

    alone = Polynomial(p.coeffs, p.backend)
    want = grid_outcomes(grid, lambda eps: family_point_reference(alone, eps))
    positive = list(itertools.takewhile(lambda eps: eps > 0, grid))
    failure = want[-1][1:] if len(want[-1]) == 3 and len(want) <= len(positive) else None
    try:
        build_family(p, grid)
        raised = None
    except Exception as exc:  # the grid kernel must raise what the eps alone raises
        raised = (type(exc), str(exc))
    assert raised == failure
    assert grid_outcomes(grid, kept_point) == want


def test_grid_kernel_keeps_the_points_before_a_failure():
    p = Polynomial.from_roots([-228] * 3)
    grid = default_epsilon_grid()
    with pytest.raises(ValueError, match="complex roots"):
        build_family(p, grid)
    kept = [key[2] for key in p.memo if key[0] == "nuij"]
    assert kept == list(grid[:-1])  # the last eps fails and keeps nothing
    with pytest.raises(ValueError, match="complex roots"):
        nuij_family(p, grid[-1])


def test_a_failing_family_point_is_built_once(capsys):
    # (x + 228)^3 fails at the last eps of the default grid; build_family
    # raises there, so the per-eps loop of cmd_nuij never builds it again:
    # each eps is transformed once and the roots of its p_eps polished once
    transformed, polished = [], []

    def transform(p, eps):
        transformed.extend(np.atleast_1d(eps).tolist())
        return nuij_transform(p, eps)

    def polish(pf, zs):
        polished.append(pf)
        return _polish_roots(pf, zs)

    with mock.patch.object(nuij, "nuij_transform", transform), \
            mock.patch.object(nuij, "_polish_roots", polish):
        assert main(["nuij", "--poly", "[1,684,155952,11852352]"]) == 2
    assert transformed == list(default_epsilon_grid())
    assert len(polished) == len(transformed)
    assert "complex roots" in capsys.readouterr().err


def test_stagewise_gap_law():
    # after l-1 applications the lowest l roots are separated by c_l * eps;
    # exact transforms keep the intermediate multiple roots certifiable
    rg = corpus.rng(53)
    for _ in range(15):
        m = rg.randint(3, 6)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=3))
        for eps in (Fraction(1), Fraction(1, 100)):
            stages = _int_stages(p, eps, m - 1)
            for stage in range(2, m + 1):
                roots = sorted(
                    float(r) for r in
                    real_roots(stage_poly(stages[stage - 1])).flattened
                )
                floor = gap_constant(stage) * float(eps)
                slack = max(1e-12, 1e-6 * float(eps))
                for k in range(1, stage):
                    assert roots[k] - roots[k - 1] >= floor - slack


def test_interlacing_cascade():
    rg = corpus.rng(54)
    for _ in range(15):
        m = rg.randint(2, 5)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=3))
        eps = Fraction(rg.randint(1, 9), rg.choice([1, 10, 100]))
        prev = [float(r) for r in real_roots(p).flattened]
        for ints in _int_stages(p, eps, m - 1)[1:]:
            cur = [float(r) for r in real_roots(stage_poly(ints)).flattened]
            tiny = 1e-9 * max(1.0, max(abs(v) for v in prev + cur))
            for i in range(m):
                assert cur[i] <= prev[i] + tiny
                if i + 1 < m:
                    assert prev[i] <= cur[i + 1] + tiny
            prev = cur


@settings(max_examples=80, deadline=None)
@given(corpus.factored_poly(max_linear=3),
       st.sampled_from([Fraction(1e-4), Fraction(1, 10), Fraction(1), 1e-4]))
def test_certify_grid_agrees_with_the_bezout_forms_of_consecutive_stages(p, eps):
    # the paper's route: stage l+1 interlaces stage l iff H(p_l, p_(l+1)) >= 0;
    # a float eps is certified at its simplest rational, 1/10000 for 1e-4
    assume(p.degree <= 9)
    exact_eps = _simplest_rational(eps) if isinstance(eps, float) else eps
    stages = [p]
    for _ in range(int(p.degree) - 1):
        stages.append(derivative_sum_reference(stages[-1], exact_eps, 1))
    psd = [psd_check(bezout_matrix(cur, nxt)).is_psd for cur, nxt in zip(stages, stages[1:])]
    assert psd == [_hyperbolic_strict(cur)[0] for cur in stages[:-1]]
    interlaced, strict = certify_grid(p, (eps,))[0]
    assert interlaced == all(psd)
    hyperbolic = is_hyperbolic(p).is_hyperbolic
    assert interlaced == hyperbolic
    assert strict or not hyperbolic


@settings(max_examples=80, deadline=None)
@given(corpus.factored_poly(max_linear=3),
       st.sampled_from([Fraction(1e-4), Fraction(1, 10), Fraction(1), Fraction(7, 3)]))
def test_integer_stages_are_positive_multiples_of_the_fraction_chain(p, eps):
    assume(p.degree <= 9)
    chain = [p]
    for _ in range(int(p.degree) - 1):
        chain.append(derivative_sum_reference(chain[-1], eps, 1))
    stages = _int_stages(p, eps, int(p.degree) - 1)
    assert len(stages) == len(chain)
    for ints, stage in zip(stages, chain):
        scale = ints[0] / stage.leading
        assert scale > 0 and math.gcd(*ints) == 1
        assert [Fraction(v) for v in ints] == [scale * c for c in stage.coeffs]


def away_from_powers_of_two(x: float) -> bool:
    """x is not a power of two, where the float spacing below x halves."""
    return math.frexp(x)[0] != 0.5


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0, exclude_min=True, allow_infinity=False)
       .filter(away_from_powers_of_two))
def test_simplest_rational_rounds_to_x_with_the_least_denominator(x):
    r = _simplest_rational(x)
    assert float(r) == x
    if r.denominator > 1:
        # the closest fraction with a smaller denominator lies outside the
        # rounding interval of x, so no smaller denominator rounds to x
        assert float(Fraction(x).limit_denominator(r.denominator - 1)) != x


def test_simplest_rational_examples():
    assert _simplest_rational(1e-4) == Fraction(1, 10000)
    assert _simplest_rational(0.1) == Fraction(1, 10)
    assert _simplest_rational(1 / 3) == Fraction(1, 3)
    assert _simplest_rational(2.0) == 2
    assert float(_simplest_rational(5e-324)) == 5e-324
    huge = _simplest_rational(1.7976931348623157e308)
    assert huge.denominator == 1 and huge < Fraction(1.7976931348623157e308)
    assert float(huge) == 1.7976931348623157e308
    # the default grid lands off the decimals: 1e-4 itself is not on it
    bits = [_simplest_rational(e).denominator.bit_length() for e in default_epsilon_grid()]
    assert bits == [1, 28, 4, 31, 7, 31, 52, 33, 52]


@settings(max_examples=40, deadline=None)
@given(st.builds(lambda seed, m: Polynomial.from_roots(
                     corpus.hyperbolic_profile(corpus.rng(seed), m)),
                 st.integers(0, 10**6), st.integers(2, 7)),
       st.sampled_from(default_epsilon_grid() + (0.1, 1e-4, 2.5)))
def test_certify_grid_float_eps_agrees_with_its_dyadic_value(p, x):
    # for hyperbolic p every eps > 0 gives (True, True), so the rational
    # certified for a float eps moves no verdict
    assert certify_grid(p, (x,))[0] == certify_grid(p, (Fraction(x),))[0] == (True, True)


def stage_reference(p: Polynomial, eps) -> tuple[bool, bool]:
    """The stage certificate from the verdict of every stage, each built as a Polynomial."""
    exact_eps = _simplest_rational(eps) if isinstance(eps, float) else Fraction(eps)
    stages = [p.as_exact()]
    for _ in range(int(p.degree) - 1):
        stages.append(derivative_sum_reference(stages[-1], exact_eps, 1))
    interlaced = all(_hyperbolic_strict(stage)[0] for stage in stages[:-1])
    return interlaced, sturm_real_root_count(stages[-1]) == p.degree


@settings(max_examples=150, deadline=None)
@given(corpus.factored_poly().filter(lambda p: 1 <= p.degree <= 9),
       st.sampled_from(default_epsilon_grid() + (Fraction(1, 10), Fraction(7, 3), 1)))
def test_certify_grid_equals_the_verdicts_of_its_stages(p, eps):
    # the Cauchy index of stage l against stage l + 1 stands in for the chain
    # of every odd stage; non-hyperbolic p are drawn too
    assert certify_grid(p, (eps,))[0] == stage_reference(p, eps)


def chain_of(coeffs) -> list:
    return roots._int_sturm_chain(list(Polynomial.exact(coeffs).primitive[0]))[0]


@pytest.mark.parametrize("a, b", [(1, 1), (1, 10000), (7, 3), (3, 7)])
def test_the_index_of_x_proves_its_stage_strict(a, b):
    # x against b x + a: the sequence b x + a, x, -1 drops one variation
    x = Polynomial.exact([1, 0])
    assert _int_stages(x, Fraction(a, b), 1)[1] == [b, a]
    assert nuij._next_stage(chain_of(x.coeffs)) == (True, True)
    assert _hyperbolic_strict(Polynomial.exact([b, a])) == (True, True)


@pytest.mark.parametrize("power", [2, 4])
@pytest.mark.parametrize("r", [0, Fraction(-5, 2), 3])
def test_the_index_leaves_strictness_to_the_stage_after_a_repeated_root(power, r):
    # the chain of (x - r)^k proves p_1 hyperbolic but ends at a gcd of degree
    # k - 1, so it cannot prove p_1 strict; the last stage, which follows a
    # stage with a repeated root at k = 2 and 4, runs its own count
    p = Polynomial.from_roots([r] * power)
    ends = chain_of(p.coeffs)
    assert nuij._next_stage(ends) == (True, False)
    stage = derivative_sum_reference(p, EPS, 1)
    assert _hyperbolic_strict(stage) == (True, power == 2)
    assert certify_grid(p, (EPS,))[0] == (True, True)


def test_the_index_of_a_stage_that_is_not_hyperbolic_decides_nothing():
    # control: (x^2 + 1)(x - 1) has a complex pair, so the index proves nothing
    p = Polynomial.exact([1, 0, 1]) * Polynomial.exact([1, -1])
    assert nuij._next_stage(chain_of(p.coeffs)) is None
    assert certify_grid(p, (Fraction(1, 10),))[0] == stage_reference(p, Fraction(1, 10))


def with_complex_pair(p: Polynomial, k: int) -> Polynomial:
    """p (x^2 + k): not hyperbolic for k > 0."""
    return p * Polynomial.exact([1, 0, k]) if k else p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7), st.integers(0, 3),
       st.sampled_from(default_epsilon_grid() + (0.1, Fraction(1, 10), Fraction(7, 3), 1)))
def test_certify_grid_equals_the_reference_with_and_without_the_family_point(seed, m, k, eps):
    # any multiplicity up to m, so stages with a repeated root run their
    # chains; k > 0 adds a complex pair.  The last stage reads the roots of
    # the family point when p keeps one and runs its own count otherwise
    rg = corpus.rng(seed)
    p = with_complex_pair(Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=m)), k)
    want = stage_reference(p, eps)
    assert certify_grid(p, (eps,))[0] == want
    with contextlib.suppress(ValueError, ArithmeticError):  # a point that fails is not kept
        build_family(p, (eps,))
    assert certify_grid(p, (eps,))[0] == want


def stage_points(p: Polynomial, eps: Fraction):
    """The integer stages of p at eps and the float roots of stages 2, 3 and the last."""
    stages = _int_stages(p, eps, int(p.degree) - 1)
    return stages, _stage_roots([stages[2], stages[3], stages[-1]])


def chains_run(p: Polynomial, stages: list, seeds: dict, last) -> tuple:
    """_certify's verdict and the stages whose Sturm chains it ran, as
    certify_grid calls it: the float pass first, and again with every stage
    left to the exact signs, which must run the same chains."""
    roots._sturm_ends(p)  # p keeps its chain, as after a request's gate
    count = len(stages) - 1
    points = _sign_points(count, {l: seeds.get(l) for l in range(2, count, 2)}, last)
    tests = list(points.items())
    floats = _float_signs([(stages[l], xs) for l, xs in tests])
    runs = []
    for signed in ({l for (l, _), ok in zip(tests, floats) if ok}, set()):
        with mock.patch.object(nuij, "_int_sturm_chain", wraps=roots._int_sturm_chain) as chain:
            verdict = _certify(p, stages, points, signed)
        runs.append((verdict, [call.args[0] for call in chain.call_args_list]))
    assert runs[0] == runs[1]
    return runs[0]


def test_the_float_roots_certify_every_stage_of_a_strict_p():
    p = Polynomial.from_roots([0, 1, 2, 3, 4])
    stages, (r2, _, r_last) = stage_points(p, EPS)
    assert chains_run(p, stages, {2: r2}, r_last) == ((True, True), [])
    # without a family point the last stage runs its own count
    assert chains_run(p, stages, {2: r2}, ()) == ((True, True), [stages[-1]])


def test_a_seed_moved_across_a_root_of_the_odd_stage_falls_to_its_chain():
    # stage 3 is signed at the roots of stage 2; one of them moved left past
    # the root of stage 3 below it still separates stage 2 by its midpoints
    p = Polynomial.from_roots([0, 1, 2, 3, 4])
    stages, (r2, r3, r_last) = stage_points(p, EPS)
    moved = list(r2)
    moved[2] = 0.5 * r2[1] + 0.5 * r3[2]
    assert r2[1] < moved[2] < r3[2] < r2[2]
    assert _changes_sign(stages[2], _midpoints(moved))
    assert not _changes_sign(stages[3], moved)
    verdict, chains = chains_run(p, stages, {2: moved}, r_last)
    assert verdict == stage_reference(p, EPS) == (True, True)
    assert chains == [stages[3]]


def test_a_seed_moved_across_a_root_of_the_even_stage_falls_to_its_chain():
    # the chain of stage 2 certifies it, and its Cauchy index stage 3
    p = Polynomial.from_roots([0, 1, 2, 3, 4])
    stages, (r2, _, r_last) = stage_points(p, EPS)
    moved = sorted(r2[:2] + r2[3:] + [0.5 * r2[3] + 0.5 * r2[4]])
    assert not _changes_sign(stages[2], _midpoints(moved))
    verdict, chains = chains_run(p, stages, {2: moved}, r_last)
    assert verdict == stage_reference(p, EPS) == (True, True)
    assert chains == [stages[2]]


def test_a_last_stage_with_a_complex_pair_is_refused_and_counted():
    # (x^2 + 1)(x - 1)(x - 2)(x - 3): at eps = 1/10 the last stage keeps the
    # complex pair, and the midpoints of its real eigenvalue parts separate
    # its three real roots: 3 = m - 2 sign changes, which must not pass
    p = with_complex_pair(Polynomial.from_roots([1, 2, 3]), 1)
    stages, (_, _, r_last) = stage_points(p, EPS)
    assert sum(abs(z.imag) > 0.5 for z in np.roots([float(v) for v in stages[-1]])) == 2
    assert not _changes_sign(stages[-1], _midpoints(r_last))
    verdict, chains = chains_run(p, stages, {}, r_last)
    assert verdict == stage_reference(p, EPS) == (False, False)
    assert chains == [stages[-1]]


@pytest.mark.parametrize("roots_, points, want", [
    ([0, 1, 2, 3, 4], [-0.5, 0.5, 1.5, 2.5, 3.5], True),
    ([0, 1, 2, 3, 4], [-0.5, 0.5, 1.5, 3.5], False),  # one interval holds two roots
    ([0, 1, 2, 3, 4], [-0.5, 0.5, 1.0, 2.5, 3.5], False),  # a zero shows nothing
    ([0, 1, 2, 3, 4], [-0.5, 0.5, 1.5, 2.5, math.inf], False),  # nor does an overflow
    ([0, 1, 2], [-0.5, 0.5, 1.5, 2.5], False),  # x^2 + 1 times three real roots
    ([0, 1, 2], [0.5, 1.5], False),
    ([0, 1, 2], [-0.5, 0.5, -0.5, 0.5, 1.5], False),  # out of order: five changes
])
def test_sign_changes_certify_only_m_distinct_real_roots(roots_, points, want):
    p = Polynomial.from_roots(roots_)
    if len(roots_) == 3:
        p = with_complex_pair(p, 1)
    assert _changes_sign(list(p.primitive[0]), points) is want


def int_poly_of(roots_, scale: int) -> list:
    """scale times the product of (d x - n) over the roots n/d, as ints, leading first."""
    c = [scale]
    for r in roots_:
        c = [a * r.denominator - b * r.numerator for a, b in zip(c + [0], [0] + c)]
    return c


def float_signs_at(c: list, xs: list) -> list:
    """Each sign the float pass decides for c at xs (True for positive), None where it does not."""
    y, decided = _float_horner(np.array([[float(v) for v in c]]), np.array([xs], dtype=float))
    return [v > 0 if d else None for v, d in zip(y[0].tolist(), decided[0].tolist())]


def exact_sign(c: list, x: float):
    v = _int_horner(c, *x.as_integer_ratio())[0]
    return v > 0 if v else None


# roots that are small rationals, that sit near the subnormal range, or whose
# integer polynomial has coefficients near or past 2^1024
FILTER_ROOTS = st.one_of(
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9)),
    st.sampled_from([Fraction(1, 2**1000), Fraction(-3, 2**1010), Fraction(5, 2**1030),
                     Fraction(2**600 + 1, 2**600), Fraction(10**15 + 1, 10**15)]))
EXTRA_POINTS = [0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e-200, 7.5, -1e10]


def filter_points(roots_) -> list:
    """The roots as floats, one ulp beside each, the midpoints between them and a few others."""
    at = sorted(float(r) for r in roots_)
    beside = [math.nextafter(x, d) for x in at for d in (-math.inf, math.inf)]
    return at + beside + _midpoints(at) + EXTRA_POINTS


@settings(max_examples=300, deadline=None)
@given(st.lists(FILTER_ROOTS, min_size=1, max_size=16),
       st.sampled_from([1, -7, 2**600, 2**1000, 2**1100]))
@example([Fraction(k) for k in range(1, 17)], 1)
def test_every_sign_the_float_pass_decides_is_the_exact_sign(roots_, scale):
    c = int_poly_of(roots_, scale)
    points = filter_points(roots_)
    try:
        got = float_signs_at(c, points)
    except OverflowError:  # a coefficient past the float64 range: no test runs on floats
        assert max(abs(v) for v in c) >= 2**1024
        assert _float_signs([(c, sorted(points))]) == [False]
        return
    for x, sign in zip(points, got):
        if sign is not None:
            assert sign == exact_sign(c, x), x


@settings(max_examples=300, deadline=None)
@given(st.lists(FILTER_ROOTS, min_size=1, max_size=16, unique=True),
       st.sampled_from([1, -7, 2**600, 2**1100]), st.randoms(use_true_random=False))
def test_the_float_pass_proves_only_sign_changes_that_hold(roots_, scale, rng):
    c = int_poly_of(roots_, scale)
    at = sorted(float(r) for r in roots_)
    shuffled = _midpoints(at) + [math.nextafter(at[0], math.inf)]
    rng.shuffle(shuffled)
    for points in (_midpoints(at), at, shuffled, _midpoints(at)[:-1], _midpoints(at) + [math.inf]):
        if _float_signs([(c, points)]) == [True]:
            assert _changes_sign(c, points)


def test_float_horner_leaves_a_wrong_float_sign_undecided():
    # Wilkinson's polynomial prod (x - k), k = 1..20, one ulp below its root 1:
    # the exact value is positive, and plain float Horner reads -512
    c = int_poly_of([Fraction(k) for k in range(1, 21)], 1)
    x = math.nextafter(1.0, 0.0)
    plain = 0.0
    for v in c:
        plain = plain * x + float(v)
    assert exact_sign(c, x) is True and plain == -512.0
    assert float_signs_at(c, [x]) == [None]
    # halfway between the roots the ends are decided, and the middle is not:
    # at 10.5, |W| is 3.3e-15 of the sum of |c_i| |x|^i, inside the bound
    # 4 * 21 * 2^-53 = 9.3e-15; no decided sign is wrong
    halves = [k + 0.5 for k in range(0, 21)]
    got = float_signs_at(c, halves)
    assert got[:3] == [exact_sign(c, x) for x in halves[:3]] and got[10] is None
    assert all(sign in (None, exact_sign(c, x)) for x, sign in zip(halves, got))
    # prod (x - k), k = 1..8, is decided at every midpoint, and the pass proves its roots
    c8 = int_poly_of([Fraction(k) for k in range(1, 9)], 1)
    assert _float_signs([(c8, halves[1:8])]) == [True]


def load_bench_workloads():
    """bench/workloads.py, loaded as a module of its own name (its dataclasses look it up)."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_certify_grid_on_the_benchmark_inputs_equals_the_exact_signs():
    # the 112 nuij requests of smoothing_sweep at seed 21, each certified on
    # its family points as a request does; the all-exact verdicts run every
    # sign test through _changes_sign, with the float pass deciding nothing
    workload = load_bench_workloads().WORKLOADS["smoothing_sweep"]
    seconds = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                         .read_text())["run_seconds"]
    requests = [r for _, cycle in zip(range(workload.cycle_count(seconds)),
                                      workload.cycles(21)) for r in cycle if r.command == "nuij"]
    assert len(requests) == 112
    grid = default_epsilon_grid()
    certified = []
    for r in requests:
        p = Polynomial.from_coeff_list(json.loads(r.argv[2]))
        with contextlib.suppress(ValueError):  # such a request exits before the certificate
            build_family(p, grid)
            certified.append(p)
    with mock.patch.object(nuij, "_int_horner", wraps=nuij._int_horner) as horner:
        got = [certify_grid(p, grid) for p in certified]
    assert horner.call_count < 1000  # 16776 with every sign exact
    with mock.patch.object(nuij, "_float_signs", lambda tests: [False] * len(tests)):
        assert [certify_grid(p, grid) for p in certified] == got


def end_patterns(m: int):
    """Every (degree + 1, leading sign) sequence with strictly falling degrees from m."""
    for k in range(m + 1):
        for lower in itertools.combinations(range(m - 1, -1, -1), k):
            degrees = (m,) + lower
            for signs in itertools.product((True, False), repeat=len(degrees)):
                yield [(d + 1, s) for d, s in zip(degrees, signs)]


def test_the_index_of_every_hyperbolic_end_pattern_proves_the_next_stage():
    # _next_stage's index comparison cannot fail once _chain_verdict says
    # hyperbolic: the count m - g needs consecutive degrees and one leading
    # sign, and then the alternated signs drop by exactly m - g
    hyperbolic = 0
    for m in range(1, 6):
        for ends in end_patterns(m):
            if not roots._chain_verdict(ends)[0]:
                assert nuij._next_stage(ends) is None
                continue
            hyperbolic += 1
            degrees = [n for n, _ in ends]
            assert degrees == list(range(degrees[0], degrees[-1] - 1, -1))
            assert len({s for _, s in ends}) == 1
            assert nuij._next_stage(ends) == (True, degrees[-1] == 1)
    assert hyperbolic == 40


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=9).filter(lambda c: c[0] != 0))
def test_the_index_of_a_hyperbolic_integer_chain_proves_the_next_stage(ints):
    ends = roots._int_sturm_chain(ints)[0]
    if roots._chain_verdict(ends)[0]:
        assert nuij._next_stage(ends)[0]
    else:
        assert nuij._next_stage(ends) is None


def test_verify_gaps_fails_a_gap_below_its_floor():
    # a family point whose smallest gap lies in [c_m eps / 2, c_m eps - tol):
    # the check must fail, and would pass against half the floor
    p = Polynomial.exact([1, 0, 0, 0])
    eps = 0.1
    floor = gap_constant(3)
    gap = 0.75 * floor * eps
    tol = max(1e-12, 1e-6 * eps)
    assert floor * eps / 2 <= gap < floor * eps - tol
    point = nuij_family(p, eps)
    planted = RootProfile((-1.0, -1.0 + gap, 1.0), (1, 1, 1))
    p.memo[nuij._family_key(eps)] = NuijFamilyPoint(eps, point.p_eps, planted, point.q_eps)
    check = verify_gaps(p, eps)
    assert not check.passed and not check.marginal
    assert check.min_gap_over_eps == pytest.approx(0.75 * floor)


def test_verify_gaps_fails_a_merged_pair_by_its_zero_gap():
    # a family point whose float roots merged a pair still flattens to m
    # roots, and the pair's gap 0.0 fails the law outright, not as marginal
    p = Polynomial.exact([1, 0, 0, 0])
    eps = 0.1
    point = nuij_family(p, eps)
    planted = RootProfile((-1.0, 1.0), (2, 1))
    p.memo[nuij._family_key(eps)] = NuijFamilyPoint(eps, point.p_eps, planted, point.q_eps)
    assert verify_gaps(p, eps) == GapCheck(0.0, gap_constant(3), False, False)


def test_certify_grid_controls():
    # (x^2 + 1)(x - 1) is not hyperbolic, so stage 1 does not interlace it;
    # at eps = 1/10 its full transform keeps a complex pair too
    p = Polynomial.exact([1, 0, 1]) * Polynomial.exact([1, -1])
    assert certify_grid(p, (Fraction(1, 10),))[0] == (False, False)
    assert certify_grid(Polynomial.exact([1, 0, 0, 0]), (1e-4,))[0] == (True, True)
    assert certify_grid(Polynomial([1.0, -2.0, 1.0], BACKEND_FLOAT), (0.1,))[0] == (True, True)
    for eps in (0, -0.1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            certify_grid(Polynomial.exact([1, 0, 0]), (eps,))[0]


def test_coefficient_convergence_linear_in_eps():
    rg = corpus.rng(55)
    for _ in range(15):
        m = rg.randint(2, 6)
        p = corpus.monic_poly(rg, m)
        # K bounds the operator expansion: sum_k binom(m-1,k) ||p^(k)||_inf
        K = sum(
            math.comb(m - 1, k) * max(abs(float(c)) for c in p.derivative(k).coeffs)
            for k in range(1, m)
        )
        for eps in default_epsilon_grid():
            p_eps = nuij_transform(p.as_float(), eps)
            diff = max(
                abs(float(a) - float(b))
                for a, b in zip(p_eps.ascending(m + 1), p.as_float().ascending(m + 1))
            )
            assert diff <= K * eps * (1 + 1e-12)


def test_default_epsilon_grid_spans_four_decades():
    grid = default_epsilon_grid()
    assert len(grid) == 9
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(1e-4)
    ratios = [a / b for a, b in zip(grid, grid[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)
