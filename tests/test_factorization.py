"""Vandermonde/G-matrix factorizations, interpolation weights and separation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from bezoutian import (
    DegreeMismatchError,
    NonHyperbolicError,
    Polynomial,
    RootProfile,
    bezout_matrix,
    companion_matrix,
    derivative_bound_constant,
    factorization_bundle,
    lagrange_basis_matrix,
    lagrange_weights,
    real_roots,
    separates,
    separation_lower_bound_check,
)
from bezoutian import exactla
from bezoutian.factorization import _weighted_gram
from bezoutian.scalars import BACKEND_FLOAT
from test_exactla import reference_psd

X2_MINUS_1 = Polynomial.exact([1, 0, -1])
X3_MINUS_X = Polynomial.exact([1, 0, -1, 0])


def test_basis_matrix_examples():
    assert lagrange_basis_matrix([1, -1]).tolist() == [[-1, -1], [-1, 1]]
    assert lagrange_basis_matrix([-1, 0, 1]).tolist() == [
        [0, -1, 1],
        [1, 0, -1],
        [0, 1, 1],
    ]
    repeated = lagrange_basis_matrix([0, 0])
    # both rows are +-(coefficients of x)
    for row in repeated:
        assert [abs(v) for v in row] == [0, 1]


def vandermonde(roots) -> np.ndarray:
    """R[i][j] = roots[j]**i, exact on rational roots."""
    return np.vander(np.array(roots, dtype=object), increasing=True).T


def test_companion_times_vandermonde_is_diagonal_scaling():
    rg = corpus.rng(41)
    for _ in range(30):
        m = rg.randint(2, 6)
        profile = corpus.strict_profile(rg, m)
        roots = profile.flattened
        p = Polynomial.from_roots(profile)
        A = companion_matrix(p).fractions
        R = vandermonde(roots)
        AR = A @ R
        for j, lam in enumerate(roots):
            for i in range(m):
                assert AR[i, j] == lam * R[i, j]


def test_basis_times_vandermonde_diagonal_positive():
    # G @ R = diag with entries |p'(root)| for ascending simple roots
    rg = corpus.rng(42)
    for _ in range(30):
        m = rg.randint(2, 6)
        profile = corpus.strict_profile(rg, m)
        roots = profile.flattened
        p = Polynomial.from_roots(profile)
        dp = p.derivative()
        GR = lagrange_basis_matrix(roots) @ vandermonde(roots)
        for i in range(m):
            for j in range(m):
                if i == j:
                    assert GR[i, j] == abs(dp(roots[i]))
                else:
                    assert GR[i, j] == 0


def test_lagrange_weights_examples():
    assert lagrange_weights(X2_MINUS_1, Polynomial.exact([2, 0])) == (1, 1)
    assert lagrange_weights(X2_MINUS_1, Polynomial.exact([1, 0])) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    # multiple root goes through the reduced path
    weights = lagrange_weights(Polynomial.exact([1, 0, 0]), Polynomial.exact([2, 0]))
    assert weights == (2,)


def fraction_horner(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def reference_weights(q: Polynomial, profile: RootProfile) -> tuple:
    """b(lambda_k) / a_k(lambda_k) over Fractions, a_k the deleted-root factor."""
    roots = list(profile.distinct_roots)
    b = q
    for lam, r in zip(roots, profile.multiplicities):
        for _ in range(r - 1):
            b, rem = divmod(b, Polynomial.exact([1, -lam]))
            assert rem.is_zero
    return tuple(fraction_horner(b.coeffs, lam)
                 / fraction_horner(corpus.deleted_root_factor(roots, k).coeffs, lam)
                 for k, lam in enumerate(roots))


@pytest.mark.parametrize("strict", [True, False])
def test_exact_lagrange_weights_equal_the_deleted_root_factor_reference(strict):
    rg = corpus.rng(71 if strict else 72)
    for _ in range(40):
        m = rg.randint(1, 7)
        profile = corpus.strict_profile(rg, m) if strict else corpus.hyperbolic_profile(rg, m)
        p = Polynomial.from_roots(profile)
        q = corpus.separating_q(rg, profile)
        weights = lagrange_weights(p, q)
        assert weights == reference_weights(q, profile)
        assert all(type(w) is Fraction for w in weights)


def test_lagrange_weights_keep_their_errors():
    p = Polynomial.exact([1, 0, 0])  # x^2: the root 0 twice
    with pytest.raises(ValueError, match="does not vanish"):
        lagrange_weights(p, Polynomial.exact([1, 1]))


@pytest.mark.parametrize("p", [
    Polynomial.exact([1, Fraction(1e308), Fraction(1e308)]),  # a root near -1e308
    Polynomial.exact([1, -2 ** 1023, -1]),  # a root next to 2^1023
])
def test_lagrange_weights_where_p_prime_overflows_at_a_float_root(p):
    # p' is infinite at the big float root in float arithmetic, and inf / inf
    # gave a NaN weight; the ratio at the root's exact dyadic value is 1
    assert lagrange_weights(p, p.derivative()) == (1.0, 1.0)


def test_a_lagrange_weight_past_the_float_range_raises_value_error():
    # q = 10^300 x is infinite in float arithmetic at the roots a +- sqrt(2)
    # of p = (x - a)^2 - 2, and the weights 10^300 (a +- sqrt(2)) / (+-2 sqrt(2))
    # at their exact dyadic values lie past the float64 range
    a = 10 ** 10
    p = Polynomial.exact([1, -2 * a, a * a - 2])
    with pytest.raises(ValueError, match="the Lagrange weight at root .* leaves the float64 range"):
        lagrange_weights(p, Polynomial.exact([Fraction(1e300), 0]))


def test_factorization_bundle_examples():
    b = factorization_bundle(X2_MINUS_1, Polynomial.exact([2, 0]))
    assert b.residual == 0
    assert _weighted_gram(b.basis_matrix, b.weights).tolist() == [[2, 0], [0, 2]]
    b = factorization_bundle(X2_MINUS_1, Polynomial.exact([1, 0]))
    assert _weighted_gram(b.basis_matrix, b.weights).tolist() == [[1, 0], [0, 1]]
    b = factorization_bundle(X3_MINUS_X, Polynomial.exact([3, 0, -1]))
    assert _weighted_gram(b.basis_matrix, b.weights).tolist() == [[1, 0, -1], [0, 2, 0], [-1, 0, 3]]
    assert b.weights == (1, 1, 1)


def test_factorization_bundle_random_exact():
    rg = corpus.rng(43)
    for _ in range(40):
        m = rg.randint(2, 6)
        profile = corpus.strict_profile(rg, m)
        p = Polynomial.from_roots(profile)
        q = corpus.nonzero_poly(rg, m - 1)
        b = factorization_bundle(p, q)
        assert b.residual == 0


def test_factorization_bundle_float_residual():
    rg = corpus.rng(44)
    for _ in range(25):
        m = rg.randint(2, 6)
        roots = sorted(rg.uniform(-3, 3) for _ in range(m))
        if min(y - x for x, y in zip(roots, roots[1:])) < 0.2:
            continue
        p = Polynomial.from_roots(roots)
        q = Polynomial([rg.uniform(-2, 2) for _ in range(m)], BACKEND_FLOAT)
        if q.is_zero:
            continue
        b = factorization_bundle(p, q)
        assert float(b.residual) <= 1e-8


def test_factorization_requires_simple_roots():
    from bezoutian import MultipleRootError

    with pytest.raises(MultipleRootError):
        factorization_bundle(Polynomial.exact([1, 0, 0]), Polynomial.exact([2, 0]))


def test_reduced_factorization_matches_bezout_with_multiplicities():
    # sum_k w_k phi_k phi_k^T = H for q built by the separation rule,
    # phi_k = prod_j (x - root_j)^(mult_j - delta_jk)
    rg = corpus.rng(45)
    for _ in range(40):
        m = rg.randint(2, 6)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        q = corpus.separating_q(rg, profile)
        weights = lagrange_weights(p, q)
        total = corpus.fraction_matrix(np.zeros((m, m), dtype=int))
        for k in range(len(profile.distinct_roots)):
            flat = []
            for j, (root, mult) in enumerate(zip(profile.distinct_roots, profile.multiplicities)):
                flat.extend([root] * (mult - (1 if j == k else 0)))
            phi = Polynomial.from_roots(flat) if flat else Polynomial((1,))
            v = phi.ascending(m)
            for i in range(m):
                for jj in range(m):
                    total[i, jj] += weights[k] * v[i] * v[jj]
        H = bezout_matrix(p, q).fractions
        assert (total == H).all()


def test_separates_examples():
    cert = separates(X2_MINUS_1, Polynomial.exact([1, 0]))
    assert cert.separates and cert.constant_c == Fraction(1, 2)
    cert = separates(Polynomial.exact([1, 0, 0]), Polynomial.exact([2, 0]))
    assert cert.separates  # single-root case: q carries the root once
    cert = separates(X2_MINUS_1, Polynomial.exact([1, -2]))
    assert not cert.separates and "interlacing" in cert.failure_reason


def test_separates_guards():
    with pytest.raises(DegreeMismatchError):
        separates(X2_MINUS_1, Polynomial.exact([1, 0, 0]))
    # a q with complex roots does not separate; it is no fault of p
    cert = separates(Polynomial.exact([1, 0, -1, 0, 0]), Polynomial.exact([1, 0, 0, 1]))
    assert not cert.separates and "interlacing" in cert.failure_reason
    with pytest.raises(NonHyperbolicError):
        separates(Polynomial.exact([1, 0, 1]), Polynomial.exact([1, 0]))


@pytest.mark.parametrize("backend", ["exact", "float64"])
def test_separates_complex_q_fails_without_raising(backend):
    p, q = X3_MINUS_X, Polynomial.exact([1, 0, 1])
    if backend == "float64":
        p, q = p.as_float(), q.as_float()
    cert = separates(p, q)
    assert not cert.separates and cert.constant_c is None
    if backend == "float64":
        assert cert.failure_reason.startswith("q is not real rooted: ")


def test_separates_exact_root_tie_is_decided_exactly():
    # sqrt(2) = 1.41421356237309504..., between the two decimals below, which
    # round to adjacent float64 values around it
    p = Polynomial.exact([1, 0, -2])
    inside = separates(p, Polynomial.exact([1, -Fraction(14142135623730950, 10**16)]))
    assert inside.separates, inside.failure_reason
    outside = separates(p, Polynomial.exact([1, -Fraction(14142135623730951, 10**16)]))
    assert not outside.separates and "interlacing" in outside.failure_reason


def test_separates_exact_reasons_come_from_the_forms():
    p = Polynomial.from_roots([-1, 0, 1])
    cert = separates(p, Polynomial.from_roots([2, 3]))
    assert "interlacing" in cert.failure_reason and "negative diagonal" in cert.failure_reason
    # q vanishes at the simple root 1 and leaves the gap (0, 1) empty: H(p, q)
    # is PSD, of rank 2 against rank 3 for (p, p')
    cert = separates(p, Polynomial.from_roots([Fraction(-1, 2), 1]))
    assert not cert.separates
    assert "rank H(p, q) = 2" in cert.failure_reason
    assert "rank H(p, p') = 3" in cert.failure_reason
    # the sign is checked first, whatever the roots of q
    cert = separates(p, -1 * Polynomial.from_roots([2, 3]))
    assert cert.failure_reason == "negative leading coefficient"


def test_separates_negative_leading_coefficient():
    cert = separates(X2_MINUS_1, Polynomial.exact([-1, 0]))
    assert not cert.separates
    assert cert.leading_sign == -1
    assert "leading" in cert.failure_reason


def test_separates_boundary_tie_float():
    p = Polynomial([1, 0, -1], BACKEND_FLOAT)
    q = Polynomial([1, -(1 - 1e-12)], BACKEND_FLOAT)
    cert = separates(p, q, tol=1e-9)
    assert not cert.separates


def test_derivative_separates_p():
    rg = corpus.rng(46)
    for _ in range(25):
        m = rg.randint(2, 6)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        cert = separates(p, p.derivative(), tol=1e-9)
        assert cert.separates, cert.failure_reason


def test_separation_equivalence_small_corpus():
    rg = corpus.rng(47)
    tiny = Fraction(1, 10**9)
    for _ in range(30):
        m = rg.randint(2, 6)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        good = corpus.separating_q(rg, profile)
        cert = separates(p, good)
        assert cert.separates
        assert separation_lower_bound_check(p, good, cert.constant_c)
        for mode in ("outside", "crowded", "onroot", "negative",
                     "overcarry", "undercarry", "complex"):
            bad = corpus.non_separating_q(rg, profile, mode)
            if bad is None:
                continue
            cert = separates(p, bad)
            assert not cert.separates, (mode, profile)
            assert not separation_lower_bound_check(p, bad, tiny), mode


def test_derivative_bound_examples():
    b = derivative_bound_constant(X2_MINUS_1)
    assert b.constant == Fraction(1, 2) and b.verified
    b = derivative_bound_constant(Polynomial.exact([1, 0, 0]))
    assert b.constant == Fraction(1, 2) and b.verified
    b = derivative_bound_constant(X3_MINUS_X)
    assert b.constant == Fraction(1, 3) and b.verified


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("irrational", [False, True])
def test_derivative_bound_certificate_on_integer_rows_matches_the_fraction_array(irrational,
                                                                                 above):
    # H - c v v^T >= 0 is decided on the integer rows of H and of v v^T as on
    # the Fraction array: it holds at c = 1/m and fails at c = 1/m + 1/m^2,
    # also beside the irrational pair of x^2 - k, which no root enters
    rg = corpus.rng(50)
    for _ in range(25):
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, rg.randint(2, 6), max_mult=3))
        if irrational:
            p = p * Polynomial.exact([1, 0, -rg.choice([2, 3, 5, 7])])
        m = int(p.degree)
        c = Fraction(1, m) + (Fraction(1, m * m) if above else 0)
        H = bezout_matrix(p, p.derivative())
        vv = np.outer(p.derivative().ascending(m), p.derivative().ascending(m))
        want = reference_psd(H.fractions - c * vv)[0]
        assert want == (not above)
        assert exactla.psd_difference(H, exactla.IntMatrix.of(vv), c).is_psd == want
        b = derivative_bound_constant(p)
        assert (b.constant, b.verified) == (Fraction(1, m), True)


def test_derivative_bound_on_complex_roots_is_unverified():
    # H(p, p') is indefinite for x^2 + 1, so no c certifies the bound
    b = derivative_bound_constant(Polynomial.exact([1, 0, 1]))
    assert (b.constant, b.verified) == (Fraction(1, 2), False)


def derivative_bound_by_ldl(p: Polynomial) -> bool:
    """H(p, p') - p' p'^T / m >= 0 at the exact value of monic p, on the integer rows.

    The LDL elimination that ``derivative_bound_constant`` ran before the
    Sturm chain of p decided the bound: with P the primitive ints of
    p' = k P, the bound is H - (k^2 / m) P P^T >= 0.
    """
    exact = p.as_exact()
    dp = exact.derivative()
    P, k = dp.primitive
    V = exactla.IntMatrix(tuple(tuple(u * w for w in P[::-1]) for u in P[::-1]))
    c = Fraction(1, int(exact.degree)) * k * k
    return exactla.psd_difference(bezout_matrix(exact, dp), V, c).is_psd


@settings(max_examples=80, deadline=None)
@given(corpus.factored_poly(max_linear=3), st.booleans())
def test_derivative_bound_is_verified_exactly_where_its_ldl_certificate_holds(p, decimal):
    # the quadratics of factored_poly give complex roots; a decimal p is
    # decided at the exact value of its float rounding, where a multiple root
    # may split off the real line
    p = p * (1 / p.leading)
    if decimal:
        p = Polynomial([float(c) for c in p.coeffs], BACKEND_FLOAT)
    b = derivative_bound_constant(p)
    assert b.constant == Fraction(1, int(p.degree))
    assert b.verified == derivative_bound_by_ldl(p)


def test_lagrange_weights_of_the_derivative_are_the_multiplicities():
    # p' = g sum_k r_k a_k, so w_k = r_k: exactly at a rational root, and to
    # float accuracy at a root of x^2 - 2
    rg = corpus.rng(51)
    for _ in range(20):
        profile = corpus.hyperbolic_profile(rg, rg.randint(2, 6), max_mult=3)
        p = Polynomial.from_roots(profile) * Polynomial.exact([1, 0, -2])
        found = real_roots(p)
        weights = lagrange_weights(p, p.derivative())
        for lam, r, w in zip(found.distinct_roots, found.multiplicities, weights):
            if type(lam) is Fraction:
                assert w == r and type(w) is Fraction
            else:
                assert abs(w - r) <= 1e-12 * r


def test_derivative_bound_random():
    rg = corpus.rng(48)
    for _ in range(25):
        m = rg.randint(2, 6)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        b = derivative_bound_constant(p)
        assert b.constant > 0
        assert b.verified


def test_deleted_factor_gram_matches_basis_product():
    # sign pattern of G rows cancels in squares: G^T G = sum_k v_k v_k^T,
    # which is the Bezout form of (p, p') for the monic p with these roots
    rg = corpus.rng(49)
    for _ in range(20):
        m = rg.randint(2, 6)
        roots = [corpus.rational(rg, -4, 4) for _ in range(m)]
        G = lagrange_basis_matrix(roots)
        assert all(type(v) is Fraction for v in G.flat)
        p = Polynomial.from_roots(roots)
        assert ((G.T @ G) == bezout_matrix(p, p.derivative()).fractions).all()
    G = lagrange_basis_matrix([0.5])
    assert G.dtype == float and G.tolist() == [[1.0]]
