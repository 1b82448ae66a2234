"""Bezout matrices, companion matrices, resultants and PSD certificates.

Oracles used here are independent of the synthetic-division construction:
bivariate evaluation of the defining identity at random rational points,
outer products of deleted-root factors, Faddeev-LeVerrier characteristic
polynomials, and explicit difference products over known roots.  The
integer kernels (Bezout division, symmetry and symmetrization defects, the
separation bound) are also compared with plain Fraction references kept
here, and the form of (p, p') with the deleted-factor gram it replaces.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from bezoutian import (
    DegreeMismatchError,
    IntMatrix,
    Polynomial,
    bezout_matrix,
    companion_matrix,
    difference_product,
    discriminant,
    leray_symmetrizer,
    nuij_family,
    psd_check,
    real_roots,
    resultant,
    resultant_sign,
    separates,
    separation_lower_bound_check,
    symmetrization_defect,
)
from bezoutian.exactla import det, symmetry_defect
from bezoutian.roots import DEFAULT_TOL
from bezoutian.scalars import BACKEND_FLOAT
from test_exactla import reference_psd

X2_MINUS_1 = Polynomial.exact([1, 0, -1])
X3_MINUS_X = Polynomial.exact([1, 0, -1, 0])


def eval_bivariate(H, x, y):
    m = H.shape[0]
    acc = Fraction(0)
    for i in range(m):
        for j in range(m):
            acc += Fraction(H[i, j]) * x**i * y**j
    return acc


def test_bezout_worked_examples():
    H = bezout_matrix(X2_MINUS_1, Polynomial.exact([2, 0])).fractions
    assert H.tolist() == [[2, 0], [0, 2]]
    H = bezout_matrix(X2_MINUS_1, Polynomial.exact([1, 0])).fractions
    assert H.tolist() == [[1, 0], [0, 1]]
    H = bezout_matrix(X3_MINUS_X, Polynomial.exact([3, 0, -1])).fractions
    assert H.tolist() == [[1, 0, -1], [0, 2, 0], [-1, 0, 3]]


def test_bezout_m3_equals_deleted_factor_outer_sum():
    # independent realization: H of (p, p') is sum_k v_k v_k^T
    roots = (-1, 0, 1)
    m = 3
    total = corpus.fraction_matrix(np.zeros((m, m), dtype=int))
    for k in range(m):
        v = corpus.deleted_root_factor(roots, k).ascending(m)
        for i in range(m):
            for j in range(m):
                total[i, j] += v[i] * v[j]
    H = bezout_matrix(X3_MINUS_X, X3_MINUS_X.derivative()).fractions
    assert (H == total).all()


def test_bezout_defining_identity_random():
    rg = corpus.rng(31)
    for _ in range(60):
        m = rg.randint(1, 6)
        p = corpus.monic_poly(rg, m)
        q = corpus.nonzero_poly(rg, m - 1) if m > 1 else Polynomial.exact([corpus.rational(rg) or 1])
        if q.is_zero:
            continue
        H = bezout_matrix(p, q).fractions
        for _ in range(4):
            x = corpus.rational(rg, -5, 5)
            y = corpus.rational(rg, -5, 5)
            lhs = (x - y) * eval_bivariate(H, x, y)
            rhs = p(x) * q(y) - p(y) * q(x)
            assert lhs == rhs


def test_bezout_diagonal_identity_random():
    # sum h_ij x^(i+j) = p'(x) q(x) - p(x) q'(x), exact over 500 random pairs
    rg = corpus.rng(32)
    for _ in range(500):
        m = rg.randint(1, 6)
        p = corpus.monic_poly(rg, m)
        q = corpus.nonzero_poly(rg, m - 1) if m > 1 else corpus.nonzero_poly(rg, 0)
        H = bezout_matrix(p, q).fractions
        for _ in range(10):
            x = corpus.rational(rg, -4, 4)
            lhs = eval_bivariate(H, x, x)
            rhs = p.derivative()(x) * q(x) - p(x) * q.derivative()(x)
            assert lhs == rhs


def test_bezout_antisymmetry_in_arguments():
    rg = corpus.rng(33)
    for _ in range(40):
        m = rg.randint(2, 6)
        p = corpus.monic_poly(rg, m)
        q = corpus.nonzero_poly(rg, m - 1)
        forward = bezout_matrix(p, q).fractions
        backward = bezout_matrix(q, p).fractions
        assert (forward == -backward).all()


def test_bezout_symmetry_and_float_path():
    pf = Polynomial([1, 0, -1], BACKEND_FLOAT)
    H = bezout_matrix(pf, pf.derivative())
    assert H == pytest.approx(np.array([[2.0, 0.0], [0.0, 2.0]]))


def test_float_form_past_the_float_range_raises_value_error():
    # the entry 1e200 * 1e200 is inf; NaN would pass the remainder and symmetry tests
    pf = Polynomial([1, 1e200, -1], BACKEND_FLOAT)
    with pytest.raises(ValueError, match="float64 range"):
        bezout_matrix(pf, pf.derivative())
    assert bezout_matrix(Polynomial.exact([1, 10**200, -1]), Polynomial.exact([2, 10**200]))


@pytest.mark.parametrize("coeffs", [(1, 0, -1), (1, Fraction(-1, 2), Fraction(-1, 2)),
                                    (1.0, 0.0, -1.0), (1.0, -0.5, -0.25, 0.125)])
def test_builders_return_an_int_matrix_or_a_read_only_float_array(coeffs):
    # one matrix type per backend, with no wrapper around it
    p = Polynomial.exact(coeffs) if isinstance(coeffs[0], int) else Polynomial(coeffs, BACKEND_FLOAT)
    for M in (bezout_matrix(p, p.derivative()), companion_matrix(p)):
        if p.backend == "exact":
            assert type(M) is IntMatrix
        else:
            assert type(M) is np.ndarray and M.dtype == np.float64
            assert not M.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 99.0


@pytest.mark.parametrize("backend", ["exact", "float64"])
def test_forms_copy_for_np_array_and_share_for_np_asarray(backend):
    p = Polynomial((1, 0, -1), backend)
    H, A = bezout_matrix(p, p.derivative()), companion_matrix(p)
    for form in (H, A):
        array = form.fractions if backend == "exact" else form
        assert np.asarray(form) is array
        before = array.copy()
        copied = np.array(form)
        assert copied is not array
        copied[0, 0] = 99.0
        assert (array == before).all()
    # p keeps H, so a write through np.asarray would reach every later caller
    with pytest.raises(ValueError, match="read-only"):
        np.asarray(bezout_matrix(p, p.derivative()))[0, 0] = 99.0
    assert det(H) == 4
    assert np.array(H, dtype=float).tolist() == [[2.0, 0.0], [0.0, 2.0]]


def test_bezout_degenerate_degree():
    with pytest.raises(DegreeMismatchError):
        bezout_matrix(Polynomial.exact([3]), Polynomial.exact([2]))


def faddeev_leverrier_charpoly(A) -> Polynomial:
    """Characteristic polynomial via trace recursion, exact."""
    n = A.shape[0]
    M = corpus.fraction_matrix(np.zeros((n, n), dtype=int))
    coeffs = [Fraction(1)]
    I = corpus.fraction_matrix(np.eye(n, dtype=int))
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * I
        AM = A @ M
        c = -sum(AM[i, i] for i in range(n)) / k
        coeffs.append(c)
    return Polynomial.exact(coeffs)


def test_companion_worked_examples():
    assert companion_matrix(X2_MINUS_1).fractions.tolist() == [[0, 1], [1, 0]]
    assert companion_matrix(X3_MINUS_X).fractions.tolist() == [[0, 1, 0], [0, 0, 1], [0, 1, 0]]
    assert companion_matrix(Polynomial.exact([1, 0, 0])).fractions.tolist() == [[0, 1], [0, 0]]


def test_companion_characteristic_polynomial():
    rg = corpus.rng(34)
    for _ in range(25):
        m = rg.randint(1, 6)
        p = corpus.monic_poly(rg, m)
        A = companion_matrix(p).fractions
        assert faddeev_leverrier_charpoly(A) == p


def test_symmetrization_defect_examples():
    H = bezout_matrix(X2_MINUS_1, Polynomial.exact([2, 0]))
    A = companion_matrix(X2_MINUS_1)
    assert symmetrization_defect(H, A) == 0
    H3 = bezout_matrix(X3_MINUS_X, X3_MINUS_X.derivative())
    A3 = companion_matrix(X3_MINUS_X)
    assert symmetrization_defect(H3, A3) == 0
    jordan = companion_matrix(Polynomial.exact([1, 0, 0]))
    assert symmetrization_defect(corpus.fraction_matrix(np.eye(2, dtype=int)), jordan) == 1


def test_symmetrization_defect_holds_without_hyperbolicity():
    # the symmetrizer identity is coefficient-level algebra; complex roots allowed
    rg = corpus.rng(35)
    for _ in range(100):
        m = rg.randint(1, 6)
        p = corpus.monic_poly(rg, m)
        q = corpus.nonzero_poly(rg, m - 1) if m > 1 else corpus.nonzero_poly(rg, 0)
        H = bezout_matrix(p, q)
        A = companion_matrix(p)
        assert symmetrization_defect(H, A) == 0


@pytest.mark.parametrize("rows", [
    [[2.0, 0.0], [0.0, 2.0]],
    [[1.0, 2.0], [2.0, 1.0]],
    [[0.5, 0.25], [0.25, 0.125]],
    # singular in decimals, not at the dyadic values; an eigenvalue test
    # judged it within a tolerance
    [[0.1, 0.3], [0.3, 0.9]],
    [[1e-300, 0.0], [0.0, -1e-300]],
])
def test_psd_check_of_a_float_array_is_that_of_its_fraction_array(rows):
    # a float matrix is certified at its exact dyadic value
    assert psd_check(np.array(rows)) == psd_check(corpus.fraction_matrix(rows))


def test_psd_check_examples():
    v = psd_check(np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert v.is_psd and v.is_pd and v.pivots == (2, 2)
    singular = bezout_matrix(Polynomial.exact([1, 0, 0]), Polynomial.exact([2, 0])).fractions
    assert singular.tolist() == [[0, 0], [0, 2]]
    v = psd_check(singular)
    assert v.is_psd and not v.is_pd and v.rank == 1
    v = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not v.is_psd and v.witness


def test_psd_exact_certificates():
    rg = corpus.rng(36)
    for _ in range(40):
        n = rg.randint(1, 5)
        M = corpus.fraction_matrix(np.zeros((n, n), dtype=int))
        for i in range(n):
            for j in range(n):
                M[i, j] = corpus.rational(rg, -3, 3)
        gram = M.T @ M
        v = psd_check(gram)
        assert v.is_psd
        assert all(piv > 0 for piv in v.pivots)
    indefinite = corpus.fraction_matrix([[0, 1], [1, 0]])
    assert not psd_check(indefinite).is_psd


def test_discriminant_examples():
    assert discriminant(X2_MINUS_1) == 4
    assert discriminant(X3_MINUS_X) == 4
    assert discriminant(Polynomial.exact([1, 0, 0])) == 0


def test_discriminant_equals_difference_product_squared():
    rg = corpus.rng(37)
    for _ in range(40):
        m = rg.randint(2, 5)
        roots = [corpus.rational(rg, -4, 4) for _ in range(m)]
        p = Polynomial.from_roots(roots)
        expected = Fraction(1)
        for i in range(m):
            for j in range(i + 1, m):
                expected *= (Fraction(roots[i]) - Fraction(roots[j])) ** 2
        assert discriminant(p) == expected


def test_discriminant_float_roots():
    rg = corpus.rng(38)
    for _ in range(25):
        m = rg.randint(2, 5)
        roots = sorted(rg.uniform(-2, 2) for _ in range(m))
        if min((b - a for a, b in zip(roots, roots[1:])), default=1.0) < 0.2:
            continue
        p = Polynomial.from_roots(roots)
        expected = 1.0
        for i in range(m):
            for j in range(i + 1, m):
                expected *= (roots[i] - roots[j]) ** 2
        assert discriminant(p) == pytest.approx(expected, rel=1e-8)


def test_resultant_examples():
    res = resultant(X2_MINUS_1, Polynomial.exact([2, 0]))
    assert res.det_h == 4 and res.root_product == -4 and res.sign_factor == -1
    assert res.consistency_residual() == 0
    res = resultant(X3_MINUS_X, Polynomial.exact([3, 0, -1]))
    assert res.det_h == 4 and res.root_product == -4 and res.sign_factor == -1
    res = resultant(X2_MINUS_1, Polynomial.exact([1, 0]))
    assert res.det_h == 1 and res.root_product == -1


def test_resultant_takes_float_input_at_its_exact_value():
    res = resultant(Polynomial([1.0, 0.0, -1.0], BACKEND_FLOAT), Polynomial([2.0, 0.0], BACKEND_FLOAT))
    assert res.det_h == 4 and res.root_product == -4 and res.consistency_residual() == 0
    p = Polynomial([1.0, 0.0, -2.0], BACKEND_FLOAT)
    res = resultant(p, p.derivative())
    a, b = real_roots(p).flattened
    assert res.root_product == Fraction(2 * a) * Fraction(2 * b)
    assert res.consistency_residual() == pytest.approx(0, abs=1e-12)


def test_resultant_degree_guard():
    with pytest.raises(DegreeMismatchError):
        resultant(X2_MINUS_1, Polynomial.exact([1, 0, 0]))


def test_resultant_sign_function():
    assert [resultant_sign(m) for m in (2, 3, 4, 5)] == [-1, -1, 1, 1]


def test_separation_lower_bound_examples():
    assert separation_lower_bound_check(X2_MINUS_1, Polynomial.exact([2, 0]), 1)
    assert separation_lower_bound_check(X2_MINUS_1, Polynomial.exact([1, 0]), Fraction(1, 2))
    assert not separation_lower_bound_check(X2_MINUS_1, Polynomial.exact([1, 0]), 1)


# -- integer kernels against Fraction references -------------------------------


def reference_bezout(p: Polynomial, q: Polynomial) -> list:
    """Synthetic division of (p(x)q(y) - p(y)q(x)) / (x - y) over Fractions."""
    n = max(0 if p.is_zero else p.degree, 0 if q.is_zero else q.degree)
    pa, qa = p.ascending(n + 1), q.ascending(n + 1)
    quo = [None] * n
    carry = [Fraction(0)] * (n + 1)
    for k in range(n, 0, -1):
        row = [pa[k] * qb - qa[k] * pb + c for qb, pb, c in zip(qa, pa, carry)]
        quo[k - 1] = row
        carry = [Fraction(0)] + row[:-1]
    assert all(pa[0] * qb - qa[0] * pb + c == 0 for qb, pb, c in zip(qa, pa, carry))
    assert all(row[n] == 0 for row in quo)
    return [row[:n] for row in quo]


def reference_symmetry_defect(M) -> Fraction:
    n = len(M)
    return max((abs(Fraction(M[i][j]) - Fraction(M[j][i])) for i in range(n) for j in range(n)),
               default=Fraction(0))


def reference_product(X, Y) -> list:
    return [[sum((Fraction(a) * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*Y)]
            for row in X]


def reference_gram(roots) -> list:
    """sum_k v_k v_k^T, v_k the ascending coefficients of prod_{j != k}(x - roots[j])."""
    m = len(roots)
    G = [[Fraction(0)] * m for _ in range(m)]
    for k in range(m):
        v = corpus.deleted_root_factor(roots, k).ascending(m)
        for i in range(m):
            for j in range(m):
                G[i][j] += v[i] * v[j]
    return G


def reference_factor_gram(roots, quadratics) -> list:
    """The deleted-factor gram of the monic product of (x - r) and the quadratics.

    A linear factor adds v v^T for the product with it deleted.  The two
    conjugate roots a, b of x^2 + s x + t add the rational form
    (x - a)(y - a) + (x - b)(y - b) = 2xy + s(x + y) + s^2 - 2t times
    g(x) g(y), g the product with the quadratic deleted.
    """
    monic = [Polynomial.exact([1, Fraction(b, a), Fraction(c, a)]) for a, b, c in quadratics]
    P = corpus.factor_product(1, roots, [f.coeffs for f in monic])
    m = P.degree
    G = [[Fraction(0)] * m for _ in range(m)]

    def add(u, w, scale):
        u, w = u.ascending(m), w.ascending(m)
        for i in range(m):
            for j in range(m):
                G[i][j] += scale * (u[i] * w[j] + w[i] * u[j]) / 2

    for r in roots:
        g = divmod(P, Polynomial.exact([1, -r]))[0]
        add(g, g, 1)
    x = Polynomial.exact([1, 0])
    for f in monic:
        g, (s, t) = divmod(P, f)[0], f.coeffs[1:]
        add(g, g, s * s - 2 * t)
        add(x * g, g, 2 * s)
        add(x * g, x * g, 2)
    return G


@st.composite
def form_pair(draw):
    """(p, q): p a corpus product, q zero, p', a lower-degree product or any product."""
    p = draw(corpus.factored_poly())
    kind = draw(st.sampled_from(["zero", "derivative", "low", "any"]))
    if kind == "zero":
        return p, Polynomial.exact([])
    if kind == "derivative":
        return p, p.derivative()
    q = draw(corpus.factored_poly(max_linear=3, max_mult=2))
    if kind == "low":
        while q.degree >= p.degree - 1 and q.degree > 0:
            q = Polynomial.exact(q.coeffs[1:])
    return p, q


@settings(max_examples=120, deadline=None)
@given(form_pair())
def test_integer_bezout_matches_fraction_division(pair):
    p, q = pair
    H = bezout_matrix(p, q)
    want = reference_bezout(p, q)
    assert H.fractions.tolist() == want
    assert all(type(v) is Fraction for v in H.fractions.flat)
    assert symmetry_defect(H.fractions) == reference_symmetry_defect(want) == 0
    if H.shape[0] == p.degree:
        monic = p * (1 / p.leading)
        A = companion_matrix(monic).fractions
        got = symmetrization_defect(H, A)
        assert type(got) is Fraction
        assert got == reference_symmetry_defect(reference_product(want, A.tolist()))
    assert det(H) == det(H.fractions)


square_st = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=n, max_size=n),
    min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(square_st, st.data())
def test_integer_defects_match_fraction_references(rows, data):
    M = corpus.fraction_matrix(rows)
    assert symmetry_defect(M) == reference_symmetry_defect(rows)
    n = len(rows)
    other = data.draw(st.lists(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                                        min_size=n, max_size=n), min_size=n, max_size=n))
    got = symmetrization_defect(M, corpus.fraction_matrix(other))
    assert type(got) is Fraction
    assert got == reference_symmetry_defect(reference_product(rows, other))


roots_st = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                    min_size=1, max_size=7)


@settings(max_examples=80, deadline=None)
@given(corpus.factored_parts())
def test_integer_gram_matches_fraction_reference(parts):
    # H(p, p') = lc^2 sum_k p_k(x) p_k(y): the gram the separation bound needs
    content, roots, quadratics = parts
    p = corpus.factor_product(content, roots, quadratics)
    want = reference_factor_gram(roots, quadratics)
    assert bezout_matrix(p, p.derivative()).fractions.tolist() == [
        [p.leading ** 2 * v for v in row] for row in want]
    if not quadratics:
        assert want == reference_gram(roots)


@settings(max_examples=60, deadline=None)
@given(roots_st, st.fractions(min_value=0, max_value=4, max_denominator=7),
       st.sampled_from(["derivative", "low"]))
def test_integer_separation_bound_matches_fraction_reference(roots, c, kind):
    p = Polynomial.from_roots(roots)
    q = p.derivative() if kind == "derivative" else p.derivative().derivative() * Fraction(-2, 3)
    if q.is_zero:
        q = Polynomial.exact([1])
    H = reference_bezout(p, q)
    gram = reference_gram(sorted(roots))
    want = reference_psd([[h - c * g for h, g in zip(hr, gr)] for hr, gr in zip(H, gram)])[0]
    assert separation_lower_bound_check(p, q, c) == want


def test_separation_bound_with_irrational_roots_certifies_just_below_c():
    # p = (x^2 - 2)(x - 1): separates gives the float c = min weight, here the
    # weight at sqrt(2), which lies on the boundary; the check certifies
    # Fraction(c) (1 - tol) instead
    p = Polynomial.exact([1, -1, -2, 2])
    q = Polynomial.from_roots([Fraction(-1, 2), Fraction(13, 10)])
    c = separates(p, q).constant_c
    assert isinstance(c, float)
    assert separation_lower_bound_check(p, q, c)
    assert not separation_lower_bound_check(p, q, c * (1 + 1e-6))
    # where the min weight is at the rational root 1, it is exact, and so is c
    q = Polynomial.from_roots([Fraction(-1, 2), Fraction(6, 5)])
    assert separates(p, q).constant_c == Fraction(3, 10)
    assert separation_lower_bound_check(p, q, Fraction(3, 10))


def test_separation_bound_rejects_mismatched_form():
    # a q above the degree of p makes H(p, q) larger than H(p, p')
    with pytest.raises(DegreeMismatchError, match="shape"):
        separation_lower_bound_check(X2_MINUS_1, X3_MINUS_X, 1)


def test_memoized_derivations_are_shared_and_belong_to_p():
    p = Polynomial.from_roots([Fraction(-3, 2), 0, 1, Fraction(5, 2)])
    q = Polynomial.exact([Fraction(7, 3), 0, -1, Fraction(1, 4)])
    # a form of (p, q) built first is not read as the form of (p, p')
    H = bezout_matrix(p, q)
    fresh = Polynomial.from_roots([Fraction(-3, 2), 0, 1, Fraction(5, 2)])
    assert discriminant(p) == det(bezout_matrix(fresh, fresh.derivative()).fractions)
    assert discriminant(p) == difference_product(real_roots(p).flattened) ** 2
    assert resultant(p, q) == resultant(fresh, q)
    # equal arguments get the same object, distinct ones their own
    assert bezout_matrix(p, Polynomial.exact(q.coeffs)) is H
    assert bezout_matrix(p, p.derivative()) is bezout_matrix(p, p.derivative())
    assert bezout_matrix(p, p.derivative()) is not H
    assert real_roots(p) is real_roots(p, DEFAULT_TOL, DEFAULT_TOL)
    assert real_roots(p, 1e-6) is not real_roots(p)
    assert nuij_family(p, 0.5) is nuij_family(p, 0.5)
    assert nuij_family(p, Fraction(1, 2)) is not nuij_family(p, 0.5)
    assert leray_symmetrizer(p) is leray_symmetrizer(p)
    # a derivation on p, its float rounding or its exact value stays on that polynomial
    pf = p.as_float()
    assert pf is p.as_float() and pf.as_exact() is pf.as_exact() and p.derivative(0) is p
    assert bezout_matrix(pf, pf.derivative()) is not bezout_matrix(p, p.derivative())
    assert leray_symmetrizer(pf) is leray_symmetrizer(pf.as_exact())
    # an equal polynomial built apart has its own memo, with equal contents
    assert bezout_matrix(fresh, q) is not H and bezout_matrix(fresh, q) == H
