"""Integer exact kernels: Bareiss det, Faddeev-LeVerrier adjugate, rational-root search.

Each kernel is compared with a plain Fraction reference kept here: cofactor
expansion for the adjugate, Gaussian elimination for the determinant and
divisor-pair enumeration for the rational roots.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bezoutian import Polynomial
from bezoutian.exactla import adjugate, det, identity, mat
from bezoutian.roots import _divisors, _rational_roots

F = Fraction


def reference_det(M) -> Fraction:
    """Fraction Gaussian elimination with row swaps."""
    A = [[F(v) for v in row] for row in M]
    n = len(A)
    out = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            A[col], A[pivot] = A[pivot], A[col]
            out = -out
        out *= A[col][col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
    return out


def reference_adjugate(M) -> list:
    """Transposed cofactor matrix."""
    n = len(M)
    if n == 1:
        return [[F(1)]]
    out = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[M[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            out[j][i] = (-1) ** (i + j) * reference_det(minor)
    return out


def low_rank(n: int, rank: int, seed: int) -> list:
    """An n x n rational matrix L R of the given rank (generically)."""
    rng = np.random.default_rng(seed)
    L = [[F(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(rank)]
         for _ in range(n)]
    R = [[F(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(n)]
         for _ in range(rank)]
    return [[sum((L[i][k] * R[k][j] for k in range(rank)), F(0)) for j in range(n)]
            for i in range(n)]


NONSINGULAR = [[F(2, 3), F(-1), F(5, 2)], [F(0), F(-7, 4), F(1, 6)], [F(-3), F(4, 5), F(-1, 2)]]
NEEDS_SWAP = [[0, 2, 1], [3, -1, 4], [1, 1, 0]]

CASES = {
    "1x1": [[F(-7, 3)]],
    "nonsingular nonsymmetric negative": NONSINGULAR,
    "needs row swap": NEEDS_SWAP,
    "rank m-1": low_rank(4, 3, 1),
    "rank m-2": low_rank(5, 3, 2),
    "rank 1": low_rank(4, 1, 3),
    "zero": [[0, 0], [0, 0]],
    "hilbert 6": [[F(1, i + j + 1) for j in range(6)] for i in range(6)],
    "zero leading column": [[0, 1, 2], [0, 3, 4], [0, 5, 7]],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_adjugate_matches_cofactors(name):
    rows = CASES[name]
    M = mat(rows, "exact")
    B = adjugate(M)
    assert B.tolist() == reference_adjugate(rows)
    assert all(type(v) is Fraction for v in B.flat)
    d = det(M)
    assert type(d) is Fraction and d == reference_det(rows)
    n = len(rows)
    assert ((M.dot(B)) == identity(n, "exact") * d).all()
    assert ((B.dot(M)) == identity(n, "exact") * d).all()


def test_adjugate_rank_structure():
    # adj has rank 1 when rank(M) = m - 1, and vanishes when rank(M) <= m - 2
    B = adjugate(mat(CASES["rank m-1"], "exact"))
    assert any(v != 0 for v in B.flat)
    assert reference_det([[B[i, j] for j in range(2)] for i in range(2)]) == 0
    assert all(v == 0 for v in adjugate(mat(CASES["rank m-2"], "exact")).flat)


def test_det_row_swap_and_singular():
    assert det(mat(NEEDS_SWAP, "exact")) == reference_det(NEEDS_SWAP) == 12
    assert det(mat([[0, 1], [1, 0]], "exact")) == -1
    assert det(mat(CASES["rank m-1"], "exact")) == 0
    assert det(mat([[1, 2], [2, 4]], "exact")) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_and_adjugate_match_references(rows):
    M = mat(rows, "exact")
    assert det(M) == reference_det(rows)
    assert adjugate(M).tolist() == reference_adjugate(rows)


def test_float_adjugate_matches_cofactors():
    rows = [[2.0, -1.0, 0.5], [0.0, 3.0, 1.0], [4.0, 1.0, -2.0]]
    B = adjugate(np.array(rows))
    assert B.dtype == float
    assert np.allclose(B, np.array(reference_adjugate([[F(v) for v in r] for r in rows]),
                                   dtype=float))


# -- rational roots ----------------------------------------------------------


def enumeration_divisors(n: int) -> list:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def enumeration_rational_roots(f: Polynomial):
    """Every ±r/q with r | c_0, q | lc tested as a Fraction, deflating as found."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    g = math.gcd(*ints)
    work = Polynomial.exact([v // g for v in ints])
    found = []
    while work.degree >= 1 and work.coeffs[-1] == 0:
        found.append(F(0))
        work = Polynomial.exact(work.coeffs[:-1])
    if work.degree >= 1:
        c0, lc = int(work.coeffs[-1]), int(work.coeffs[0])
        cands = sorted({F(s * r, q) for r in enumeration_divisors(c0)
                        for q in enumeration_divisors(lc) for s in (1, -1)})
        for cand in cands:
            if work.degree >= 1 and work(cand) == 0:
                found.append(cand)
                work = work // Polynomial.exact((1, -cand))
    return sorted(found), work


def test_divisors():
    for n in (1, 2, 12, -36, 97, 360, 2**5 * 3**3 * 7, 1001 * 13):
        assert _divisors(n) == enumeration_divisors(n)


roots_st = st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6), max_size=5,
                    unique=True)


@st.composite
def irreducible_quadratic(draw):
    a = draw(st.integers(1, 4))
    b = draw(st.integers(-6, 6))
    c = draw(st.integers(-6, 6).filter(lambda v: v != 0))
    disc = b * b - 4 * a * c
    assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
    return (a, b, c)


@settings(max_examples=80, deadline=None)
@given(roots_st, st.lists(irreducible_quadratic(), max_size=2),
       st.fractions(min_value=-30, max_value=30, max_denominator=5).filter(lambda v: v != 0),
       st.booleans())
def test_rational_roots_match_enumeration(roots, quadratics, content, zero_root):
    if zero_root and F(0) not in roots:
        roots = roots + [F(0)]
    p = Polynomial.exact([content])
    for r in roots:
        p = p * Polynomial.exact([1, -r])
    for q in quadratics:
        p = p * Polynomial.exact(q)
    assume(p.degree >= 1)
    found, cofactor = _rational_roots(p)
    want, want_cofactor = enumeration_rational_roots(p)
    assert found == want == sorted(roots)
    assert cofactor.coeffs == want_cofactor.coeffs
    assert all(type(c) is Fraction for c in cofactor.coeffs)


def test_rational_roots_content_and_sign():
    # -12 (x - 1/2)(x + 2/3) x (x^2 - 2): negative leading coefficient; the
    # cleared integer coefficients have content 2
    p = Polynomial.exact([-12]) * Polynomial.exact([1, F(-1, 2)]) * Polynomial.exact(
        [1, F(2, 3)]) * Polynomial.exact([1, 0]) * Polynomial.exact([1, 0, -2])
    found, cofactor = _rational_roots(p)
    assert found == [F(-2, 3), 0, F(1, 2)]
    assert cofactor.coeffs == enumeration_rational_roots(p)[1].coeffs == (-6, 0, 12)
