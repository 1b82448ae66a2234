"""Integer exact kernels: Bareiss det, Faddeev-LeVerrier adjugate, LDL pivot
signs, rational roots.

Each kernel is compared with a plain Fraction reference kept here: cofactor
expansion for the adjugate, Gaussian elimination for the determinant and
for the PSD pivots, and divisor-pair enumeration for the rational roots
that the root kernel settles from its Sturm brackets.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
from bezoutian import (
    NonHyperbolicError,
    Polynomial,
    bezout_matrix,
    companion_matrix,
    exactla,
    real_roots,
    squarefree_decomposition,
)
from bezoutian.exactla import (
    IntMatrix,
    _asymmetry,
    _bareiss_det,
    _matmul,
    adjugate,
    adjugate_det,
    det,
    max_abs,
    max_abs_difference,
    psd_certificate,
    symmetry_defect,
)
from bezoutian.roots import _factor_roots

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
    M = corpus.fraction_matrix(rows)
    B = adjugate(M)
    assert B.tolist() == reference_adjugate(rows)
    assert all(type(v) is Fraction for v in B.flat)
    d = det(M)
    assert type(d) is Fraction and d == reference_det(rows)
    n = len(rows)
    I = corpus.fraction_matrix(np.eye(n, dtype=int))
    assert ((M.dot(B)) == I * d).all()
    assert ((B.dot(M)) == I * d).all()


def test_adjugate_rank_structure():
    # adj has rank 1 when rank(M) = m - 1, and vanishes when rank(M) <= m - 2
    B = adjugate(corpus.fraction_matrix(CASES["rank m-1"]))
    assert any(v != 0 for v in B.flat)
    assert reference_det([[B[i, j] for j in range(2)] for i in range(2)]) == 0
    assert all(v == 0 for v in adjugate(corpus.fraction_matrix(CASES["rank m-2"])).flat)


def test_det_row_swap_and_singular():
    assert det(corpus.fraction_matrix(NEEDS_SWAP)) == reference_det(NEEDS_SWAP) == 12
    assert det(corpus.fraction_matrix([[0, 1], [1, 0]])) == -1
    assert det(corpus.fraction_matrix(CASES["rank m-1"])) == 0
    assert det(corpus.fraction_matrix([[1, 2], [2, 4]])) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_and_adjugate_match_references(rows):
    M = corpus.fraction_matrix(rows)
    assert det(M) == reference_det(rows)
    assert adjugate(M).tolist() == reference_adjugate(rows)


def gram(G) -> list:
    """G G^T for integer rows G: symmetric PSD, of the rank of G."""
    return [[sum(a * b for a, b in zip(gi, gj)) for gj in G] for gi in G]


SYMMETRIC = {
    "rank m-1": gram([[1, 2, 0], [0, 1, -1], [3, 0, 2], [1, 1, 1]]),
    "rank m-2": gram([[1, 2, 0], [0, 1, -1], [3, 0, 2], [1, 1, 1], [2, -1, 0]]),
    "indefinite": [[F(1, 2), 3, -1], [3, 0, F(2, 3)], [-1, F(2, 3), -4]],
    "hilbert 6": CASES["hilbert 6"],
    "one entry": [[F(-3, 7)]],
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_adjugate_takes_half_products_and_equals_cofactors(name):
    rows = SYMMETRIC[name]
    with mock.patch.object(exactla, "_matmul", wraps=exactla._matmul) as full:
        B = adjugate(corpus.fraction_matrix(rows))
    assert full.call_count == 0
    assert B.tolist() == reference_adjugate(rows)
    n = len(rows)
    if name == "rank m-1":
        assert reference_det([r[:n - 1] for r in rows[:n - 1]]) != 0 and any(B.flat)
    if name == "rank m-2":
        assert not any(B.flat)


def test_nonsymmetric_adjugate_keeps_the_full_product():
    for rows in (NONSINGULAR, NEEDS_SWAP, CASES["rank m-1"]):
        with mock.patch.object(exactla, "_symmetric_product") as half:
            B = adjugate(corpus.fraction_matrix(rows))
        assert half.call_count == 0 and B.tolist() == reference_adjugate(rows)


def test_float_adjugate_matches_cofactors():
    rows = [[2.0, -1.0, 0.5], [0.0, 3.0, 1.0], [4.0, 1.0, -2.0]]
    # float entries are taken at their exact dyadic values
    B = adjugate(np.array(rows))
    assert B.tolist() == reference_adjugate([[F(v) for v in r] for r in rows])


# -- PSD certificate ---------------------------------------------------------


def reference_psd(M) -> tuple:
    """Fraction LDL with diagonal pivoting: (is_psd, is_pd, pivots, rank, witness).

    Each step fails on the first negative diagonal entry, takes the largest
    positive one (the first on ties) as the pivot, and stops when the
    remaining diagonal is zero, failing on the first nonzero entry left.
    """
    A = [[F(v) for v in row] for row in M]
    n = len(A)
    active = list(range(n))
    pivots = []
    while active:
        neg = next((k for k in active if A[k][k] < 0), None)
        if neg is not None:
            return False, False, tuple(pivots), len(pivots), \
                f"negative diagonal entry at index {neg}"
        pos = [k for k in active if A[k][k] > 0]
        if not pos:
            for i in active:
                for j in active:
                    if A[i][j] != 0:
                        return False, False, tuple(pivots), len(pivots), \
                            f"zero diagonal with nonzero entry ({i},{j})"
            break
        k = max(pos, key=lambda i: A[i][i])
        d = A[k][k]
        pivots.append(d)
        active.remove(k)
        col = {i: A[i][k] for i in active}
        for i in active:
            if col[i] == 0:
                continue
            f = col[i] / d
            for j in active:
                A[i][j] -= f * col[j]
    return True, len(pivots) == n, tuple(pivots), len(pivots), ""


def assert_psd_matches_reference(rows):
    n = len(rows)
    M = corpus.fraction_matrix(rows) if n else np.empty((0, 0), dtype=object)
    v = psd_certificate(M)
    assert (v.is_psd, v.is_pd, v.pivots, v.rank, v.witness) == reference_psd(rows)
    assert v.method == "ldl-pivot" and all(type(d) is Fraction for d in v.pivots)
    return v


fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def gram(G) -> list:
    return [[sum((a * b for a, b in zip(r, s)), F(0)) for s in G] for r in G]


@st.composite
def symmetric_case(draw):
    """A symmetric rational matrix of one kind, under a random symmetric permutation.

    Kinds: G G^T of rank n, n-1 and n-2 (PD and PSD, generically), a random
    symmetric (usually indefinite) matrix, and a PD block next to a block
    with zero diagonal and a nonzero off-diagonal entry, which the
    elimination reaches after some pivots.
    """
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["pd", "rank-1", "rank-2", "indefinite", "zero-diagonal"]))
    if kind in ("pd", "rank-1", "rank-2"):
        r = max(n - {"pd": 0, "rank-1": 1, "rank-2": 2}[kind], 0)
        G = [draw(st.lists(fractions_st, min_size=r, max_size=r)) for _ in range(n)]
        M = gram(G)
    else:
        M = [[F(0)] * n for _ in range(n)]
        k = draw(st.integers(0, max(n - 2, 0))) if kind == "zero-diagonal" else n
        G = [draw(st.lists(fractions_st, min_size=k, max_size=k)) for _ in range(k)]
        for i, row in enumerate(gram(G)):
            M[i][:k] = row
        for i in range(k, n):
            for j in range(i if kind == "indefinite" else i + 1, n):
                M[i][j] = M[j][i] = draw(fractions_st)
        if kind == "zero-diagonal" and n - k >= 2:
            M[k][k + 1] = M[k + 1][k] = draw(fractions_st.filter(lambda v: v != 0))
    perm = draw(st.permutations(range(n)))
    return [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(symmetric_case())
def test_psd_certificate_matches_fraction_ldl(rows):
    assert_psd_matches_reference(rows)


@pytest.mark.parametrize("rows, verdict", [
    ([], (True, True, 0)),
    ([[F(3, 4)]], (True, True, 1)),
    ([[0]], (True, False, 0)),
    ([[F(-1, 5)]], (False, False, 0)),
    ([[0, F(2, 3)], [F(2, 3), 0]], (False, False, 0)),
    ([[1, 1, 0], [1, 1, 0], [0, 0, 0]], (True, False, 1)),
    ([[2, 1, 0], [1, 2, 3], [0, 3, 0]], (False, False, 2)),
    ([[4, 2, 2], [2, 1, 1], [2, 1, 5]], (True, False, 2)),
])
def test_psd_certificate_edge_cases(rows, verdict):
    v = assert_psd_matches_reference(rows)
    assert (v.is_psd, v.is_pd, v.rank) == verdict


def test_psd_certificate_rejects_nonsymmetric_and_nonsquare_input():
    with pytest.raises(ValueError, match="symmetric"):
        psd_certificate(corpus.fraction_matrix([[1, 2], [0, 1]]))
    with pytest.raises(ValueError, match="square"):
        psd_certificate(corpus.fraction_matrix([[1, 2, 3], [2, 1, 0]]))


def test_integer_shape_checks():
    with pytest.raises(ValueError, match="square"):
        _asymmetry([[1, 2, 3], [2, 1, 0]])
    assert _asymmetry([]) == 0
    assert _asymmetry([[1, 2], [-3, 0]]) == 5
    with pytest.raises(ValueError, match="cannot multiply"):
        _matmul([[1, 2], [3, 4]], [[1, 2, 3]])
    assert _matmul([[1, 2], [3, 4]], [[5], [6]]) == [[17], [39]]
    with pytest.raises(ValueError, match="cannot subtract"):
        max_abs_difference(IntMatrix(((1, 2),)), IntMatrix(((1,), (2,))))
    assert symmetry_defect(corpus.fraction_matrix([[1, F(1, 2)], [F(-1, 3), 0]])) == F(5, 6)
    assert symmetry_defect(np.empty((0, 0), dtype=object)) == 0


# -- integer forms, and det from the LDL certificate a matrix holds -----------


ints_st = st.integers(-9, 9)


def bareiss(M: IntMatrix) -> Fraction:
    return Fraction(_bareiss_det(M.rows), M.den ** len(M.rows))


@st.composite
def integer_gram(draw):
    """G G^T over a denominator D > 1, G integer m x r: PSD of rank r (generically), r = 0..m."""
    m = draw(st.integers(1, 6))
    r = draw(st.integers(0, m))
    G = [draw(st.lists(ints_st, min_size=r, max_size=r)) for _ in range(m)]
    rows = tuple(tuple(sum(a * b for a, b in zip(gi, gj)) for gj in G) for gi in G)
    return IntMatrix(rows, draw(st.integers(2, 30)))


@st.composite
def integer_symmetric(draw):
    m = draw(st.integers(1, 6))
    upper = {(i, j): draw(ints_st) for i in range(m) for j in range(i, m)}
    rows = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(m)) for i in range(m))
    return IntMatrix(rows, draw(st.integers(1, 30)))


@st.composite
def integer_square(draw):
    """L R over a denominator, L n x r and R r x n integer: singular whenever r < n."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    L = [draw(st.lists(ints_st, min_size=r, max_size=r)) for _ in range(n)]
    R = [draw(st.lists(ints_st, min_size=n, max_size=n)) for _ in range(r)]
    rows = tuple(tuple(sum(L[i][k] * R[k][j] for k in range(r)) for j in range(n))
                 for i in range(n))
    return IntMatrix(rows, draw(st.integers(1, 30)))


@settings(max_examples=150, deadline=None)
@given(integer_gram())
def test_det_read_from_the_ldl_pivots_equals_bareiss(M):
    verdict = psd_certificate(M)
    assert verdict.is_psd and verdict is M.ldl
    assert det(M) == bareiss(M) == reference_det(M.fractions.tolist())
    assert (det(M) != 0) == verdict.is_pd


@settings(max_examples=150, deadline=None)
@given(integer_symmetric())
def test_det_of_an_indefinite_matrix_falls_back_to_bareiss(M):
    assume(not psd_certificate(M).is_psd)
    assert det(M) == bareiss(M) == reference_det(M.fractions.tolist())


@settings(max_examples=200, deadline=None)
@given(st.one_of(integer_gram(), integer_symmetric()))
def test_det_of_a_symmetric_matrix_eliminates_it_once(M):
    # PSD (gram), singular PSD (gram of rank < m) and indefinite cases
    want = reference_det(M.fractions.tolist())
    assert bareiss(M) == want
    with mock.patch.object(exactla, "_integer_psd", wraps=exactla._integer_psd) as ldl, \
            mock.patch.object(exactla, "_bareiss_det", wraps=exactla._bareiss_det) as bareiss_runs:
        assert det(M) == want
        assert ldl.call_count == 1
        # Bareiss runs only when the certificate says M is not PSD
        not_psd = 0 if M.ldl.is_psd else 1
        assert bareiss_runs.call_count == not_psd
        # a second det or certificate read makes no second LDL elimination
        assert det(M) == want and psd_certificate(M) is M.ldl
        assert ldl.call_count == 1 and bareiss_runs.call_count == 2 * not_psd


def test_det_of_a_nonsymmetric_matrix_runs_bareiss_and_no_ldl():
    M = IntMatrix(((2, 1), (0, 3)), 2)
    with mock.patch.object(exactla, "_integer_psd", wraps=exactla._integer_psd) as ldl:
        assert det(M) == F(3, 2)
    assert ldl.call_count == 0
    with pytest.raises(ValueError, match="square"):
        det(IntMatrix(((1, 2, 3), (2, 1, 0))))


@settings(max_examples=150, deadline=None)
@given(integer_square())
def test_det_from_the_faddeev_adjugate_equals_bareiss(M):
    B = adjugate(M)
    assert isinstance(B, IntMatrix)
    assert adjugate_det(M, B) == bareiss(M) == reference_det(M.fractions.tolist())


@settings(max_examples=150, deadline=None)
@given(st.one_of(integer_gram(), integer_symmetric()))
def test_symmetric_integer_adjugate_equals_cofactors(M):
    # gram matrices of every rank 0..m, so rank m - 1 and m - 2 among them
    B = adjugate(M)
    assert B.fractions.tolist() == reference_adjugate(M.fractions.tolist())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=k, max_size=k),
    min_size=1, max_size=4)), st.integers(1, 5))
def test_integer_form_and_fraction_array_round_trip(rows, scale):
    M = corpus.fraction_matrix(rows)
    A = IntMatrix.of(M)
    assert A.shape == M.shape and (A.fractions == M).all()
    assert all(type(v) is Fraction for v in A.fractions.flat)
    assert IntMatrix.of(A) is A and IntMatrix.of(A.fractions) == A
    # the same matrix over a larger denominator is kept in the same lowest terms
    wide = IntMatrix(tuple(tuple(scale * v for v in row) for row in A.rows), scale * A.den)
    assert wide == A and (wide.fractions == M).all()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.tuples(*[st.fractions(min_value=-9, max_value=9, max_denominator=12)] * (2 * k)),
    min_size=1, max_size=4)))
def test_max_abs_difference_equals_the_fraction_array_norm(rows):
    k = len(rows[0]) // 2
    X, Y = (corpus.fraction_matrix([row[half * k:(half + 1) * k] for row in rows])
            for half in (0, 1))
    got = max_abs_difference(IntMatrix.of(X), IntMatrix.of(Y))
    assert type(got) is Fraction and got == max_abs(X - Y)


def test_exact_forms_reach_the_kernels_as_integer_rows():
    p = Polynomial.exact([1, F(-1, 2), F(-1, 2)])  # (x - 1)(x + 1/2)
    H = bezout_matrix(p, p.derivative())
    assert isinstance(H, IntMatrix) and IntMatrix.of(H) is H
    assert np.asarray(H) is H.fractions and IntMatrix.of(H.fractions) == H
    assert psd_certificate(H) is H.ldl
    assert det(H) == det(H.fractions) == bareiss(H)


def test_adjugate_keeps_the_kind_of_its_input():
    p = Polynomial.exact([1, F(-1, 2), F(-1, 2), F(1, 3)])
    A = companion_matrix(p)
    want = reference_adjugate(A.fractions.tolist())
    for given_as in (A.fractions, np.array(A)):
        B = adjugate(given_as)
        assert isinstance(B, np.ndarray) and B.tolist() == want
    B = adjugate(A)
    assert isinstance(B, IntMatrix) and B.fractions.tolist() == want
    # numpy reads an IntMatrix as its Fraction array
    assert np.asarray(B).tolist() == want and (np.asarray(B) @ A.fractions)[0, 0] == det(A)


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


roots_st = st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6), max_size=5,
                    unique=True)


@settings(max_examples=80, deadline=None)
@given(roots_st, st.lists(corpus.irreducible_quadratic(), max_size=2),
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
    want, _ = enumeration_rational_roots(p)
    assert want == sorted(roots)
    monic = p * (1 / p.leading)
    if any(b * b < 4 * a * c for a, b, c in quadratics):
        with pytest.raises(NonHyperbolicError):
            real_roots(monic)
        return
    # the roots that the kernel of real_roots settles on each Yun factor: the
    # rational ones are Fractions, and every other one is a float
    found = [r for f, _ in squarefree_decomposition(monic) for r in _factor_roots(f)]
    assert sorted(r for r in found if type(r) is Fraction) == want
    assert sum(type(r) is float for r in found) == 2 * len({(F(b, a), F(c, a))
                                                            for a, b, c in quadratics})
    if not quadratics:
        assert real_roots(monic).distinct_roots == tuple(want)


def test_rational_roots_content_and_sign():
    # -12 (x - 1/2)(x + 2/3) x (x^2 - 2): negative leading coefficient; the
    # cleared integer coefficients have content 2
    p = Polynomial.exact([-12]) * Polynomial.exact([1, F(-1, 2)]) * Polynomial.exact(
        [1, F(2, 3)]) * Polynomial.exact([1, 0]) * Polynomial.exact([1, 0, -2])
    found = _factor_roots(p)
    want, cofactor = enumeration_rational_roots(p)
    assert [r for r in found if type(r) is Fraction] == want == [F(-2, 3), 0, F(1, 2)]
    # the irrational roots are those of the enumeration's cofactor -6 x^2 + 12
    assert cofactor.coeffs == (-6, 0, 12)
    assert found == [-math.sqrt(2), F(-2, 3), 0, F(1, 2), math.sqrt(2)]
