"""Small dense matrix helpers over both scalar backends.

An exact matrix is an ``IntMatrix``: integer rows over one positive
denominator D, M = A / D.  The exact builders (``bezout``, ``leray``) make
it directly, and the kernels run on its Python ints: det(M) = det(A) / D^m
by Bareiss fraction-free elimination, adj(M) = adj(A) / D^(m-1) by
Faddeev-LeVerrier (on the upper triangle of each product when A is
symmetric), and the LDL pivot signs of the PSD certificate by symmetric
fraction-free elimination; every division is exact over the integers.
Each IntMatrix eliminates itself once, for its cached LDL certificate
``ldl``; the det of a symmetric PSD matrix is its pivot product.
``is_adjugate_product`` checks A B = det(A) I by the full product, which
for nonsingular A certifies B = det(A) A^-1: ``leray`` reads the
determinant and definiteness of B = adj S from S that way, with no
elimination of B.  Float matrices are ordinary float64 arrays, and each
builder returns one kind or the other: an IntMatrix for exact input, a
read-only float64 array for float input.  numpy reads an IntMatrix as its
Fraction array (``fractions``), which is built only when something reads it.
Object arrays of Fractions from outside are cleared to an ``IntMatrix``
once, on entry (``_integer_matrix``).  ``det``, ``adjugate`` and
``psd_certificate`` have no float route: they take float entries at their
exact dyadic values, so no verdict rests on an eigenvalue or a tolerance.
``_asymmetry`` and ``_matmul`` give
the symmetry defect and the product of integer matrices for the adjugate
and the exact Bezout-form checks (``bezout``), and ``psd_difference``
certifies X - c Y >= 0 on the integer rows, for the separation and
derivative bounds.  numpy is imported by the
functions that read or build an array, so the exact kernels run without
loading it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def max_abs(M: np.ndarray):
    """Max-norm of the entries; Fraction for exact input, float otherwise."""
    import numpy as np

    M = np.asarray(M)
    if M.size == 0:
        return Fraction(0) if M.dtype == object else 0.0
    if M.dtype == object:
        return max(abs(v) for v in M.flat)
    return float(np.max(np.abs(M)))


def symmetry_defect(M: np.ndarray):
    """Max-norm of M - M^T; a Fraction for exact input, a float otherwise."""
    import numpy as np

    M = np.asarray(M)
    return max_abs(M - M.T)


@dataclass(frozen=True)
class IntMatrix:
    """An exact matrix as integer rows over one positive denominator: rows / den.

    It is kept in lowest terms, so each matrix has one integer form and the
    kernels run on the smallest integers that represent it.
    """

    rows: tuple  # tuple of equal-length tuples of int
    den: int = 1

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError(f"IntMatrix needs a positive denominator, got {self.den}")
        g = math.gcd(self.den, *(v for row in self.rows for v in row))
        if g > 1:
            rows = tuple(tuple(v // g for v in row) for row in self.rows)
            object.__setattr__(self, "rows", rows)
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def of(cls, M) -> IntMatrix:
        """M as an IntMatrix: M itself, or an array cleared once.

        Float entries are taken at their exact dyadic values.
        """
        return M if isinstance(M, cls) else _integer_matrix(M)

    @property
    def shape(self) -> tuple:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    @cached_property
    def fractions(self) -> np.ndarray:
        """Object array of the Fractions rows[i][j] / den, built on first read."""
        import numpy as np

        out = np.empty(self.shape, dtype=object)
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                out[i, j] = Fraction(v, self.den)
        out.flags.writeable = False  # kept, so every reader gets this array
        return out

    @cached_property
    def ldl(self) -> PsdVerdict:
        """The LDL pivot certificate of this symmetric matrix, eliminated on first read."""
        return _integer_psd(self.rows, self.den)

    def __array__(self, dtype=None, copy=None):
        # np.array copies (copy=True), so writes never reach the kept array;
        # np.asarray (copy=None) gets the array itself
        import numpy as np

        return np.array(self.fractions, dtype=dtype, copy=copy)


def _integer_matrix(M: np.ndarray) -> IntMatrix:
    """The IntMatrix A / D of an array from outside, D the lcm of its entries' denominators."""
    import numpy as np

    rows = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
            for row in np.asarray(M, dtype=object)]
    D = math.lcm(1, *(v.denominator for row in rows for v in row))
    return IntMatrix(tuple(tuple(v.numerator * (D // v.denominator) for v in row)
                           for row in rows), D)


def _require_square(A: list[list[int]], what: str) -> int:
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError(f"{what} needs a square matrix")
    return n


def _asymmetry(A: list[list[int]]) -> int:
    """Max |A[i][j] - A[j][i]| of a square integer matrix (0 when empty)."""
    n = _require_square(A, "symmetry defect")
    return max((abs(A[i][j] - A[j][i]) for i in range(n) for j in range(i + 1, n)), default=0)


def _matmul(X: list[list[int]], Y: list[list[int]]) -> list[list[int]]:
    """Integer matrix product X Y; the inner dimensions must agree."""
    inner = len(Y)
    if any(len(row) != inner for row in X):
        raise ValueError(f"cannot multiply: {len(X[0])} columns against {inner} rows")
    cols = list(zip(*Y))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in X]


def max_abs_difference(X: IntMatrix, Y: IntMatrix) -> Fraction:
    """Max-norm of X - Y for two integer matrices of one shape, read from their rows.

    X - Y = (X.rows * Y.den - Y.rows * X.den) / (X.den * Y.den).
    """
    if X.shape != Y.shape:
        raise ValueError(f"cannot subtract: shape {X.shape} against {Y.shape}")
    diff = max((abs(x * Y.den - y * X.den) for rx, ry in zip(X.rows, Y.rows)
                for x, y in zip(rx, ry)), default=0)
    return Fraction(diff, X.den * Y.den)


def _bareiss_det(A: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination (Bareiss 1968).

    After step k every trailing entry is a (k+1)x(k+1) minor, so the division
    by the previous pivot is exact.
    """
    A = [list(row) for row in A]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if A[r][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        pivot, row_k = A[k][k], A[k]
        for row in A[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - a * row_k[j]) // prev
        prev = pivot
    return sign * A[n - 1][n - 1]


def _symmetric_product(A: list[list[int]], M: list[list[int]]) -> list[list[int]]:
    """A M for symmetric integer A and M whose product is symmetric.

    Entry (i, j) is row i of A against column j of M, which is row j of M;
    only the upper triangle j >= i is computed, and it is mirrored.
    """
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(A):
        for j in range(i, n):
            out[i][j] = out[j][i] = sum(map(operator.mul, row, M[j]))
    return out


def _faddeev_adjugate(A: list[list[int]]) -> list[list[int]]:
    """Adjugate of an integer matrix by Faddeev-LeVerrier.

    With M_1 = I, c_(n-1) = -tr(A), M_k = A M_(k-1) + c_(n-k+1) I and
    c_(n-k) = -tr(A M_k) / k, Cayley-Hamilton gives A M_n = -c_0 I, so
    adj(A) = (-1)^(n+1) M_n.  The c_k are the integer coefficients of the
    characteristic polynomial, so every division is exact; singular A needs
    no special case.  Each M_k is a polynomial in A, so for symmetric A
    every product A M_k is symmetric and only its upper triangle is
    computed (``_symmetric_product``): about half the multiplications.
    """
    n = len(A)
    product = _matmul if _asymmetry(A) else _symmetric_product
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n):
        M = product(A, M)  # A M_k, whose trace gives c_(n-k)
        c = -sum(M[i][i] for i in range(n)) // k
        for i in range(n):
            M[i][i] += c
    return M if n % 2 else [[-v for v in row] for row in M]


def det(M):
    """Determinant, exact: a Fraction, with float entries taken at their exact dyadic values.

    A symmetric matrix that its LDL certificate says is PSD gets the
    pivot product (0 below full rank); Bareiss runs on any other.
    """
    A = IntMatrix.of(M)
    n = _require_square(A.rows, "det")
    if not _asymmetry(A.rows) and A.ldl.is_psd:
        return math.prod(A.ldl.pivots, start=Fraction(1)) if A.ldl.is_pd else Fraction(0)
    return Fraction(_bareiss_det(A.rows), A.den ** n)


def adjugate(M):
    """Cofactor transpose, exact; total (defined for singular input as well).

    Faddeev-LeVerrier on Python ints.  The result has the kind of its input:
    an IntMatrix gives an IntMatrix, and an array gives a Fraction array,
    with float entries taken at their exact dyadic values.
    """
    A = IntMatrix.of(M)
    n = len(A.rows)
    B = IntMatrix(tuple(map(tuple, _faddeev_adjugate(A.rows))), A.den ** max(n - 1, 0))
    return B if isinstance(M, IntMatrix) else B.fractions


def adjugate_det(A: IntMatrix, B: IntMatrix) -> Fraction:
    """det A from its adjugate B: A B = det(A) I, so det A is row 0 of A times column 0 of B."""
    if not A.rows:
        return Fraction(1)
    return Fraction(sum(map(operator.mul, A.rows[0], (row[0] for row in B.rows))),
                    A.den * B.den)


def is_adjugate_product(A: IntMatrix, B: IntMatrix, det_a: Fraction) -> bool:
    """Whether A B = det_a I, exactly, by the full product of the integer rows.

    For det_a != 0 it certifies B = det_a A^-1 (Horn-Johnson, 0.8.2), so
    det B = det_a^(n-1), and for symmetric A the matrix B is symmetric with
    the inertia of det_a A.  Every entry is computed: ``_symmetric_product``
    would assume the symmetry that this verifies.
    """
    c = det_a * (A.den * B.den)  # the diagonal of A.rows B.rows
    return c.denominator == 1 and all(
        v == (c.numerator if i == j else 0)
        for i, row in enumerate(_matmul(A.rows, B.rows)) for j, v in enumerate(row))


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive semidefiniteness check on an exact matrix: its
    rank, the pivots of its LDL certificate (None where another identity
    decides, as ``leray`` does for B), and a witness when it fails.
    """

    is_psd: bool
    is_pd: bool
    method: str
    pivots: tuple | None
    rank: int
    witness: str = ""


def _integer_psd(A: list[list[int]], D: int) -> PsdVerdict:
    """LDL pivot signs of the symmetric matrix A / D (D > 0) on Python ints.

    Symmetric fraction-free elimination (Bareiss 1968) with diagonal
    pivoting: each step takes the largest diagonal entry, the first one on
    ties.  After pivots k_1..k_t every active entry is the minor on rows
    {k_1..k_t, i} and columns {k_1..k_t, j}; the Schur complement of the
    eliminated block is that minor over the last integer pivot, prev, and
    over D.  prev is a product of positive pivots, so the integer diagonal
    has the signs and the order of the Schur diagonal, and the certificate
    (pivots, rank, witness) is the one Gaussian elimination over Fractions
    gives.
    """
    n = _require_square(A, "PSD certificate")
    if _asymmetry(A):
        raise ValueError("PSD certificate needs a symmetric matrix")
    A = [list(row) for row in A]
    active = list(range(n))
    pivots = []
    prev = 1
    while active:
        neg = next((k for k in active if A[k][k] < 0), None)
        if neg is not None:
            return PsdVerdict(False, False, "ldl-pivot", tuple(pivots), len(pivots),
                              witness=f"negative diagonal entry at index {neg}")
        k = max(active, key=lambda i: A[i][i])
        d = A[k][k]
        if d == 0:
            # all remaining diagonal entries are zero; PSD forces the block to vanish
            for i in active:
                for j in active:
                    if A[i][j] != 0:
                        return PsdVerdict(False, False, "ldl-pivot", tuple(pivots), len(pivots),
                                          witness=f"zero diagonal with nonzero entry ({i},{j})")
            break
        pivots.append(Fraction(d, prev * D))
        active.remove(k)
        row_k = A[k]
        for t, i in enumerate(active):
            row_i, a = A[i], A[i][k]
            for j in active[t:]:
                v = (d * row_i[j] - a * row_k[j]) // prev
                row_i[j] = A[j][i] = v
        prev = d
    rank = len(pivots)
    return PsdVerdict(True, rank == n, "ldl-pivot", tuple(pivots), rank)


def psd_difference(X: IntMatrix, Y: IntMatrix, c: Fraction) -> PsdVerdict:
    """The LDL certificate of X - c Y for symmetric X and Y of one shape and rational c.

    With X = A / dx, Y = B / dy and c = cn / cd, X - c Y is the integer
    matrix cd dy A - cn dx B over dx cd dy, eliminated as it is.
    """
    if X.shape != Y.shape:
        raise ValueError(f"cannot subtract: shape {X.shape} against {Y.shape}")
    a, b = c.denominator * Y.den, c.numerator * X.den
    diff = [[a * x - b * y for x, y in zip(rx, ry)] for rx, ry in zip(X.rows, Y.rows)]
    return _integer_psd(diff, X.den * a)


def psd_certificate(M) -> PsdVerdict:
    """Certify M >= 0 by the LDL pivots of its exact value.

    An IntMatrix reads its cached ``ldl`` certificate; an array is cleared
    to an IntMatrix first (``IntMatrix.of``), float entries at their exact
    dyadic values, as ``det`` and ``adjugate`` take them.
    """
    return IntMatrix.of(M).ldl
