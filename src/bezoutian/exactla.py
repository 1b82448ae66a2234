"""Small dense matrix helpers over both scalar backends.

Exact matrices are numpy object arrays of Fractions; float matrices are
ordinary float64 arrays.  The exact kernels clear the denominators once,
M = A / D with A an integer matrix and D the lcm of the entry denominators,
and run on Python ints: det(M) = det(A) / D^m by Bareiss fraction-free
elimination, adj(M) = adj(A) / D^(m-1) by Faddeev-LeVerrier, and the LDL
pivot signs of the PSD certificate by symmetric fraction-free elimination;
every division is exact over the integers.  ``adjugate`` has no float
route: it takes float entries at their exact dyadic values.  ``_asymmetry``
and ``_matmul`` give the symmetry defect and the product of integer
matrices for the adjugate and the exact Bezout-form checks (``bezout``),
and only the results are turned back into Fractions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scalars import BACKEND_EXACT, BACKEND_FLOAT


def mat(rows, backend: str) -> np.ndarray:
    if backend == BACKEND_EXACT:
        out = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                out[i, j] = v if isinstance(v, Fraction) else Fraction(v)
        return out
    return np.array(rows, dtype=float)


def zeros(n: int, m: int, backend: str) -> np.ndarray:
    if backend == BACKEND_EXACT:
        out = np.empty((n, m), dtype=object)
        out[:] = Fraction(0)
        return out
    return np.zeros((n, m))


def identity(n: int, backend: str) -> np.ndarray:
    out = zeros(n, n, backend)
    for i in range(n):
        out[i, i] = Fraction(1) if backend == BACKEND_EXACT else 1.0
    return out


def backend_of(M: np.ndarray) -> str:
    return BACKEND_EXACT if M.dtype == object else BACKEND_FLOAT


def max_abs(M: np.ndarray):
    """Max-norm of the entries; Fraction for exact input, float otherwise."""
    M = np.asarray(M)
    if M.size == 0:
        return Fraction(0) if M.dtype == object else 0.0
    if M.dtype == object:
        return max(abs(v) for v in M.flat)
    return float(np.max(np.abs(M)))


def symmetry_defect(M: np.ndarray):
    """Max-norm of M - M^T; a Fraction for exact input, a float otherwise."""
    M = np.asarray(M)
    return max_abs(M - M.T)


def _integer_matrix(M: np.ndarray) -> tuple[list[list[int]], int]:
    """(A, D) with A integer rows and D the lcm of the denominators: M = A / D."""
    rows = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
            for row in np.asarray(M, dtype=object)]
    D = math.lcm(1, *(v.denominator for row in rows for v in row))
    return [[v.numerator * (D // v.denominator) for v in row] for row in rows], D


def _fraction_matrix(A: list[list[int]], num: int = 1, den: int = 1) -> np.ndarray:
    """Object array of the Fractions A[i][j] * num / den."""
    out = np.empty((len(A), len(A[0]) if A else 0), dtype=object)
    for i, row in enumerate(A):
        for j, v in enumerate(row):
            out[i, j] = Fraction(v * num, den)
    return out


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


def _bareiss_det(A: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination (Bareiss 1968).

    After step k every trailing entry is a (k+1)x(k+1) minor, so the division
    by the previous pivot is exact.
    """
    A = [row[:] for row in A]
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


def _faddeev_adjugate(A: list[list[int]]) -> list[list[int]]:
    """Adjugate of an integer matrix by Faddeev-LeVerrier.

    With M_1 = I, c_(n-1) = -tr(A), M_k = A M_(k-1) + c_(n-k+1) I and
    c_(n-k) = -tr(A M_k) / k, Cayley-Hamilton gives A M_n = -c_0 I, so
    adj(A) = (-1)^(n+1) M_n.  The c_k are the integer coefficients of the
    characteristic polynomial, so every division is exact; singular A needs
    no special case.
    """
    n = len(A)
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    c = -sum(A[i][i] for i in range(n))
    for k in range(2, n + 1):
        M = _matmul(A, M)
        for i in range(n):
            M[i][i] += c
        if k < n:
            c = -sum(A[i][j] * M[j][i] for i in range(n) for j in range(n)) // k
    return M if n % 2 else [[-v for v in row] for row in M]


def det(M: np.ndarray):
    """Determinant: a Fraction by Bareiss on the cleared integer matrix, else a float."""
    M = np.asarray(M)
    if M.dtype == object:
        A, D = _integer_matrix(M)
        return Fraction(_bareiss_det(A), D ** len(A))
    return float(np.linalg.det(M))


def adjugate(M: np.ndarray) -> np.ndarray:
    """Cofactor transpose, exact; total (defined for singular input as well).

    Faddeev-LeVerrier on Python ints.  Float entries are taken at their
    exact dyadic values, so the result is always a Fraction matrix.
    """
    A, D = _integer_matrix(M)
    return _fraction_matrix(_faddeev_adjugate(A), den=D ** (len(A) - 1))


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive semidefiniteness check.

    Exact inputs get an LDL pivot-sign certificate (pivots, rank); float
    inputs get the smallest eigenvalue against a tolerance.
    """

    is_psd: bool
    is_pd: bool
    method: str
    pivots: tuple | None = None
    rank: int | None = None
    min_eigenvalue: float | None = None
    witness: str = ""


def _integer_psd(A: list[list[int]], D: int = 1) -> PsdVerdict:
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
    A = [row[:] for row in A]
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


def psd_certificate(M: np.ndarray, tol: float = 1e-9) -> PsdVerdict:
    """Certify M >= 0; exact pivots for rational input, eigenvalues for float."""
    M = np.asarray(M)
    if M.dtype == object:
        return _integer_psd(*_integer_matrix(M))
    sym = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(sym)
    scale = max(1.0, float(np.max(np.abs(sym))))
    lo = float(eigs[0])
    is_psd = lo >= -tol * scale
    is_pd = lo > tol * scale
    witness = "" if is_psd else f"negative eigenvalue {lo:.3e}"
    return PsdVerdict(is_psd, is_pd, "eigenvalue", None, None, lo, witness)
