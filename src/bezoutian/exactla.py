"""Small dense matrix helpers over both scalar backends.

Exact matrices are numpy object arrays of Fractions; float matrices are
ordinary float64 arrays.  The exact determinant and adjugate clear the
denominators once, M = A / D with A an integer matrix and D the lcm of the
entry denominators, and run on Python ints: det(M) = det(A) / D^m by
Bareiss fraction-free elimination, adj(M) = adj(A) / D^(m-1) by
Faddeev-LeVerrier, whose divisions are exact over the integers.
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
    return max_abs(M - M.T)


def _integer_matrix(M: np.ndarray) -> tuple[list[list[int]], int]:
    """(A, D) with A integer rows and D the lcm of the denominators: M = A / D."""
    rows = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
            for row in np.asarray(M, dtype=object)]
    D = math.lcm(1, *(v.denominator for row in rows for v in row))
    return [[v.numerator * (D // v.denominator) for v in row] for row in rows], D


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
        cols = list(zip(*M))
        M = [[sum(map(operator.mul, row, col)) for col in cols] for row in A]
        for i in range(n):
            M[i][i] += c
        if k < n:
            c = -sum(A[i][j] * M[j][i] for i in range(n) for j in range(n)) // k
    return M if n % 2 else [[-v for v in row] for row in M]


def exact_det(M: np.ndarray) -> Fraction:
    """Exact determinant: Bareiss on the integer matrix with denominators cleared."""
    A, D = _integer_matrix(M)
    return Fraction(_bareiss_det(A), D ** len(A))


def det(M: np.ndarray):
    M = np.asarray(M)
    if M.dtype == object:
        return exact_det(M)
    return float(np.linalg.det(M))


def adjugate(M: np.ndarray) -> np.ndarray:
    """Cofactor transpose; total (defined for singular input as well).

    Exact input runs Faddeev-LeVerrier on Python ints; float input takes
    the cofactor of every minor.
    """
    M = np.asarray(M)
    n = M.shape[0]
    if M.dtype == object:
        A, D = _integer_matrix(M)
        scale = D ** (n - 1)
        out = np.empty((n, n), dtype=object)
        for i, row in enumerate(_faddeev_adjugate(A)):
            for j, v in enumerate(row):
                out[i, j] = Fraction(v, scale)
        return out
    if n == 1:
        return np.ones((1, 1))
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            minor = M[np.ix_([r for r in range(n) if r != i], [c for c in range(n) if c != j])]
            cof = det(minor)
            if (i + j) % 2:
                cof = -cof
            out[j, i] = cof
    return out


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


def _exact_psd(M: np.ndarray) -> PsdVerdict:
    A = [[Fraction(v) for v in row] for row in np.asarray(M, dtype=object)]
    n = len(A)
    active = list(range(n))
    pivots = []
    while active:
        neg = next((k for k in active if A[k][k] < 0), None)
        if neg is not None:
            return PsdVerdict(False, False, "ldl-pivot", tuple(pivots), len(pivots),
                              witness=f"negative diagonal entry at index {neg}")
        pos = [k for k in active if A[k][k] > 0]
        if not pos:
            # all remaining diagonal entries are zero; PSD forces the block to vanish
            for i in active:
                for j in active:
                    if A[i][j] != 0:
                        return PsdVerdict(False, False, "ldl-pivot", tuple(pivots), len(pivots),
                                          witness=f"zero diagonal with nonzero entry ({i},{j})")
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
    rank = len(pivots)
    return PsdVerdict(True, rank == n, "ldl-pivot", tuple(pivots), rank)


def psd_certificate(M: np.ndarray, tol: float = 1e-9) -> PsdVerdict:
    """Certify M >= 0; exact pivots for rational input, eigenvalues for float."""
    M = np.asarray(M)
    if M.dtype == object:
        return _exact_psd(M)
    sym = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(sym)
    scale = max(1.0, float(np.max(np.abs(sym))))
    lo = float(eigs[0])
    is_psd = lo >= -tol * scale
    is_pd = lo > tol * scale
    witness = "" if is_psd else f"negative eigenvalue {lo:.3e}"
    return PsdVerdict(is_psd, is_pd, "eigenvalue", None, None, lo, witness)
