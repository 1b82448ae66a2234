"""Bezout matrices, companion matrices, symmetrization and resultants.

The Bezout matrix H of (p, q) collects the coefficients of the bivariate
form (p(x)q(y) - p(y)q(x)) / (x - y); entry (i, j) multiplies x**i y**j.
For hyperbolic p and separating q it is positive semidefinite and makes
H @ A symmetric, where A is the companion matrix of p.

An exact form is an ``exactla.IntMatrix``, integer rows over one
denominator, and a float form is a read-only float64 array; the builders
return exactly that, with no wrapper.  With p = cp * P and q = cq * Q for
primitive integer P, Q (``Polynomial.primitive``), H(p, q) = cp * cq *
H(P, Q), so the synthetic division, its remainder and symmetry checks run
on the integer coefficients and the form keeps those rows over the
denominator of cp * cq; the companion matrix of monic p is built from its
primitive P.
The float companion matrices have one builder, ``_companion_stack``, which
stacks those of several polynomials of one degree for one eigensolver call
(the float family points of a Nuij grid, ``nuij._build_points``) and gives
``roots._float_roots`` and ``companion_matrix`` their one matrix.
For monic p the form of (p, p') is the deleted-factor gram
sum_k p_k(x) p_k(y), p_k = p / (x - lambda_k), so the separation bound
H(p, q) - c * H(p, p') >= 0 needs no roots.  It, the exact symmetrization
defect and the PSD certificate take the integer rows as they are, and only
results become Fractions.  p keeps each form it is divided into, keyed by
the value of q (``Polynomial.memo``), and an integer matrix keeps its LDL
certificate, from which det is read; so one request builds and eliminates
each distinct form once, and every form a function reads is one of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import exactla
from .errors import BackendMismatchError, DegreeMismatchError, NonzeroRemainderError
from .exactla import IntMatrix, PsdVerdict, psd_certificate
from .polynomial import Polynomial, _int_horner
from .scalars import BACKEND_EXACT, DEFAULT_TOL

if TYPE_CHECKING:
    import numpy as np


def _divide_form(pa: list, qa: list, n: int) -> tuple[list, list]:
    """(H rows, leftovers) of (p(x)q(y) - p(y)q(x)) / (x - y).

    ``pa`` and ``qa`` are ascending coefficients of length n + 1.  The
    numerator is a polynomial in x whose coefficients are polynomials in y,
    divided synthetically by (x - y); row i of H is the quotient coefficient
    of x**i, ascending in y.  The leftovers (the remainder, and the y**n terms
    the quotient never reaches) vanish in exact arithmetic.
    """
    zero = pa[0] * 0
    quo = [None] * n
    carry = [zero] * (n + 1)
    for k in range(n, 0, -1):
        row = [pa[k] * qb - qa[k] * pb + c for qb, pb, c in zip(qa, pa, carry)]
        quo[k - 1] = row
        carry = [zero] + row[:-1]  # multiply by y
    remainder = [pa[0] * qb - qa[0] * pb + c for qb, pb, c in zip(qa, pa, carry)]
    return [row[:n] for row in quo], remainder + [row[n] for row in quo]


def bezout_matrix(p: Polynomial, q: Polynomial) -> IntMatrix | np.ndarray:
    """Bezout matrix by two-variable synthetic division of the defining form.

    The division is exact in algebra; a surviving remainder raises
    NonzeroRemainderError.  Exact input is divided on the primitive integer
    coefficients and scaled by the two contents, giving an IntMatrix; float
    input gives a read-only float64 array.  The matrix size is
    max(deg p, deg q); shorter arguments are zero padded.  A float form
    with an entry or a remainder past the float64 range raises ValueError.
    p keeps the form, keyed by the value of q: an equal q gets the same
    object.  The form refers to neither polynomial, so p and its forms make
    no reference cycle.
    """
    return p.derived(("bezout", q), lambda: _bezout_matrix(p, q))


def _bezout_matrix(p: Polynomial, q: Polynomial) -> IntMatrix | np.ndarray:
    if p.backend != q.backend:
        raise BackendMismatchError("bezout_matrix arguments must share a backend")
    n = max(int(p.degree) if not p.is_zero else 0, int(q.degree) if not q.is_zero else 0)
    if n < 1:
        raise DegreeMismatchError("bezout_matrix needs at least one argument of degree >= 1")
    if p.backend == BACKEND_EXACT:
        (P, cp), (Q, cq) = p.primitive, q.primitive
        pa = P[::-1] + (0,) * (n + 1 - len(P))
        qa = Q[::-1] + (0,) * (n + 1 - len(Q))
        rows, leftovers = _divide_form(pa, qa, n)
        if any(leftovers):
            raise NonzeroRemainderError("bezout division left a remainder (arithmetic fault)")
        if exactla._asymmetry(rows):
            raise NonzeroRemainderError("bezout matrix came out asymmetric (arithmetic fault)")
        scale = cp * cq
        num = scale.numerator
        return IntMatrix(tuple(tuple(v * num for v in row) for row in rows), scale.denominator)
    import numpy as np

    pa = list(p.ascending(n + 1))
    qa = list(q.ascending(n + 1))
    rows, leftovers = _divide_form(pa, qa, n)
    H = np.array(rows, dtype=float)
    # inf and NaN would pass both tests below (NaN fails every comparison)
    if not (np.isfinite(H).all() and all(map(math.isfinite, leftovers))):
        raise ValueError("the float Bezout form of (p, q) leaves the float64 range")
    scale = (n + 1) * max(1.0, max(abs(v) for v in pa) * max(abs(v) for v in qa))
    if max(abs(v) for v in leftovers) > 1e-10 * scale:
        raise NonzeroRemainderError("bezout division remainder above float tolerance")
    if exactla.symmetry_defect(H) > 1e-12 * max(1.0, exactla.max_abs(H)):
        raise NonzeroRemainderError("bezout matrix asymmetric beyond float tolerance")
    H.flags.writeable = False  # p keeps the form, so every caller reads this array
    return H


def companion_matrix(p: Polynomial) -> IntMatrix | np.ndarray:
    """Companion (Sylvester) matrix: shift rows on top, -(a_m..a_1) last row.

    Exact p = P / L, with P primitive and L its leading coefficient, gives
    the IntMatrix of the integer rows of L A over L; float p gives the one
    matrix of ``_companion_stack``, read-only.
    """
    p.require_monic("companion matrix input")
    m = int(p.degree)
    if m < 1:
        raise DegreeMismatchError("companion matrix needs degree >= 1")
    if p.backend == BACKEND_EXACT:
        P = p.primitive[0]
        L = P[0]
        rows = [tuple(L if j == i + 1 else 0 for j in range(m)) for i in range(m - 1)]
        rows.append(tuple(-c for c in P[:0:-1]))
        return IntMatrix(tuple(rows), L)
    A = _companion_stack([p.coeffs])[0]
    A.flags.writeable = False
    return A


def _companion_stack(coeff_rows) -> np.ndarray:
    """The float companion matrices of p / lc(p) for polynomials p of one degree m >= 1.

    ``coeff_rows`` holds the coefficients of each p, leading first; the
    result stacks the m x m matrices in one (n, m, m) array: ones on the
    superdiagonal and -(a_m .. a_1) / lc(p) as the last row.  For monic p
    the division by 1.0 changes no bit.
    """
    import numpy as np

    c = np.array(coeff_rows, dtype=float)
    n, m = c.shape[0], c.shape[1] - 1
    A = np.zeros((n, m, m))
    A.reshape(n, m * m)[:, 1:m * (m - 1):m + 1] = 1.0  # the superdiagonal
    A[:, -1] = -(c[:, :0:-1] / c[:, :1])
    return A


def symmetrization_defect(H, A) -> Fraction:
    """Max-norm of HA - (HA)^T, exact; zero iff H symmetrizes A.

    The matrices are multiplied as integer matrices, H = X / dx and
    A = Y / dy, so the defect is that of XY over dx * dy; float entries are
    taken at their exact dyadic values.
    """
    X, Y = IntMatrix.of(H), IntMatrix.of(A)
    return Fraction(exactla._asymmetry(exactla._matmul(X.rows, Y.rows)), X.den * Y.den)


def psd_check(H) -> PsdVerdict:
    """Positive semidefiniteness certificate for a symmetric matrix, exact (``psd_certificate``)."""
    return psd_certificate(H)


def discriminant(p: Polynomial):
    """det of the Bezout matrix of (p, p'); the squared root difference product."""
    p.require_monic("discriminant input")
    return exactla.det(bezout_matrix(p, p.derivative()))


def resultant_sign(m: int) -> int:
    """Frozen sign relating det H to the root product, certified for m = 2..5.

    det bezout(p, q) = resultant_sign(m) * prod_j q(lambda_j) for monic
    hyperbolic p of degree m and deg q <= m-1.
    """
    return -1 if (m * (m - 1) // 2) % 2 else 1


@dataclass(frozen=True)
class Resultant:
    det_h: object
    root_product: object
    sign_factor: int

    def consistency_residual(self):
        return abs(self.det_h - self.sign_factor * self.root_product)


def resultant(p: Polynomial, q: Polynomial) -> Resultant:
    """det H(p, q) next to the root product prod_j q(lambda_j) and their sign factor.

    A float root (an irrational one) enters at its exact dyadic value, so the
    product of exact q never leaves the float range; float q does the same
    with its coefficients (``as_exact``).  With q = cq * Q for primitive
    integer Q, each q(n/d) is cq * Q(n/d) and Q(n/d) d^k an integer
    (``polynomial._int_horner``), so the product is one Fraction of two
    integer products.
    """
    from .roots import real_roots

    p.require_monic("resultant input")
    m = int(p.degree)
    if not q.is_zero and q.degree > m - 1:
        raise DegreeMismatchError("resultant requires deg q <= deg p - 1")
    det_h = exactla.det(bezout_matrix(p, q))
    if q.is_zero:
        return Resultant(det_h, Fraction(0), resultant_sign(m))
    Q, cq = q.as_exact().primitive
    num, den = cq.numerator ** m, cq.denominator ** m
    for lam in real_roots(p).flattened:
        acc, dk = _int_horner(Q, *lam.as_integer_ratio())
        num, den = num * acc, den * dk
    return Resultant(det_h, Fraction(num, den), resultant_sign(m))


def separation_lower_bound_check(p: Polynomial, q: Polynomial, c,
                                 tol: float = DEFAULT_TOL) -> bool:
    """Check H(p, q) - c * H(p, p') >= 0 for monic p.

    H(p, p') is the deleted-factor gram sum_k v_k v_k^T, v_k the ascending
    coefficients of p / (x - lambda_k), so the lower bound
    c * sum_k |p_k_hat(z)|^2 needs no roots.  The forms are certified on
    integer matrices (float entries at their exact dyadic values): a
    rational c as it is, a float c (from irrational roots) as the rational
    Fraction(c) * (1 - tol) below it.
    """
    p.require_monic("separation bound input")
    H = bezout_matrix(p, q)
    gram = bezout_matrix(p, p.derivative())
    if H.shape != gram.shape:
        raise DegreeMismatchError(
            f"Bezout matrix of shape {H.shape} against {gram.shape} for (p, p')"
        )
    c = Fraction(c) if isinstance(c, (int, Fraction)) else Fraction(c) * (1 - Fraction(tol))
    return exactla.psd_difference(IntMatrix.of(H), IntMatrix.of(gram), c).is_psd
