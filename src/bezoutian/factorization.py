"""Root-based factorization of Bezout matrices and separation certificates.

For strictly hyperbolic p with roots lambda_1 < ... < lambda_m the Bezout
matrix of (p, q) factors as G^T diag(alpha) G where row k of G is a signed
coefficient vector of the deleted-root factor prod_{j!=k}(x - lambda_j) and
alpha_k = q(lambda_k) / p'(lambda_k).  Multiple roots go through the reduced
factorization over distinct roots instead.

``separates`` decides exact p and q from the Bezout forms, with no root of
q: q separates the hyperbolic p iff H(p, q) >= 0 and rank H(p, q) =
rank H(p, p') (Hermite; Krein-Naimark 1936).  Float input compares roots
at a tolerance.  The roots of p enter only the lower-bound constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import exactla
from .bezout import bezout_matrix, psd_check
from .errors import DegreeMismatchError, MultipleRootError, NonHyperbolicError
from .polynomial import Polynomial, RootProfile, _horner_rows, deleted_root_factor
from .roots import real_roots
from .scalars import BACKEND_EXACT, infer_backend

if TYPE_CHECKING:
    import numpy as np


def lagrange_basis_matrix(roots) -> np.ndarray:
    """Signed elementary-symmetric matrix G, exact for exact roots.

    With 0-based indices, G[i][j] = (-1)**(i+j) * e_{m-1-j} of the roots
    with position i removed.  Row i is, up to the sign (-1)**(i+m+1), the
    ascending coefficient vector of the deleted-root factor p_i, so
    G.T @ G realizes the quadratic form sum_k |p_k_hat(z)|^2.

    Float roots of shape (..., m) give a float G of shape (..., m, m), one
    matrix per row of roots; exact roots (ints, Fractions or 'n/d' strings)
    come as one list and give an m x m object array of Fractions.  Every
    deleted-root row runs the recurrence of ``elementary_symmetric`` at
    once, so each entry keeps the bits of that function on its m - 1 roots.
    """
    import numpy as np

    if not isinstance(roots, np.ndarray) and infer_backend(roots := list(roots)) == BACKEND_EXACT:
        vals = np.array([Fraction(r) for r in roots], dtype=object)
        zero, one = Fraction(0), Fraction(1)
    else:
        vals, zero, one = np.array(roots, dtype=float), 0.0, 1.0
    m = vals.shape[-1]
    # row i of ``deleted`` holds the roots without position i
    col = np.arange(max(m - 1, 0))
    deleted = vals[..., col + (col >= np.arange(m)[:, None])]
    elem = np.full(deleted.shape[:-1] + (m,), zero, dtype=vals.dtype)
    elem[..., :1] = one
    for k in range(m - 1):
        elem[..., 1:] = elem[..., 1:] + deleted[..., k:k + 1] * elem[..., :-1]
    G = elem[..., ::-1].copy()
    odd = np.add.outer(np.arange(m), np.arange(m)) % 2 == 1
    G[..., odd] = -G[..., odd]
    return G


def scaled_inverse_diagonal(roots, p_prime) -> np.ndarray:
    """Diagonal d with G @ R = diag(d); d_i = (-1)**(i+m+1) p'(root_i).

    R[i][j] = root_j**i is the Vandermonde matrix np.vander(roots, increasing=True).T.
    ``roots`` is a float array (..., m) and ``p_prime`` the coefficients of
    p', leading first, one row (..., m) per row of roots; d has the shape
    of roots, each value with the bits of ``Polynomial.__call__``
    (``polynomial._horner_rows``).

    For ascending simple roots every d_i equals |p'(root_i)| > 0.
    """
    m = roots.shape[-1]
    d = _horner_rows(p_prime, roots)
    d[..., m % 2::2] = -d[..., m % 2::2]  # (-1)**(i+m+1) = -1 where i and m share parity
    return d


def difference_product(roots) -> Fraction:
    """prod_(i < j) (root_j - root_i), exact; floats enter at their dyadic values.

    The differences run on the roots' numerators over their common
    denominator D, and the product becomes one Fraction over D^(m(m-1)/2).
    """
    vals = [Fraction(r) for r in roots]
    D = math.lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (D // v.denominator) for v in vals]
    out = math.prod(b - a for i, a in enumerate(nums) for b in nums[i + 1:])
    return Fraction(out, D ** (len(nums) * (len(nums) - 1) // 2))


def _match_backend(poly: Polynomial, profile: RootProfile) -> tuple[Polynomial, list]:
    roots = list(profile.distinct_roots)
    if poly.backend == BACKEND_EXACT and all(isinstance(r, (int, Fraction)) for r in roots):
        return poly, [Fraction(r) for r in roots]
    return poly.as_float(), [float(r) for r in roots]


def _deflate_at_multiple_roots(q: Polynomial, profile: RootProfile, tol: float):
    """Divide q by prod (x - lambda_(j))**(r_j - 1); remainder must vanish."""
    b, roots = _match_backend(q, profile)
    for lam, r in zip(roots, profile.multiplicities):
        for _ in range(r - 1):
            lin = Polynomial((1, -lam), b.backend)
            b, rem = divmod(b, lin)
            if b.backend == BACKEND_EXACT:
                if not rem.is_zero:
                    raise ValueError("q does not vanish to the required order at a multiple root")
            else:
                scale = max(1.0, max(abs(float(c)) for c in q.coeffs))
                if not rem.is_zero and abs(float(rem.coeffs[0])) > tol * scale * 10:
                    raise ValueError("q does not vanish to the required order at a multiple root")
    return b


def lagrange_weights(p: Polynomial, q: Polynomial, tol: float = 1e-9) -> tuple:
    """Interpolation weights expressing q in the deleted-factor basis, at the roots of p at ``tol``.

    Simple roots: m weights q(lambda_k)/p'(lambda_k).  Multiple roots: the
    s weights b(lambda_(k)) / a_k(lambda_(k)) of the reduced factorization,
    where b is q with the forced multiple-root factors divided out and a_k
    deletes root k from the distinct-root product.  Exact roots give
    a_k(lambda_(k)) as the product of the differences lambda_(k) -
    lambda_(j), j != k, on integers over one denominator; float roots
    evaluate the deleted-root factor.
    """
    profile = real_roots(p, tol)
    if profile.is_strict:
        dp = p.derivative()
        dp, roots = _match_backend(dp, profile)
        qq, _ = _match_backend(q, profile)
        out = []
        for lam in roots:
            d = dp(lam)
            if d == 0:
                raise ZeroDivisionError("p'(root) vanished on the simple-root path")
            out.append(qq(lam) / d)
        return tuple(out)
    b = _deflate_at_multiple_roots(q, profile, tol)
    b, roots = _match_backend(b, profile)
    if b.backend != BACKEND_EXACT:
        return tuple(b(lam) / deleted_root_factor(roots, k)(lam) for k, lam in enumerate(roots))
    # a_k(lambda_k) = prod_(j != k) (lambda_k - lambda_j), on the roots' numerators over D
    D = math.lcm(*(lam.denominator for lam in roots))
    nums = [lam.numerator * (D // lam.denominator) for lam in roots]
    out = []
    for k, (lam, u) in enumerate(zip(roots, nums)):
        ak = math.prod(u - v for j, v in enumerate(nums) if j != k)  # D^(s-1) a_k(lambda_k)
        out.append(b(lam) * Fraction(D ** (len(roots) - 1), ak))
    return tuple(out)


def _weighted_gram(G: np.ndarray, weights) -> np.ndarray:
    """G^T diag(w) G, with diag(w) G taken as G's rows scaled by the weights."""
    import numpy as np

    return G.T @ (np.array(weights, dtype=G.dtype)[:, None] * G)


@dataclass(frozen=True)
class FactorizationBundle:
    """G and the weights realizing H = G^T diag(w) G, with its residual."""

    basis_matrix: np.ndarray
    weights: tuple
    residual: object

    def reconstruct(self) -> np.ndarray:
        return _weighted_gram(self.basis_matrix, self.weights)


def factorization_bundle(p: Polynomial, q: Polynomial) -> FactorizationBundle:
    """Build G and the weights for strictly hyperbolic p and report the
    residual against the directly constructed Bezout matrix."""
    import numpy as np

    profile = real_roots(p)
    if not profile.is_strict:
        raise MultipleRootError("factorization_bundle requires simple roots")
    pp, roots = _match_backend(p, profile)
    qq, _ = _match_backend(q, profile)
    G = lagrange_basis_matrix(roots)
    weights = lagrange_weights(p, q)
    residual = exactla.max_abs(_weighted_gram(G, weights) - np.asarray(bezout_matrix(pp, qq)))
    return FactorizationBundle(G, weights, residual)


@dataclass(frozen=True)
class SeparationCertificate:
    separates: bool
    constant_c: object
    leading_sign: int
    failure_reason: str = ""

    def __bool__(self) -> bool:
        return self.separates


def _root_failure(profile: RootProfile, q: Polynomial, tol: float) -> str:
    """Why q does not separate p, read from float roots at ``tol``; "" if it does."""
    try:
        prof_q = real_roots(q * (1 / q.leading), tol) if q.degree >= 1 else None
    except NonHyperbolicError as exc:
        return f"q is not real rooted: {exc}"
    lam = [float(x) for x in profile.distinct_roots]
    q_pairs = [(float(x), k) for x, k in zip(prof_q.distinct_roots, prof_q.multiplicities)] \
        if prof_q else []
    # multiplicity carry-over: q must contain lambda_(j) exactly r_j - 1 times
    used = set()
    for lv, r in zip(lam, profile.multiplicities):
        hit = {i for i, (x, _) in enumerate(q_pairs)
               if abs(x - lv) <= tol * max(1.0, abs(x), abs(lv))}
        have = sum(q_pairs[i][1] for i in hit)
        if have != r - 1:
            return f"root {lv:.6g} of p carries multiplicity {have} in q, expected {r - 1}"
        used |= hit
    mu = sorted(x for i, (x, k) in enumerate(q_pairs) if i not in used for _ in range(k))
    if len(mu) != len(lam) - 1:
        return f"expected {len(lam) - 1} interlacing roots, found {len(mu)}"
    for j, (left, mid, right) in enumerate(zip(lam, mu, lam[1:])):
        margin = tol * max(1.0, abs(mid))
        if mid - left <= margin or right - mid <= margin:
            if left <= mid <= right:
                return "boundary tie in interlacing"
            return f"interlacing fails at gap {j}: {left:.6g}, {mid:.6g}, {right:.6g}"
    return ""


def separates(p: Polynomial, q: Polynomial, tol: float = 1e-9) -> SeparationCertificate:
    """Decide whether q separates p and emit the certified lower-bound constant.

    q separates the hyperbolic p when it carries each multiple root of p
    with multiplicity exactly one less, its remaining roots strictly
    interlace the distinct roots of p, and its leading coefficient is
    positive.  On success constant_c = min_k weight_k / multiplicity_k
    certifies H - c * sum_k v_k v_k^T >= 0, with the weights at the roots of
    p found at ``tol``.
    """
    p.require_monic("separation target")
    if q.is_zero or q.degree != p.degree - 1:
        raise DegreeMismatchError(f"separating q must have degree {p.degree - 1}")
    by_forms = p.backend == BACKEND_EXACT and q.backend == BACKEND_EXACT
    if by_forms:
        hermite = psd_check(bezout_matrix(p, p.derivative()))
        if not hermite.is_psd:
            raise NonHyperbolicError(f"separation target is not hyperbolic: {hermite.witness}")
        psd = psd_check(bezout_matrix(p, q))
    else:
        profile = real_roots(p, tol)
    lead_sign = 1 if q.leading > 0 else -1
    if lead_sign < 0:
        reason = "negative leading coefficient"
    elif not by_forms:
        reason = _root_failure(profile, q, tol)
    elif not psd.is_psd:
        reason = f"interlacing fails: Bezout form of (p, q) is not PSD ({psd.witness})"
    elif psd.rank != hermite.rank:
        reason = (f"multiplicities differ: rank H(p, q) = {psd.rank}, "
                  f"rank H(p, p') = {hermite.rank}")
    else:
        reason = ""
    if reason:
        return SeparationCertificate(False, None, lead_sign, reason)
    weights = lagrange_weights(p, q, tol)
    c = min(w / r for w, r in zip(weights, real_roots(p, tol).multiplicities))
    return SeparationCertificate(True, c, lead_sign)


@dataclass(frozen=True)
class DerivativeBound:
    constant: object
    verified: bool


def derivative_bound_constant(p: Polynomial) -> DerivativeBound:
    """Constant c with (Bezout form of (p, p')) >= c |p'_hat(z)|^2.

    c = 1 / sum_k r_k**2 / w_k over distinct roots, with w the reduced
    interpolation weights of p'.  The certificate checks the matrix
    inequality H - c v v^T >= 0 directly (v = ascending coefficients of p').
    It runs exactly, on the integer rows of H and of p', when p is exact
    with rational roots, else in floats.
    """
    p.require_monic("derivative bound input")
    profile = real_roots(p)
    dp = p.derivative()
    weights = lagrange_weights(p, dp)
    acc = None
    for w, r in zip(weights, profile.multiplicities):
        term = r * r / w
        acc = term if acc is None else acc + term
    c = 1 / acc
    pp, _ = _match_backend(p, profile)
    dpp = pp.derivative()
    H = bezout_matrix(pp, dpp)
    if isinstance(H, exactla.IntMatrix):
        # v = k P with P the primitive ints of p', so with c k^2 = cn / cd,
        # H - c v v^T = (cd X - cn dx P P^T) / (dx cd) for H = X / dx
        P, k = dpp.primitive
        P = P[::-1]
        ck2 = Fraction(c) * k * k
        a, b = ck2.denominator, ck2.numerator * H.den
        diff = [[a * h - b * u * w for h, w in zip(row, P)] for row, u in zip(H.rows, P)]
        return DerivativeBound(c, exactla._integer_psd(diff, H.den * a).is_psd)
    import numpy as np

    v = dpp.ascending(int(p.degree))
    verdict = psd_check(H - float(c) * np.outer(v, v))
    return DerivativeBound(c, verdict.is_psd)
