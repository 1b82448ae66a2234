"""Root-based factorization of Bezout matrices and separation certificates.

For strictly hyperbolic p with roots lambda_1 < ... < lambda_m the Bezout
matrix of (p, q) factors as G^T diag(alpha) G where row k of G is a signed
coefficient vector of the deleted-root factor prod_{j!=k}(x - lambda_j) and
alpha_k = q(lambda_k) / p'(lambda_k).  Multiple roots go through the reduced
factorization over distinct roots: with g = gcd(p, p'), the radical
r = p / g and b = q / g, one weight b(lambda_k) / r'(lambda_k) per distinct
root (``lagrange_weights``), which is the formula above when g = 1.

``separates`` decides exact p and q from the form H(p, q), with no root of
q: q separates the hyperbolic p iff H(p, q) >= 0 and rank H(p, q) =
rank H(p, p') = deg p - deg gcd(p, p') (Hermite; Krein-Naimark 1936), read
with p's hyperbolicity from the Sturm chain p keeps.  Float input compares
roots at a tolerance.  The roots of p enter only the lower-bound constant.  At
q = p' every weight is its root's multiplicity, so the derivative bound
H(p, p') >= c p' p'^T has the closed form c = 1/deg p
(``derivative_bound_constant``), which holds exactly when p is hyperbolic,
so it is certified by the Sturm chain of p alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import exactla
from .bezout import bezout_matrix, psd_check
from .errors import DegreeMismatchError, MultipleRootError, NonHyperbolicError
from .polynomial import Polynomial, RootProfile, _horner_rows
from .roots import _exact_quotient, _hyperbolic_strict, _sturm_gcd, real_roots
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
    deleted-root row runs the elementary symmetric recurrence
    e_i += v e_(i-1) at once, so each entry keeps the bits of that
    recurrence run on its m - 1 roots alone.
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


def lagrange_weights(p: Polynomial, q: Polynomial, tol: float = 1e-9) -> tuple:
    """Interpolation weights expressing q in the deleted-factor basis, at the roots of p at ``tol``.

    One weight per distinct root lambda_k of multiplicity r_k: with
    g = gcd(p, p') = prod (x - lambda_k)^(r_k - 1), b = q / g and the
    radical r = p / g, w_k = b(lambda_k) / r'(lambda_k), where r' at
    lambda_k is the product of the differences lambda_k - lambda_j, j != k.
    For simple roots g = 1, so w_k = q(lambda_k) / p'(lambda_k).  Exact p
    and q read g from the Sturm chain p keeps (``roots._sturm_gcd``), divide
    q once and take r on the primitive integers; each rational root gives
    an exact weight, and each irrational root, a float, a float weight.
    Otherwise g and r are built from the float roots, and q may leave a
    remainder of 10 tol times its largest coefficient.  A larger remainder
    raises ValueError: q does not vanish to the order r_k - 1 at lambda_k.
    A float weight that overflows (b and r' past the float64 range at a
    root near its limit) is the ratio at the root's exact dyadic value,
    rounded; one that is past the range itself raises ValueError naming it.
    """
    profile = real_roots(p, tol)
    exact = p.backend == BACKEND_EXACT and q.backend == BACKEND_EXACT
    roots = profile.distinct_roots if exact else [float(x) for x in profile.distinct_roots]
    if profile.is_strict:
        b, dr = q, p.derivative()
    else:
        if exact:
            g = _sturm_gcd(p)
            b, rem = divmod(q, Polynomial.exact(g))
            vanishes = rem.is_zero
            P = p.primitive[0]
            r = Polynomial.exact([Fraction(v, P[0]) for v in _exact_quotient(P, g)])
        else:
            g = Polynomial.from_roots([lam for lam, k in zip(roots, profile.multiplicities)
                                       for _ in range(k - 1)])
            r = Polynomial.from_roots(roots)
            b, rem = divmod(q.as_float(), g)
            scale = max(1.0, max(abs(float(c)) for c in q.coeffs))
            vanishes = all(abs(c) <= tol * scale * 10 for c in rem.coeffs)
        if not vanishes:
            raise ValueError("q does not vanish to the required order at a multiple root")
        dr = r.derivative()
    weights = []
    for lam in roots:
        w = b(lam) / dr(lam)
        if isinstance(w, float) and not math.isfinite(w):
            # b and r' overflow at a float root near the float64 limit (inf / inf):
            # the ratio at the root's exact dyadic value
            x = Fraction(lam)
            try:
                w = float(b.as_exact()(x) / dr.as_exact()(x))
            except OverflowError:
                raise ValueError(f"the Lagrange weight at root {lam:.6g} leaves the float64 "
                                 "range") from None
        weights.append(w)
    return tuple(weights)


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
    p found at ``tol`` (``lagrange_weights``): exact where every root of
    exact p is rational, a float where the least ratio falls at an
    irrational root.  Exact p and q eliminate H(p, q) alone.
    """
    p.require_monic("separation target")
    if q.is_zero or q.degree != p.degree - 1:
        raise DegreeMismatchError(f"separating q must have degree {p.degree - 1}")
    by_forms = p.backend == BACKEND_EXACT and q.backend == BACKEND_EXACT
    if by_forms:
        if not _hyperbolic_strict(p)[0]:
            raise NonHyperbolicError("separation target is not hyperbolic: "
                                     "complex roots (Sturm count short)")
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
    elif psd.rank != (rank := p.degree + 1 - len(_sturm_gcd(p))):
        reason = f"multiplicities differ: rank H(p, q) = {psd.rank}, rank H(p, p') = {rank}"
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
    """Constant c with (Bezout form of (p, p')) >= c |p'_hat(z)|^2: c = 1/m, m = deg p.

    For hyperbolic p with distinct roots lambda_k of multiplicities r_k, let
    e_k be the ascending coefficients of p / (x - lambda_k).  Then
    H(p, p') = sum_k r_k e_k e_k^T and p' = sum_k r_k e_k (every weight of
    ``lagrange_weights`` at q = p' is r_k), so Cauchy-Schwarz with the
    weights r_k gives (v . z)^2 <= (sum_k r_k) z^T H z for v the
    coefficients of p': H - v v^T / m >= 0.  The e_k are independent, so
    some z makes every e_k . z equal, and no larger c holds.  Conversely
    H - v v^T / m >= 0 implies H >= 0, so p is hyperbolic (Hermite).  The
    bound therefore holds exactly when p is hyperbolic, and ``verified``
    is read from the Sturm chain of p's exact value (``roots._sturm``):
    no form, no root and no weight.  A float p is decided at its exact
    dyadic value.
    """
    p.require_monic("derivative bound input")
    if p.degree < 1:
        raise DegreeMismatchError("the derivative bound needs degree >= 1")
    return DerivativeBound(Fraction(1, int(p.degree)), _hyperbolic_strict(p.as_exact())[0])
