"""Certified real-root extraction and hyperbolicity testing.

The exact backend never trusts a float where it matters: multiplicities come
from gcd structure (Yun decomposition) and hyperbolicity from Sturm counts,
so rational inputs get exact multiplicity profiles and exact verdicts.  Root
values that are irrational are polished eigenvalues of the companion matrix
of a square-free factor, where they are simple and well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonHyperbolicError, NonMonicError
from .polynomial import Polynomial, RootProfile
from .scalars import BACKEND_EXACT

DEFAULT_TOL = 1e-9

# beyond this, rational-root candidate enumeration is not worth it
_FACTOR_BOUND = 10**12


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over the rationals (Euclid with monic normalization)."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a * (Fraction(1) / Fraction(a.leading))


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition p = lc * prod f_i^i with square-free monic f_i."""
    if p.backend != BACKEND_EXACT:
        raise ValueError("square-free decomposition requires the exact backend")
    if p.degree < 1:
        return []
    f = p * (Fraction(1) / Fraction(p.leading))
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    c = f // g
    d = (f.derivative() // g) - c.derivative()
    out = []
    i = 1
    while True:
        a = poly_gcd(c, d)
        if a.degree >= 1:
            out.append((a, i))
        c = c // a if a.degree >= 1 else c
        if c.degree == 0:
            break
        d = (d // a if a.degree >= 1 else d) - c.derivative()
        i += 1
    return out


def radical(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors (square-free part)."""
    parts = squarefree_decomposition(p)
    out = Polynomial.one()
    for f, _ in parts:
        out = out * f
    return out


def sturm_chain(f: Polynomial) -> list[Polynomial]:
    chain = [f, f.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_at_inf(g: Polynomial, positive: bool) -> int:
    if g.is_zero:
        return 0
    s = 1 if g.leading > 0 else -1
    if not positive and (len(g.coeffs) - 1) % 2 == 1:
        s = -s
    return s


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_real_root_count(p: Polynomial) -> int:
    """Number of distinct real roots, exact (Sturm sequence over Q)."""
    if p.backend != BACKEND_EXACT:
        raise ValueError("Sturm counting requires the exact backend")
    if p.degree < 1:
        return 0
    f = radical(p)
    chain = sturm_chain(f)
    v_neg = _variations([_sign_at_inf(g, positive=False) for g in chain])
    v_pos = _variations([_sign_at_inf(g, positive=True) for g in chain])
    return v_neg - v_pos


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, ascending, from its factorization by trial division."""
    n = abs(n)
    divs = [1]
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            divs = [x * d**k for x in divs for k in range(e + 1)]
        d += 1 if d == 2 else 2
    if n > 1:
        divs += [x * n for x in divs]
    return sorted(divs)


def _vanishes_at(c: list[int], r: int, q: int) -> bool:
    """Whether c (integers, leading first) vanishes at r/q: sum c_i r^(n-i) q^i == 0."""
    acc, qpow = 0, 1
    for ci in c:
        acc = acc * r + ci * qpow
        qpow *= q
    return acc == 0


def _deflate(c: list[int], r: int, q: int) -> list[int]:
    """The integer quotient of c by q x - r, which must divide it."""
    out = [c[0] // q]
    for ci in c[1:-1]:
        out.append((ci + r * out[-1]) // q)
    return out


def _search_state(c: list[int]) -> tuple[int, int, int, int, int]:
    """|lc|, c_0, B, c(1), c(-1); every root has |x| <= B / |lc| (Cauchy's bound)."""
    lc = abs(c[0])
    bound = lc + max(abs(v) for v in c[1:])
    rev = c[::-1]
    return lc, c[-1], bound, sum(c), sum(rev[0::2]) - sum(rev[1::2])


def _rational_roots(f: Polynomial) -> tuple[list[Fraction], Polynomial]:
    """All rational roots of a square-free exact polynomial, plus the cofactor.

    The cofactor is f's primitive integer multiple divided by x - root for
    every root found.  A root r/q in lowest terms of the current integer
    polynomial c has q | lc and r | c_0 (rational root theorem), lies within
    the Cauchy bound, and q x - r divides c, so q - r divides c(1) and q + r
    divides c(-1); each candidate passing these tests is checked by
    homogeneous integer Horner and deflated exactly.
    """
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    found: list[Fraction] = []
    while len(ints) > 1 and ints[-1] == 0:
        found.append(Fraction(0))
        ints.pop()
    scale = 1  # product of the found denominators: the cofactor is over x - r/q, not q x - r
    if len(ints) > 1 and abs(ints[-1]) <= _FACTOR_BOUND and abs(ints[0]) <= _FACTOR_BOUND:
        numerators = _divisors(ints[-1])
        lc, c0, cauchy, at_one, at_minus_one = _search_state(ints)
        for q in _divisors(ints[0]):
            for r in numerators:
                if len(ints) < 2 or lc % q or r * lc > cauchy * q:
                    break
                if c0 % r or math.gcd(r, q) != 1:
                    continue
                for num in (r, -r):
                    if ((q == num or at_one % (q - num) == 0)
                            and (q == -num or at_minus_one % (q + num) == 0)
                            and _vanishes_at(ints, num, q)):
                        found.append(Fraction(num, q))
                        ints = _deflate(ints, num, q)
                        scale *= q
                        if len(ints) < 2:
                            break
                        lc, c0, cauchy, at_one, at_minus_one = _search_state(ints)
    return sorted(found), Polynomial.exact([scale * v for v in ints])


def _companion_floats(p: Polynomial) -> np.ndarray:
    m = len(p.coeffs) - 1
    lc = float(p.coeffs[0])
    a = [float(c) / lc for c in p.coeffs[1:]]
    C = np.zeros((m, m))
    for i in range(m - 1):
        C[i, i + 1] = 1.0
    C[m - 1, :] = [-a[m - 1 - j] for j in range(m)]
    return C


def _newton_polish(pf: Polynomial, z: complex, steps: int = 12) -> complex:
    dp = pf.derivative()
    best, best_val = z, abs(pf(complex(z)))
    for _ in range(steps):
        d = dp(complex(z))
        if d == 0:
            break
        z = z - pf(complex(z)) / d
        v = abs(pf(complex(z)))
        if v < best_val:
            best, best_val = z, v
    return best


def _float_roots(p: Polynomial) -> list[complex]:
    """Polished eigenvalues of the companion matrix (any multiplicity pattern)."""
    pf = p.as_float()
    eigs = np.linalg.eigvals(_companion_floats(pf))
    return [_newton_polish(pf, complex(z)) for z in eigs]


def _require_real(values, tol: float) -> list[float]:
    scale = max(1.0, max(abs(z) for z in values))
    bad = [z for z in values if abs(z.imag) > tol * scale]
    if bad:
        raise NonHyperbolicError(f"complex roots detected, e.g. {bad[0]:.6g}")
    return sorted(z.real for z in values)


def _residual_check(p: Polynomial, roots, tol: float):
    pf = p.as_float()
    norm = max(abs(float(c)) for c in pf.coeffs)
    m = max(1, len(pf.coeffs) - 1)
    for lam in roots:
        bound = tol * norm * max(1.0, abs(float(lam))) ** m
        if abs(pf(float(lam))) > bound:
            raise ArithmeticError(f"root {lam} failed the residual check")


def real_roots(p: Polynomial, tol: float = DEFAULT_TOL,
               imag_tol: float | None = None) -> RootProfile:
    """Sorted real roots with multiplicities.

    Exact backend: multiplicities from the Yun decomposition (exact), root
    values exact when rational, else polished floats on square-free factors.
    Float backend: companion eigenvalues, Newton polishing, and merging of
    clusters closer than tol*max(1,|root|).  ``imag_tol`` loosens only the
    complex-root rejection threshold; callers that already know the input
    is real rooted (smoothing families) use it to tolerate the conjugate
    splitting the eigensolver produces at tight root clusters.
    """
    p.require_monic("real_roots input")
    if p.degree < 1:
        raise ValueError("real_roots requires degree >= 1")
    itol = tol if imag_tol is None else imag_tol
    if p.backend == BACKEND_EXACT:
        pairs: list[tuple[object, int]] = []
        all_rational = True
        for factor, mult in squarefree_decomposition(p):
            rational, rest = _rational_roots(factor)
            pairs.extend((r, mult) for r in rational)
            if rest.degree >= 1:
                all_rational = False
                vals = _require_real(_float_roots(rest), itol)
                pairs.extend((v, mult) for v in vals)
        if not all_rational:
            pairs = [(float(r), m) for r, m in pairs]
        pairs.sort(key=lambda rm: rm[0])
        profile = RootProfile(tuple(r for r, _ in pairs), tuple(m for _, m in pairs))
    else:
        vals = _require_real(_float_roots(p), itol)
        profile = RootProfile.from_flat(vals, tol=tol)
    _residual_check(p, profile.distinct_roots, max(tol, 1e-12))
    return profile


@dataclass(frozen=True)
class HyperbolicityVerdict:
    is_hyperbolic: bool
    is_strict: bool
    witness: object  # RootProfile on success, reason string on failure
    method: str

    def __bool__(self) -> bool:
        return self.is_hyperbolic


def is_hyperbolic(p: Polynomial, tol: float = DEFAULT_TOL) -> HyperbolicityVerdict:
    """Hermite criterion cross-checked against a Sturm count (exact backend).

    The two certificates are independent: the Sturm count needs no matrix
    work, the Hermite route checks positive semidefiniteness of the Bezout
    matrix of (p, p').  They must agree on exact input.
    """
    from .bezout import bezout_matrix, psd_check

    if p.is_zero or p.degree < 1:
        return HyperbolicityVerdict(False, False, "degree < 1", "degenerate")
    monic = p * (1 / p.leading) if not p.is_monic else p
    if p.backend == BACKEND_EXACT:
        count = sturm_real_root_count(monic)
        distinct = radical(monic).degree
        sturm_verdict = count == distinct
        hermite = psd_check(bezout_matrix(monic, monic.derivative()), tol)
        if hermite.is_psd != sturm_verdict:
            raise ArithmeticError(
                "internal fault: Sturm and Hermite certificates disagree"
            )
        strict = sturm_verdict and distinct == monic.degree
        if not sturm_verdict:
            return HyperbolicityVerdict(False, False, "complex roots (Sturm count short)", "sturm")
        return HyperbolicityVerdict(True, strict, real_roots(monic, tol), "sturm")
    hermite = psd_check(bezout_matrix(monic, monic.derivative()), tol)
    if not hermite.is_psd:
        return HyperbolicityVerdict(
            False, False, f"Bezout form of (p, p') indefinite: {hermite.witness}", "hermite-psd"
        )
    try:
        profile = real_roots(monic, tol)
    except NonHyperbolicError as exc:
        return HyperbolicityVerdict(False, False, str(exc), "hermite-psd")
    return HyperbolicityVerdict(True, profile.is_strict, profile, "hermite-psd")


def max_multiplicity(profile: RootProfile) -> int:
    return profile.max_multiplicity
