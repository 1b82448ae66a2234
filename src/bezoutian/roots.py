"""Certified real-root extraction and hyperbolicity testing.

The exact backend never trusts a float where it matters: multiplicities come
from gcd structure (Yun decomposition) and hyperbolicity from one Sturm
chain, so rational inputs get exact multiplicity profiles and exact verdicts.
``is_hyperbolic`` decides exact input without a root and reads the root
profile only when a caller asks for its witness.  Root values that are
irrational are polished eigenvalues of the companion matrix of a
square-free factor, where they are simple and well conditioned; the Newton
polish stops at a fixed point.

The exact kernels clear a polynomial's denominators once and run on its
primitive integer coefficients (Python ints, leading first): the gcd is a
primitive remainder sequence of pseudo-remainders, Yun's quotients are exact
integer divisions, the Sturm chain of pseudo-remainders gives the real-root
count from its degrees and leading signs and ends at gcd(p, p'), and the
rational-root search tests integer candidates.  The monic factors, counts
and roots they return equal those of Fraction arithmetic.  The Sturm kernel
takes an integer list directly, so a caller holding one (the Nuij stage
chain of ``nuij.certify_stages``) builds no Polynomial for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bezout import companion_matrix
from .errors import NonHyperbolicError
from .polynomial import Polynomial, RootProfile, _primitive
from .scalars import BACKEND_EXACT

DEFAULT_TOL = 1e-9

# beyond this, rational-root candidate enumeration is not worth it
_FACTOR_BOUND = 10**12


def _derivative(c: list) -> list:
    """Derivative of an integer coefficient list, leading first."""
    n = len(c) - 1
    return [v * (n - i) for i, v in enumerate(c[:-1])]


def _strip(c: list) -> list:
    i = 0
    while i < len(c) and c[i] == 0:
        i += 1
    return c[i:]


def _sub(a: list, b: list) -> list:
    """a - b for integer coefficient lists, leading first."""
    n = max(len(a), len(b))
    a = [0] * (n - len(a)) + a
    b = [0] * (n - len(b)) + b
    return _strip([x - y for x, y in zip(a, b)])


def _prem(a: list, b: list) -> list:
    """The remainder of c * a on division by b, for some integer c > 0.

    Integer coefficient lists, leading first, deg a >= deg b >= 0.  Each
    elimination step multiplies by |lc b|, so the result is a positive
    multiple of the rational remainder and keeps its sign.
    """
    lead, sign = abs(b[0]), 1 if b[0] > 0 else -1
    r = list(a)
    steps = len(a) - len(b) + 1
    for i in range(steps):
        f = sign * r[i]
        if f:
            for j in range(i + 1, len(r)):
                r[j] *= lead
            for j in range(1, len(b)):
                r[i + j] -= f * b[j]
    return _strip(r[steps:])


def _int_primitive(c: list) -> list:
    """Primitive part of an integer coefficient list: c over the gcd of its entries.

    The gcd is positive, so signs are kept; an empty or primitive list comes
    back as it is.
    """
    g = math.gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _exact_quotient(a: list, b: list) -> list:
    """a / b for integer coefficient lists when the quotient is integral.

    By Gauss's lemma it is whenever b is primitive and divides a over Q.
    """
    lead = b[0]
    r = list(a)
    q = []
    for i in range(len(a) - len(b) + 1):
        f = r[i] // lead
        q.append(f)
        if f:
            for j in range(1, len(b)):
                r[i + j] -= f * b[j]
    return q


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over the rationals; the zero polynomial when both are zero.

    A primitive polynomial remainder sequence on Python ints (Collins 1967,
    Brown 1971): pseudo-remainders, each divided by its integer content.
    """
    if f.backend != BACKEND_EXACT or g.backend != BACKEND_EXACT:
        raise ValueError("poly_gcd requires the exact backend")
    a, b = _primitive(f.coeffs)[0], _primitive(g.coeffs)[0]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_primitive(_prem(a, b))
    if not a:
        return Polynomial.zero()
    return Polynomial.exact([Fraction(v, a[0]) for v in a])


def _int_gcd(a: list, b: list) -> tuple[Polynomial, list]:
    """poly_gcd of integer polynomials: the monic gcd and its primitive ints."""
    g = poly_gcd(Polynomial.exact(a), Polynomial.exact(b))
    return g, _primitive(g.coeffs)[0]


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition p = lc * prod f_i^i with square-free monic f_i (Yun 1976).

    Runs on the primitive integer multiple of p.  Every divisor is a
    primitive gcd, so every quotient is an exact integer division (Gauss's
    lemma).
    """
    if p.backend != BACKEND_EXACT:
        raise ValueError("square-free decomposition requires the exact backend")
    if p.degree < 1:
        return []
    f = _primitive(p.coeffs)[0]
    df = _derivative(f)
    g = _int_gcd(f, df)[1]
    if len(g) == 1:
        return [(Polynomial.exact([Fraction(v, f[0]) for v in f]), 1)]
    c = _exact_quotient(f, g)
    d = _sub(_exact_quotient(df, g), _derivative(c))
    out = []
    i = 1
    while True:
        factor, a = _int_gcd(c, d)
        if len(a) > 1:
            out.append((factor, i))
            c = _exact_quotient(c, a)
        if len(c) == 1:
            break
        d = _sub(_exact_quotient(d, a), _derivative(c))
        i += 1
    return out


def radical(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors (square-free part)."""
    parts = squarefree_decomposition(p)
    out = Polynomial.one()
    for f, _ in parts:
        out = out * f
    return out


def _sturm_chain(p: Polynomial) -> tuple[int, int]:
    """(distinct real roots, deg gcd(p, p')) of exact p from one Sturm chain."""
    return _int_sturm_chain(_primitive(p.coeffs)[0])


def _int_sturm_chain(a: list) -> tuple[int, int]:
    """``_sturm_chain`` of the integer polynomial a (leading first, degree >= 1).

    Each pseudo-remainder is scaled by a positive integer, which keeps the
    signs of the classical chain; the last member is gcd(a, a').
    """
    b = _int_primitive(_derivative(a))
    ends = [(len(a), a[0] > 0)]  # (degree + 1, leading sign) of each chain member
    while b:
        ends.append((len(b), b[0] > 0))
        a, b = b, [-v for v in _int_primitive(_prem(a, b))]
    at_pos = [s for _, s in ends]
    at_neg = [s if n % 2 else not s for n, s in ends]
    return _variations(at_neg) - _variations(at_pos), len(a) - 1


def _variations(signs: list) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_real_root_count(p: Polynomial) -> int:
    """Number of distinct real roots, exact (Sturm's theorem on integer polynomials).

    The chain's common factor gcd(p, p') changes no sign variation, so p need
    not be square-free.
    """
    if p.backend != BACKEND_EXACT:
        raise ValueError("Sturm counting requires the exact backend")
    if p.degree < 1:
        return 0
    return _sturm_chain(p)[0]


def _hyperbolic_strict(p: Polynomial) -> tuple[bool, bool]:
    """(hyperbolic, strict) of exact p of degree >= 1: Sturm count == deg p - deg gcd(p, p')."""
    count, gcd_degree = _sturm_chain(p)
    hyperbolic = count == p.degree - gcd_degree
    return hyperbolic, hyperbolic and gcd_degree == 0


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
    ints = _primitive(f.coeffs)[0]
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


def _newton_polish(pf: Polynomial, dp: Polynomial, z: complex, steps: int = 12) -> complex:
    """The iterate of least |pf| among z and up to ``steps`` Newton steps from it.

    Each step reuses pf at the current iterate, and a step that leaves z
    unchanged ends the loop: every later step would repeat it.
    """
    fz = pf(z)
    best, best_val = z, abs(fz)
    for _ in range(steps):
        d = dp(z)
        if d == 0:
            break
        step = z - fz / d
        if step == z:
            break
        z = step
        fz = pf(z)
        v = abs(fz)
        if v < best_val:
            best, best_val = z, v
    return best


def _float_roots(p: Polynomial) -> list[complex]:
    """Polished eigenvalues of the companion matrix (any multiplicity pattern)."""
    pf = p.as_float()
    dp = pf.derivative()
    lc = pf.coeffs[0]
    A = companion_matrix(Polynomial.float64([c / lc for c in pf.coeffs]))
    eigs = np.linalg.eigvals(A.matrix)
    return [_newton_polish(pf, dp, complex(z)) for z in eigs]


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
    _witness: object  # the witness, or a function computing it on first read
    method: str
    hermite_form: object = None  # BezoutMatrix of the monic p and its derivative

    def __bool__(self) -> bool:
        return self.is_hyperbolic

    @functools.cached_property
    def witness(self):
        """RootProfile on success, reason string on failure.

        On exact input the verdict needs no root, so the roots are read
        only here, on first access.
        """
        return self._witness() if callable(self._witness) else self._witness


def is_hyperbolic(p: Polynomial) -> HyperbolicityVerdict:
    """Hermite criterion cross-checked against a Sturm count (exact backend).

    The two certificates are independent: the Sturm count needs no matrix
    work, the Hermite route checks positive semidefiniteness of the Bezout
    matrix of (p, p').  They must agree on exact input.  On the exact
    backend one Sturm chain gives the count of distinct real roots and, as
    its last member, gcd(p, p'): p is hyperbolic when the count reaches
    deg p - deg gcd(p, p'), and strict when that gcd is constant.  No root
    is computed for that; ``witness`` reads the root profile when first
    asked.  The verdict carries the Bezout form of (p, p') for monic p, and
    an exact form keeps its LDL certificate, so callers redo neither.
    """
    from .bezout import bezout_matrix, psd_check

    if p.is_zero or p.degree < 1:
        return HyperbolicityVerdict(False, False, "degree < 1", "degenerate")
    monic = p * (1 / p.leading) if not p.is_monic else p
    form = bezout_matrix(monic, monic.derivative())
    hermite = psd_check(form, DEFAULT_TOL)
    if p.backend == BACKEND_EXACT:
        sturm_verdict, strict = _hyperbolic_strict(monic)
        if hermite.is_psd != sturm_verdict:
            raise ArithmeticError("internal fault: Sturm and Hermite certificates disagree")
        if not sturm_verdict:
            return HyperbolicityVerdict(False, False, "complex roots (Sturm count short)",
                                        "sturm", form)
        return HyperbolicityVerdict(True, strict, functools.partial(real_roots, monic),
                                    "sturm", form)
    if not hermite.is_psd:
        reason = f"Bezout form of (p, p') indefinite: {hermite.witness}"
        return HyperbolicityVerdict(False, False, reason, "hermite-psd", form)
    try:
        profile = real_roots(monic)
    except NonHyperbolicError as exc:
        return HyperbolicityVerdict(False, False, str(exc), "hermite-psd", form)
    return HyperbolicityVerdict(True, profile.is_strict, profile, "hermite-psd", form)
