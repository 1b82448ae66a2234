"""Smoothing of hyperbolic polynomials by powers of (1 + eps d/dx).

Applying (1 + eps d/dx) m-1 times to a monic hyperbolic polynomial of
degree m produces a strictly hyperbolic polynomial whose consecutive roots
are separated by at least a degree-dependent constant times eps.  The
operator family is exactly invertible on degree-m polynomials, which is
what makes the perturbation p - p_eps small of order eps.

On exact p and eps the transform is a sum of scaled derivatives of p's
primitive integer coefficients, on Python ints, divided once at the end; it
equals the Fraction derivative sum coefficient for coefficient.

A stage p_l + eps p_l' interlaces p_l iff p_l is hyperbolic, as their Bezout
form is eps H(p_l, p_l'); ``certify_stages`` decides that by one Sturm chain.
It runs the stage chain on one primitive integer list: with eps = a/b,
P_(l+1) is the primitive part of b P_l + a P_l', a positive multiple of
p_(l+1), and each stage's Sturm count and gcd degree come from the integer
Sturm kernel of ``roots``.  A float eps is certified at the simplest
rational that rounds to it (1/10000 for 1e-4), not at its dyadic value,
whose denominator would add about 65 bits per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomial import Polynomial, RootProfile, _primitive
from .roots import (
    _derivative,
    _int_primitive,
    _int_sturm_chain,
    real_roots,
    sturm_real_root_count,
)
from .scalars import BACKEND_EXACT, is_exact_value


def nuij_transform(p: Polynomial, epsilon, applications: int | None = None) -> Polynomial:
    """(1 + eps d/dx)**applications applied to p; default is deg(p) - 1 times.

    Computed as the finite sum of scaled derivatives, so the result is exact
    whenever p and eps are exact.  With p = content * P for an integer P and
    eps = a/b, that is sum_k C(n,k) a^k b^(n-k) P^(k) on Python ints, with
    one division by b^n per coefficient at the end.
    """
    if applications is None:
        applications = max(int(p.degree) - 1, 0) if not p.is_zero else 0
    if applications < 0:
        raise ValueError("applications must be nonnegative")
    if p.backend == BACKEND_EXACT and not is_exact_value(epsilon):
        p = p.as_float()
    if p.backend == BACKEND_EXACT:
        eps = Fraction(epsilon)
        a, b = eps.numerator, eps.denominator
        dk, content = _primitive(p.coeffs)
        acc = [0] * len(dk)
        for k in range(min(applications, len(dk) - 1) + 1):
            w = math.comb(applications, k) * a**k * b ** (applications - k)
            shift = len(acc) - len(dk)
            for i, v in enumerate(dk):
                acc[shift + i] += w * v
            dk = _derivative(dk)
        den = content.denominator * b**applications
        return Polynomial.exact([Fraction(content.numerator * v, den) for v in acc])
    # floats: the same products and sums, in the same order, as the Polynomial
    # sum of C(n,k) eps^k p^(k), on plain lists
    eps = float(epsilon)
    dk = list(p.coeffs)
    acc = [0.0] * len(dk)
    for k in range(applications + 1):
        if not dk:
            break
        w = math.comb(applications, k) * eps**k
        if w:  # a zero weight is a zero term, which adds nothing
            shift = len(acc) - len(dk)
            for i, v in enumerate(dk):
                acc[shift + i] += v * w
        dk = _derivative(dk)
    return Polynomial(tuple(acc), p.backend)


@dataclass(frozen=True)
class NuijFamilyPoint:
    """One member of the smoothing family: p_eps, its roots, and q_eps = p - p_eps."""

    epsilon: object
    p_eps: Polynomial
    roots_eps: RootProfile
    q_eps: Polynomial


def nuij_family(p: Polynomial, epsilon) -> NuijFamilyPoint:
    """The family point at eps, with the roots of the float p_eps.

    Roots merge only within 1e-12 * max(1, |root|), so real gaps stay
    unmerged; imaginary parts up to 1e-7 are eigensolver splitting at tight
    clusters.  Raises ValueError when p_eps or the residual check of its
    roots leaves the float64 range.
    """
    p.require_monic("smoothing family input")
    try:
        p_eps = nuij_transform(p, epsilon)
        floats = p_eps.as_float()
        if not all(map(math.isfinite, floats.coeffs)):
            raise OverflowError("nonfinite coefficient")
        roots_eps = real_roots(floats, 1e-12, imag_tol=1e-7)
    except OverflowError as exc:
        raise ValueError(f"smoothing family at eps={epsilon} leaves the float64 range") from exc
    base = p if p.backend == p_eps.backend else p.as_float()
    return NuijFamilyPoint(epsilon, p_eps, roots_eps, base - p_eps)


def nuij_inverse_coeffs(m: int) -> tuple:
    """Coefficients c_1..c_m with p = p_eps + sum_l c_l eps**l p_eps^(l).

    These are the series coefficients of (1+x)**-(m-1) through order m,
    which suffices because the (m+1)-th derivative of a degree-m polynomial
    vanishes.  Exact integers, returned as Fractions.
    """
    if m < 1:
        raise ValueError("inverse coefficients need m >= 1")
    out = []
    for l in range(1, m + 1):
        out.append(Fraction((-1) ** l * math.comb(m - 2 + l, l)))
    return tuple(out)


def invert_transform(p_eps: Polynomial, epsilon) -> Polynomial:
    """Recover p from its smoothed image (degree-m exact inversion)."""
    m = int(p_eps.degree)
    coeffs = nuij_inverse_coeffs(m)
    if p_eps.backend == BACKEND_EXACT:
        eps = Fraction(epsilon)
        out = p_eps
        for l, c in enumerate(coeffs, start=1):
            term = p_eps.derivative(l)
            if term.is_zero:
                break
            out = out + c * eps**l * term
        return out
    # floats: the products and sums of the Polynomial sum above, in its order,
    # on plain lists, with the derivative carried from one order to the next
    eps = float(epsilon)
    out = list(p_eps.coeffs)
    dk = p_eps.coeffs
    for l, c in enumerate(coeffs, start=1):
        dk = _derivative(dk)
        w = float(c) * eps**l
        if not w:  # a zero weight is a zero term, which adds nothing
            continue
        # 0.0 + v * w is the Polynomial product's entry (never -0.0), and its
        # leading zeros are stripped before the sum
        term = [0.0 + v * w for v in dk]
        while term and term[0] == 0:
            del term[0]
        shift = len(out) - len(term)
        for i, v in enumerate(term):
            out[shift + i] += v
    return Polynomial(tuple(out), p_eps.backend)


@dataclass(frozen=True)
class GapConstantTable:
    """Root-gap floor constants c_2..c_m; stage l certifies gaps >= c_l * eps
    among the lowest l roots after l-1 applications of the operator."""

    degree: int
    constants: tuple

    def for_stage(self, stage: int) -> float:
        if not 2 <= stage <= self.degree:
            raise ValueError(f"stage {stage} out of range 2..{self.degree}")
        return self.constants[stage - 2]

    @property
    def floor(self) -> float:
        """The full-transform constant c_m."""
        return self.constants[-1]


def gap_constants(m: int) -> GapConstantTable:
    """Gap-floor recursion c_2 = 1, c_{l+1} = min over k of the quadratic root."""
    if m < 2:
        raise ValueError("gap constants need m >= 2")
    consts = [1.0]
    for l in range(2, m):
        c = consts[-1]
        best = None
        for k in range(2, l + 1):
            val = (k + c - math.sqrt((k + c) ** 2 - 4 * c)) / 2
            best = val if best is None else min(best, val)
        consts.append(best)
    return GapConstantTable(m, tuple(consts))


@dataclass(frozen=True)
class GapCheck:
    min_gap_over_eps: float
    floor_constant: float
    passed: bool
    marginal: bool


def verify_gaps(p: Polynomial, epsilon, family: NuijFamilyPoint | None = None) -> GapCheck:
    """Check the root gaps of the fully smoothed polynomial against c_m * eps.

    Failures inside the float tolerance band max(1e-12, 1e-6 * eps) count as
    marginal, not failed; c * eps can sit near double-precision noise.
    ``family`` is ``nuij_family(p, eps)`` when the caller holds it.
    """
    p.require_monic("gap verification input")
    m = int(p.degree)
    if m < 2:
        return GapCheck(math.inf, 0.0, True, False)
    eps = float(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    tol = max(1e-12, 1e-6 * eps)
    floor = gap_constants(m).floor
    if family is None:
        family = nuij_family(p, eps)
    roots = family.roots_eps.flattened
    if len(roots) < m:
        # a merged cluster means a gap of numerical zero
        return GapCheck(0.0, floor, False, True)
    gaps = [float(b) - float(a) for a, b in zip(roots, roots[1:])]
    min_gap = min(gaps)
    passed = min_gap >= floor * eps - tol
    marginal = passed and min_gap < floor * eps
    return GapCheck(min_gap / eps, floor, passed, marginal)


def _int_stages(p: Polynomial, eps: Fraction) -> list[list[int]]:
    """Primitive integer multiples of the stages p_0 = p, p_(l+1) = p_l + eps p_l'.

    With eps = a/b, P_(l+1) is the primitive part of b P_l + a P_l'.
    """
    a, b = eps.numerator, eps.denominator
    stage = _primitive(p.as_exact().coeffs)[0]
    stages = [stage]
    for _ in range(int(p.degree) - 1):
        nxt = [b * v for v in stage]
        for i, v in enumerate(_derivative(stage), start=1):
            nxt[i] += a * v
        stage = _int_primitive(nxt)
        stages.append(stage)
    return stages


def _simplest_rational(x: float) -> Fraction:
    """The rational of least denominator that rounds to the positive finite x.

    Searched in the open interval between the midpoints of x and its float
    neighbours by the continued-fraction (Stern-Brocot) recursion on ints.
    Falls back to the dyadic value of x if the result does not round to x.
    """
    n, d = x.as_integer_ratio()
    ln, ld = math.nextafter(x, 0.0).as_integer_ratio()
    un, ud = math.ulp(x).as_integer_ratio()
    # lo = (x + x_below) / 2 and hi = x + ulp(x) / 2; hi_d == 0 stands for +inf
    lo_n, lo_d = n * ld + ln * d, 2 * d * ld
    hi_n, hi_d = 2 * n * ud + un * d, 2 * d * ud
    # x = (p1 y + p0) / (q1 y + q0) for the rest y of the expansion
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        f = lo_n // lo_d
        if hi_d == 0 or (f + 1) * hi_d < hi_n:  # f + 1 < hi: the simplest rest
            num, den = (f + 1) * p1 + p0, (f + 1) * q1 + q0
            break
        p0, q0, p1, q1 = p1, q1, f * p1 + p0, f * q1 + q0
        lo_n, lo_d, hi_n, hi_d = hi_d, hi_n - f * hi_d, lo_d, lo_n - f * lo_d
    if num / den != x:
        return Fraction(x)
    return Fraction(num, den)


def certify_stages(p: Polynomial, epsilon) -> tuple[bool, bool]:
    """(interlaced, strict) of the stages p_0 = p, p_(l+1) = p_l + eps p_l'.

    Interlaced: p_0 .. p_(m-2) are hyperbolic.  Strict: p_(m-1) has m distinct
    real roots.  Decided on the exact p and eps, from one integer Sturm chain
    per stage.  An int or Fraction eps is used as it is; a positive finite
    float eps is certified at the simplest rational that rounds to it (least
    denominator; 1/10000 for 1e-4), whose float is the echoed eps.  For
    hyperbolic p every eps > 0 gives (True, True), so the choice of rational
    moves no verdict there, only the size of the integers.
    """
    if isinstance(epsilon, float) and math.isfinite(epsilon) and epsilon > 0:
        eps = _simplest_rational(epsilon)
    else:
        eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    stages = _int_stages(p, eps)
    # hyperbolic iff the distinct real roots and deg gcd(P, P') add up to deg P
    interlaced = all(sum(_int_sturm_chain(stage)) == len(stage) - 1 for stage in stages[:-1])
    return interlaced, sturm_real_root_count(Polynomial.exact(stages[-1])) == len(stages)


def default_epsilon_grid(start: float = 1.0, stop: float = 1e-4, count: int = 9) -> tuple:
    """Logarithmic grid from start down to stop, inclusive."""
    if count < 2:
        return (float(start),)
    ratio = (stop / start) ** (1.0 / (count - 1))
    return tuple(start * ratio**i for i in range(count))
