"""Smoothing of hyperbolic polynomials by powers of (1 + eps d/dx).

Applying (1 + eps d/dx) m-1 times to a monic hyperbolic polynomial of
degree m produces a strictly hyperbolic polynomial whose consecutive roots
are separated by at least a degree-dependent constant times eps.  The
operator family is exactly invertible on degree-m polynomials, which is
what makes the perturbation p - p_eps small of order eps.

On exact p and eps the transform and the stage certificate share one
integer kernel, the stage chain ``_int_stages`` on p's primitive integer
coefficients: with eps = a/b, P_(l+1) is the primitive part of
b P_l + a P_l', a positive multiple of the stage p_(l+1) = p_l + eps p_l'.
The exact transform is the last of its stages scaled to the leading
coefficient of p, which every stage keeps; it equals the Fraction
derivative sum coefficient for coefficient.

A stage p_l + eps p_l' interlaces p_l iff p_l is hyperbolic, as their Bezout
form is eps H(p_l, p_l'); ``certify_stages`` decides that by one Sturm chain
per two stages.  The integer Sturm kernel of ``roots`` gives the degree and
leading sign of each chain member; from them come the count and gcd degree
of the even stage p_l, which certify p_l, and the Cauchy index of p_l
against p_(l+1), which certifies p_(l+1) when p_l is hyperbolic
(``_next_stage``).  A float eps is certified at the simplest
rational that rounds to it (1/10000 for 1e-4), not at its dyadic value,
whose denominator would add about 65 bits per stage.

The float family points of a request's grid are built in one pass
(``build_family``): every p_eps, one stacked eigensolver call for all
their companion matrices, then the polished roots and q_eps of each, with
the bits of each eps built alone; ``nuij_family`` is its one-eps case.
A point that fails raises its error in that pass, and is built once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomial import Polynomial, RootProfile, _derivative, _int_primitive
from .roots import (
    _chain_verdict,
    _int_sturm_chain,
    _keep_eigenvalues,
    _sturm_ends,
    _variation_drop,
    real_roots,
    sturm_real_root_count,
)
from .scalars import BACKEND_EXACT, is_exact_value


def nuij_transform(p: Polynomial, epsilon, applications: int | None = None) -> Polynomial:
    """(1 + eps d/dx)**applications applied to p; default is deg(p) - 1 times.

    Exact whenever p and eps are exact: the last of ``applications`` integer
    stages (``_int_stages``), a positive multiple of the result, scaled to
    the leading coefficient of p.  A float eps rounds an exact p to float64
    first; float p is the finite sum of C(n,k) eps^k p^(k).
    """
    if applications is None:
        applications = max(int(p.degree) - 1, 0) if not p.is_zero else 0
    if applications < 0:
        raise ValueError("applications must be nonnegative")
    if p.backend == BACKEND_EXACT and not is_exact_value(epsilon):
        p = p.as_float()
    if p.backend == BACKEND_EXACT:
        if p.is_zero:
            return p
        last = _int_stages(p, Fraction(epsilon), applications)[-1]
        scale = p.leading / last[0]
        return Polynomial.exact([scale * v for v in last])
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


def _family_key(epsilon) -> tuple:
    return ("nuij", type(epsilon), epsilon)


def nuij_family(p: Polynomial, epsilon) -> NuijFamilyPoint:
    """The family point at eps, with the roots of the float p_eps.

    Roots merge only within 1e-12 * max(1, |root|), so real gaps stay
    unmerged; imaginary parts up to 1e-7 are eigensolver splitting at tight
    clusters.  Raises ValueError when p_eps or the residual check of its
    roots leaves the float64 range.  p keeps the point of each eps, keyed
    by its type and value (``Polynomial.memo``); a point not kept yet is
    built by the one-eps case of the grid kernel ``build_family``.
    """
    p.require_monic("smoothing family input")
    key = _family_key(epsilon)
    if key not in p.memo:
        _build_points(p, (epsilon,))
    return p.memo[key]


def build_family(p: Polynomial, grid) -> None:
    """Build the family points of a request's grid in one pass; p keeps them.

    Covers the grid's eps up to its first eps that is not positive, skipping
    points p already keeps.  The first point that fails raises its error
    here, after the points before it are kept, so a caller that calls this
    before its per-eps loop stops there, before the loop reads any point.
    Does nothing for p that is not monic, which the per-eps calls refuse.
    """
    if not p.is_monic:
        return
    todo = {}
    for eps in grid:
        if not eps > 0:
            break
        if (key := _family_key(eps)) not in p.memo:
            todo.setdefault(key, eps)
    _build_points(p, tuple(todo.values()))


def _build_points(p: Polynomial, grid) -> None:
    """Keep the family point of each eps of grid on p, or raise the first failure.

    One pass: p_eps and its float rounding for every eps, then one stacked
    eigensolver call for all their companion matrices
    (``roots._keep_eigenvalues``), then each point's roots, polished and
    checked by ``real_roots``, and q_eps on the coefficient lists.  A
    stacked call gives every matrix the bits of a call on it alone, so each
    point is the one the eps alone builds.  The points before the first
    failing eps are kept before its error is raised.
    """
    staged = []
    overflow = None
    for eps in grid:
        try:
            p_eps = nuij_transform(p, eps)
            floats = p_eps.as_float()
            if not all(map(math.isfinite, floats.coeffs)):
                raise OverflowError("nonfinite coefficient")
        except OverflowError as exc:
            overflow = eps, exc
            break
        staged.append((eps, p_eps, floats))
    _keep_eigenvalues([floats for _, _, floats in staged])
    for eps, p_eps, floats in staged:
        try:
            roots_eps = real_roots(floats, 1e-12, imag_tol=1e-7)
        except OverflowError as exc:
            raise ValueError(_range_message(eps)) from exc
        # q_eps = p - p_eps: p_eps has p's degree and leading coefficient, and
        # x - y is the x + (-y) of Polynomial.__sub__, in IEEE as in rational arithmetic
        base = p if p.backend == p_eps.backend else p.as_float()
        q_eps = Polynomial(tuple(x - y for x, y in zip(base.coeffs, p_eps.coeffs)), p_eps.backend)
        p.memo[_family_key(eps)] = NuijFamilyPoint(eps, p_eps, roots_eps, q_eps)
    if overflow is not None:
        eps, exc = overflow
        raise ValueError(_range_message(eps)) from exc


def _range_message(epsilon) -> str:
    return f"smoothing family at eps={epsilon} leaves the float64 range"


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


@functools.cache
def gap_constants(m: int) -> GapConstantTable:
    """Gap-floor recursion c_2 = 1, c_{l+1} = min over k of the quadratic root.

    The table is frozen and depends on m alone, so each m is built once.
    """
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


def verify_gaps(p: Polynomial, epsilon) -> GapCheck:
    """Check the root gaps of the fully smoothed polynomial against c_m * eps.

    The roots are those of the family point ``nuij_family(p, eps)``.
    Failures inside the float tolerance band max(1e-12, 1e-6 * eps) count as
    marginal, not failed; c * eps can sit near double-precision noise.
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
    roots = nuij_family(p, eps).roots_eps.flattened
    if len(roots) < m:
        # a merged cluster means a gap of numerical zero
        return GapCheck(0.0, floor, False, True)
    gaps = [float(b) - float(a) for a, b in zip(roots, roots[1:])]
    min_gap = min(gaps)
    passed = min_gap >= floor * eps - tol
    marginal = passed and min_gap < floor * eps
    return GapCheck(min_gap / eps, floor, passed, marginal)


def _int_stages(p: Polynomial, eps: Fraction, count: int) -> list:
    """Primitive integer multiples of the stages p_0 = p, p_(l+1) = p_l + eps p_l' up to p_count.

    With eps = a/b, P_(l+1) is the primitive part of b P_l + a P_l'; P_0 is
    ``primitive`` of the exact p.
    """
    a, b = eps.numerator, eps.denominator
    stage = p.as_exact().primitive[0]
    stages = [stage]
    for _ in range(count):
        nxt = [b * v for v in stage]
        for i, v in enumerate(_derivative(stage), start=1):
            nxt[i] += a * v
        stage = _int_primitive(nxt)
        stages.append(stage)
    return stages


@functools.lru_cache(maxsize=128)
def _simplest_rational(x: float) -> Fraction:
    """The rational of least denominator that rounds to the positive finite x.

    Searched in the open interval between the midpoints of x and its float
    neighbours by the continued-fraction (Stern-Brocot) recursion on ints.
    Falls back to the dyadic value of x if the result does not round to x.
    A request certifies the same few eps at every stage, so the last 128
    are kept.
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
    real roots.  Decided on the exact p and eps from the integer Sturm chains
    of the even stages p_0, p_2, ...: each certifies its own stage by its
    count and the stage after it by its Cauchy index (``_next_stage``).
    Stage 0 is p at every eps, and its chain is the one p keeps
    (``roots._sturm_ends``).  A stage the index does not decide runs its own
    chain: an odd stage after one that is not hyperbolic, or the last stage
    when the one before it has a repeated root; an even last stage keeps its
    own count (``sturm_real_root_count``).  So a hyperbolic p with no root of
    multiplicity m makes floor((m - 1) / 2) chains per eps.

    An int or Fraction eps is used as it is; a positive finite float eps is
    certified at the simplest rational that rounds to it (least denominator;
    1/10000 for 1e-4), whose float is the echoed eps.  For hyperbolic p every
    eps > 0 gives (True, True), so the choice of rational moves no verdict
    there, only the size of the integers.
    """
    if isinstance(epsilon, float) and math.isfinite(epsilon) and epsilon > 0:
        eps = _simplest_rational(epsilon)
    else:
        eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    stages = _int_stages(p, eps, int(p.degree) - 1)
    proved = None  # what the index of the stage before proves of this one
    for l, stage in enumerate(stages[:-1]):
        if proved and proved[0]:
            proved = None
            continue
        proved = _next_stage(_sturm_ends(p.as_exact()) if l == 0 else _int_sturm_chain(stage)[0])
        if proved is None:
            interlaced = False
            break
    else:
        interlaced = True
    if proved and proved[1]:
        return interlaced, True
    return interlaced, sturm_real_root_count(Polynomial.exact(stages[-1])) == len(stages)


def _next_stage(ends: list) -> tuple[bool, bool] | None:
    """(hyperbolic, strict) of P_(l+1) as the Sturm chain of P_l proves it,
    or None when P_l is not hyperbolic.

    ``ends`` are the chain ends of P_l (``roots._int_sturm_chain``).  With
    eps = a/b > 0, P_(l+1) is a positive multiple of b P_l + a P_l', whose
    remainder on division by P_l is a positive multiple of P_l'.  So the
    signed remainder sequence of (P_(l+1), P_l) is P_(l+1) followed by the
    chain of P_l with its signs alternating from P_l' on: +P_l, -P_l', +S_2,
    -S_3, ...  Its sign variations at -inf minus +inf are the Cauchy index
    Ind(P_l / P_(l+1)) (Basu, Pollack and Roy, Algorithms in Real Algebraic
    Geometry, Thm 2.58); P_(l+1) has the degree and leading sign of P_l,
    so it adds no variation at either end.  With g = gcd(P_l, P_l') =
    gcd(P_(l+1), P_l), |Ind| is at most the number of distinct real roots
    of odd multiplicity of P_(l+1) / g, whose degree is m - deg g, so
    |Ind| = m - deg g makes all its roots real and simple.  g divides P_l,
    so when P_l is hyperbolic P_(l+1) is too, and strict when deg g = 0.
    A False means the index decides nothing: for strict, when deg g > 0.
    """
    if not _chain_verdict(ends)[0]:
        return None
    signed = [(n, s if i % 2 == 0 else not s) for i, (n, s) in enumerate(ends)]
    m, gcd_degree = ends[0][0] - 1, ends[-1][0] - 1
    hyperbolic = abs(_variation_drop(signed)) == m - gcd_degree
    return hyperbolic, hyperbolic and gcd_degree == 0


def default_epsilon_grid(start: float = 1.0, stop: float = 1e-4, count: int = 9) -> tuple:
    """Logarithmic grid from start down to stop, inclusive."""
    if count < 2:
        return (float(start),)
    ratio = (stop / start) ** (1.0 / (count - 1))
    return tuple(start * ratio**i for i in range(count))
