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
form is eps H(p_l, p_l'); ``certify_grid`` decides that exactly, at the
simplest rational that rounds to a float eps (1/10000 for 1e-4), not at
its dyadic value, whose denominator would add about 65 bits per stage.
Stage 0 is p, whose Sturm chain certifies it and, by the Cauchy index of
p against p_1 (``_next_stage``), stage 1.  Every later stage of m
distinct roots is certified by m sign changes of its exact values along
-inf, x_1 < ... < x_k, +inf (intermediate value theorem), at points read
from float roots: the midpoints of an even stage's own roots, which one
stacked eigensolver call gives for every even stage of a grid
(``certify_grid``); the roots of the even stage before an odd one, where
the odd stage has the sign of that stage's derivative; and the midpoints
of the family point's roots for the last stage.  Each sign is read first
from one float Horner pass over every (stage, point) pair of the grid
(``_float_signs``), and counts only where its value clears a proven error
bound, 4 (n + 1) 2^-53 times the Horner sum of |C_i| |x|^(n - i)
(``_float_horner``); a stage whose float signs do not all decide and
change m times is signed exactly on ints (``_changes_sign``), and one
whose points fall short, as one with a repeated root must, runs its own
Sturm chain.  So every verdict is the exact one.

The float family points of a request's grid are built in one pass
(``build_family``): every p_eps from one ``nuij_transform`` call on the
grid, whose float eps are the rows of one array (``_family_rows``), one
stacked eigensolver call for all their companion matrices, then the
polished roots, checked as the float ``real_roots`` checks them, and q_eps
of each, with the bits of each eps built alone; ``nuij_family`` is its
one-eps case.  A point that fails raises its error in that pass, and is
built once.  ``invert_transform`` on a grid's p_eps inverts them all in
one array pass (``_inverse_rows``).  Each of these array kernels is the
only producer of its result: one eps is a grid of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .bezout import _companion_stack
from .errors import NonHyperbolicError
from .polynomial import Polynomial, RootProfile, _derivative, _int_horner, _int_primitive
from .roots import (
    _chain_count,
    _chain_verdict,
    _float_profile,
    _int_sturm_chain,
    _polish_roots,
    _sturm_ends,
    _variation_drop,
)
from .scalars import BACKEND_EXACT, BACKEND_FLOAT, is_exact_value


def nuij_transform(p: Polynomial, epsilon):
    """(1 + eps d/dx)**(m - 1) applied to p of degree m (the zero polynomial
    stays zero), at one eps or on a grid.

    ``epsilon`` is one eps, giving one Polynomial, or a sequence of eps,
    giving a list of one Polynomial per eps.  Exact whenever p and eps are
    exact: the last of the m - 1 integer stages (``_int_stages``), a
    positive multiple of the result, scaled to the leading coefficient of
    p.  A float eps rounds an exact p to float64 first; float p is the
    finite sum of C(m - 1, k) eps^k p^(k), and the float eps of a grid are
    the rows of one array pass (``_family_rows``), each with the bits of
    its eps alone.  The first eps in grid order whose rounding or weights
    leave the float64 range raises OverflowError.
    """
    import numpy as np

    one = np.ndim(epsilon) == 0
    applications = max(int(p.degree) - 1, 0) if not p.is_zero else 0
    out, weights = [], []
    for eps in (epsilon,) if one else epsilon:
        q = p if p.backend == BACKEND_EXACT and is_exact_value(eps) else p.as_float()
        if q.is_zero:
            out.append(q)
        elif q.backend == BACKEND_EXACT:
            last = _int_stages(q, Fraction(eps), applications)[-1]
            scale = q.leading / last[0]
            out.append(Polynomial.exact([scale * v for v in last]))
        else:
            weights.append(_weights(applications, float(eps)))
            out.append(None)  # the next row of the array pass
    rows = iter(_family_rows(p.as_float().coeffs, weights) if weights else ())
    out = [Polynomial(next(rows), BACKEND_FLOAT) if t is None else t for t in out]
    return out[0] if one else out


def _weights(applications: int, eps: float) -> list:
    """C(n, k) eps^k for k = 0..n, the Python floats the sum weights its terms by.

    Raises OverflowError where eps^k does.
    """
    return [math.comb(applications, k) * eps**k for k in range(applications + 1)]


def _family_rows(coeffs: tuple, weights: list):
    """The float sum of C(n, k) eps^k p^(k) for each weight row of ``weights``.

    ``coeffs`` are the float coefficients of p (leading first, nonzero
    leading), and each row of ``weights`` is ``_weights(n, eps)`` for one
    eps.  Returns a tuple per row of weights: the row adds the terms
    v * w of the k-th derivative, k = 0..n, into zeros in that order, as
    the per-eps sum on Python floats does; a zero weight adds nothing.
    numpy runs the same IEEE products and sums elementwise, so each row has
    the bits of that eps alone, signed zeros included (a sum started at 0.0
    never reads -0.0).
    """
    if not weights:
        return []
    import numpy as np

    W = np.array(weights, dtype=float)
    K, n = W.shape[1], len(coeffs)
    rows, dk = [], list(coeffs)
    for k in range(K):  # the k-th derivative, right-aligned
        rows.append([0.0] * k + dk)
        dk = _derivative(dk)
    shift = np.arange(n) >= np.arange(K)[:, None]
    with np.errstate(all="ignore"):
        # what the per-eps sum skips (the places left of a derivative, a zero
        # weight) becomes 0.0, which adds nothing to a sum that is never -0.0
        terms = np.where((W != 0)[:, :, None] & shift, W[:, :, None] * np.array(rows), 0.0)
        acc = 0.0 + terms[:, 0]
        for k in range(1, K):
            acc += terms[:, k]
    return list(map(tuple, acc.tolist()))


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
    if todo:
        _build_points(p, tuple(todo.values()))


def _build_points(p: Polynomial, grid) -> None:
    """Keep the family point of each eps of grid on p, or raise the first failure.

    One pass: the p_eps of every eps (``nuij_transform`` on the grid, whose
    float eps are the rows of one array), then one stacked eigensolver call
    for all their companion matrices, then each point's roots, polished
    (``roots._polish_roots``) and checked as the float ``real_roots``
    checks them (``roots._float_profile``), and q_eps on the coefficient
    lists.  The array rows and a stacked call give every point the bits
    the eps alone builds.  The points before the first failing eps are
    kept before its error is raised; a grid with an eps whose transform
    leaves the float64 range is built one eps at a time, so that it is.
    """
    try:
        transforms = nuij_transform(p, grid)
    except OverflowError as exc:
        if len(grid) == 1:
            raise ValueError(_range_message(grid[0])) from exc
        for eps in grid:  # the one-eps call of the eps that overflows raises
            _build_points(p, (eps,))
        return
    staged = []
    overflow = None
    for eps, p_eps in zip(grid, transforms):
        try:
            floats = p_eps.as_float()
            if not all(map(math.isfinite, floats.coeffs)):
                raise OverflowError("nonfinite coefficient")
        except OverflowError as exc:
            overflow = eps, exc
            break
        staged.append((eps, p_eps, floats))
    eigenvalues = []
    if staged:
        if p.degree < 1:  # as the float real_roots refuses it
            raise ValueError("real_roots requires degree >= 1")
        import numpy as np

        eigenvalues = np.linalg.eigvals(_companion_stack([f.coeffs for _, _, f in staged]))
    for (eps, p_eps, floats), zs in zip(staged, eigenvalues):
        try:
            roots_eps = _float_profile(floats, _polish_roots(floats, zs), 1e-12, 1e-7)
        except OverflowError as exc:
            raise ValueError(_range_message(eps)) from exc
        except NonHyperbolicError as exc:
            # p passed the exact hyperbolicity gate; its float point did not
            raise ValueError(f"smoothing family at eps={eps} has complex roots "
                             "in float64") from exc
        # q_eps = p - p_eps: p_eps has p's degree and leading coefficient, and
        # x - y is x + (-1) * y, in IEEE as in rational arithmetic
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


def invert_transform(p_eps, epsilon):
    """Recover p from its smoothed image (degree-m exact inversion), at one eps or on a grid.

    ``epsilon`` is one eps with one p_eps, giving one Polynomial, or a
    sequence of eps with a sequence of p_eps beside it, giving a list of
    one Polynomial per eps.  The float p_eps of a grid share one degree and
    are inverted as the rows of one array pass (``_inverse_rows``), each
    with the bits of its eps alone; the first eps in grid order whose
    weights leave the float64 range raises OverflowError.
    """
    import numpy as np

    one = np.ndim(epsilon) == 0
    out, rows, weights = [], [], []
    for q, eps in [(p_eps, epsilon)] if one else zip(p_eps, epsilon):
        if q.backend == BACKEND_EXACT:
            eps = Fraction(eps)
            inverse = q
            for l, c in enumerate(nuij_inverse_coeffs(int(q.degree)), start=1):
                term = q.derivative(l)
                if term.is_zero:
                    break
                inverse = inverse + c * eps**l * term
        else:
            weights.append(_inverse_weights(int(q.degree), float(eps)))
            rows.append(q.coeffs)
            inverse = None  # the next row of the array pass
        out.append(inverse)
    inverses = iter(_inverse_rows(rows, weights))
    out = [Polynomial(next(inverses), BACKEND_FLOAT) if r is None else r for r in out]
    return out[0] if one else out


def _inverse_weights(m: int, eps: float) -> list:
    """float(c_l) eps^l for l = 1..m, the weights of the float inversion.

    Raises OverflowError where eps^l does.
    """
    return [c * eps**l for l, c in enumerate(_inverse_floats(m), start=1)]


@functools.cache
def _inverse_floats(m: int) -> tuple:
    """float(c_l) of ``nuij_inverse_coeffs(m)``, computed once per m."""
    return tuple(map(float, nuij_inverse_coeffs(m)))


def _inverse_rows(rows, weights):
    """The float ``invert_transform`` of each row at the weights beside it.

    ``rows`` are float coefficient lists of one degree m >= 1 (leading first,
    nonzero leading).  Returns a tuple per row: row e starts at
    rows[e] and adds, for l = 1..m, the entries 0.0 + v * w of the l-th
    derivative of rows[e] times w = float(c_l) eps^l of weights[e]
    (``_inverse_weights``), right-aligned, in
    order, as the per-eps sum of Polynomials does.  A zero weight adds
    nothing, and nor do a term's leading zeros, which the Polynomial sum
    strips before it adds; 0.0 + v * w is the Polynomial product's entry,
    never -0.0.  numpy runs the same IEEE products and sums elementwise, so
    each row has the bits of its eps alone.
    """
    if not rows:
        return []
    import numpy as np

    out = np.array(rows, dtype=float)
    W = np.array(weights, dtype=float)
    E, n = out.shape
    derivs = np.zeros((E, W.shape[1], n))  # the l-th derivative of each row, right-aligned
    dk = out
    with np.errstate(all="ignore"):
        for l in range(1, W.shape[1] + 1):
            dk = dk[:, :-1] * np.arange(n - l, 0, -1)
            derivs[:, l - 1, l:] = dk
        terms = 0.0 + derivs * W[:, :, None]
        # a term's leading zeros (the places left of its derivative among
        # them) and a zero weight's term add nothing
        skip = np.logical_and.accumulate(terms == 0, axis=2) | (W == 0)[:, :, None]
        for l in range(W.shape[1]):
            out = np.where(skip[:, l], out, out + terms[:, l])
    return list(map(tuple, out.tolist()))


@functools.cache
def gap_constant(m: int) -> float:
    """The root-gap floor c_m: after l - 1 applications of the operator the
    lowest l roots are at least c_l * eps apart, for l = 2..m.

    Float recursion c_2 = 1, c_(l+1) = min over k = 2..l of the smaller
    root (k + c_l - sqrt((k + c_l)^2 - 4 c_l)) / 2.  It depends on m
    alone, so each m is computed once.
    """
    if m < 2:
        raise ValueError("gap constants need m >= 2")
    c = 1.0
    for l in range(2, m):
        c = min((k + c - math.sqrt((k + c) ** 2 - 4 * c)) / 2 for k in range(2, l + 1))
    return c


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
    floor = gap_constant(m)
    # the m flattened roots: a pair that float64 merged has a gap of 0.0
    roots = nuij_family(p, eps).roots_eps.flattened
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


def certify_grid(p: Polynomial, grid) -> list[tuple[bool, bool]]:
    """(interlaced, strict) of the stages p_0 = p, p_(l+1) = p_l + eps p_l'
    at each eps of grid.

    Interlaced: p_0 .. p_(m-2) are hyperbolic.  Strict: p_(m-1) has m distinct
    real roots.  Decided on the exact p and eps, on the primitive integer
    stages P_l of ``_int_stages``.  Stage 0 is p at every eps: the Sturm
    chain p keeps (``roots._sturm_ends``) certifies it, and its Cauchy index
    stage 1 (``_next_stage``).  Every later stage is certified strictly
    hyperbolic by m nonzero exact values that change sign m times
    (``_changes_sign``) at points read from float roots:

    - an even stage at the midpoints of its own roots, the companion
      eigenvalues of its float form (``_stage_roots``);
    - an odd stage at the roots of the even stage before it, where P_l has
      the sign of P_(l-1)', which alternates along the simple roots of
      P_(l-1) (the interlacing that ``nuij-interlacing`` names);
    - the last stage at the midpoints of the polished roots of the family
      point that p keeps for this eps (``build_family``).

    The signs are read in this order: every sign test of the grid in one
    float pass (``_float_signs``), where a stage whose values all clear the
    error bound of ``_float_horner``, |y| > 4 (n + 1) 2^-53 s with s the
    float Horner sum of |C_i| |x|^(n - i), and change m times is
    certified; then, for any other stage, the exact values on ints
    (``_changes_sign``), which decide the values inside the bound, stages
    past float64 and sums below 2^-900 alike.  A stage whose points
    fall short (a repeated root, complex or misplaced float roots, no
    family point kept) runs its own Sturm chain, which certifies it by its
    count and the stage after it by its Cauchy index; a last stage left
    undecided runs its own count.  All three routes are exact, so the
    verdict does not depend on the float roots or the float pass, only its
    cost does.

    An int or Fraction eps is used as it is; a positive finite float eps is
    certified at the simplest rational that rounds to it (least denominator;
    1/10000 for 1e-4), whose float is the echoed eps.  For hyperbolic p every
    eps > 0 gives (True, True), so the choice of rational moves no verdict
    there, only the size of the integers.  The float roots of every even
    stage of every eps come from one stacked eigensolver call.  Raises
    ValueError at the first eps that is not positive, before any stage is
    built.
    """
    rationals = [_stage_eps(eps) for eps in grid]
    count = int(p.degree) - 1
    stages = [_int_stages(p, eps, count) for eps in rationals]
    even = range(2, count, 2)
    roots = iter(_stage_roots([ints[l] for ints in stages for l in even]))
    plans = []
    for eps in grid:
        seeds = {l: next(roots) for l in even}
        point = p.memo.get(_family_key(eps))
        last = point.roots_eps.flattened if point is not None else ()
        plans.append(_sign_points(count, seeds, last))
    verdicts = iter(_float_signs([(ints[l], xs) for ints, points in zip(stages, plans)
                                  for l, xs in points.items()]))
    out = []
    for ints, points in zip(stages, plans):
        signed = {l for l in points if next(verdicts)}
        out.append(_certify(p, ints, points, signed))
    return out


def _sign_points(count: int, seeds: dict, last) -> dict:
    """The points each stage l >= 2 of one eps is signed at, keyed by l.

    ``seeds`` maps each even stage l >= 2 below the last, ``count``, to its
    ascending float roots, or None; ``last`` holds the ascending float roots
    of the family point, possibly none.  An even stage is signed at the
    midpoints of its roots, an odd one at the roots of the stage before it,
    and the last at the midpoints of ``last``; a stage whose seed is None
    has no points.
    """
    points = {}
    for l in range(2, count):
        seed = seeds[l - l % 2]
        if seed is not None:
            points[l] = seed if l % 2 else _midpoints(seed)
    points[max(count, 0)] = _midpoints(last)
    return points


def _stage_eps(epsilon) -> Fraction:
    """The exact eps a stage is certified at: the simplest rational of a
    positive finite float (``_simplest_rational``), else eps itself."""
    if isinstance(epsilon, float) and math.isfinite(epsilon) and epsilon > 0:
        return _simplest_rational(epsilon)
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return eps


def _stage_roots(stages) -> list:
    """The real parts of the companion eigenvalues of each integer stage, ascending.

    One stacked ``np.linalg.eigvals`` call on the companion matrices of
    the stages' monic float forms (``bezout._companion_stack``); None for a
    stage whose monic form leaves the float64 range, or for every stage if
    the eigensolver fails.  They are only the points of a sign test, so
    nothing about them needs to be right.
    """
    rows = []
    for ints in stages:
        try:
            rows.append([v / ints[0] for v in ints])  # int / int rounds correctly, or overflows
        except OverflowError:
            rows.append(None)
    todo = [row for row in rows if row is not None]
    if not todo:
        return rows
    import numpy as np

    try:
        eigs = np.linalg.eigvals(_companion_stack(todo))
    except np.linalg.LinAlgError:
        return [None] * len(rows)
    found = iter(np.sort(eigs.real, axis=-1).tolist())
    return [next(found) if row is not None else None for row in rows]


def _certify(p: Polynomial, stages: list, points: dict, signed) -> tuple[bool, bool]:
    """``certify_grid`` on the integer stages of p at one eps.

    ``points`` maps a stage to the points it is signed at (``_sign_points``),
    and ``signed`` holds the stages whose signs there the float pass
    (``_float_signs``) has proved to change as they must; any other stage
    with points is signed exactly (``_changes_sign``).
    """
    def shown_by_signs(l: int) -> bool:
        return l in signed or (l in points and _changes_sign(stages[l], points[l]))

    proved = None  # what the Cauchy index of the stage before proves of this one
    for l, stage in enumerate(stages[:-1]):
        shown, proved = proved, None
        if shown and shown[0]:
            continue
        if shown_by_signs(l):
            continue
        proved = _next_stage(_sturm_ends(p.as_exact()) if l == 0 else _int_sturm_chain(stage)[0])
        if proved is None:
            interlaced = False
            break
    else:
        interlaced = True
    if proved and proved[1]:
        return interlaced, True
    if shown_by_signs(len(stages) - 1):
        return interlaced, True
    stage = stages[-1]
    return interlaced, len(stage) > 1 and _chain_count(_int_sturm_chain(stage)[0])[0] == len(stages)


def _midpoints(xs) -> list:
    """The midpoints of consecutive floats of xs, ascending when xs is."""
    return [0.5 * a + 0.5 * b for a, b in zip(xs, xs[1:])]


def _changes_sign(c: list, points) -> bool:
    """Whether the integer polynomial c (leading first) of degree n >= 1 has
    n distinct real roots, shown by nonzero values that change sign n times
    along -inf, points, +inf.

    Each change puts a root of c strictly between two neighbouring places
    of that list (intermediate value theorem), so n changes put n roots in
    n disjoint intervals.  Each value is exact (``_int_horner`` at the
    dyadic value of the float), so the points need not be trusted: a
    certificate checked, not found (McConnell, Mehlhorn, Naeher and
    Schweitzer, "Certifying algorithms", 2011).  A zero value, a point that
    is not finite and a point below the one before it show nothing, and so
    fail.
    """
    n = len(c) - 1
    if n < 1:
        return False
    lead = c[0] > 0
    sign = lead == (n % 2 == 0)  # the sign at -inf
    changes, prev = 0, -math.inf
    for x in points:
        if not (math.isfinite(x) and prev <= x):  # an eigenvalue that overflowed, or disorder
            return False
        prev = x
        v = _int_horner(c, *x.as_integer_ratio())[0]
        if not v:
            return False
        changes += (v > 0) != sign
        sign = v > 0
    return changes + (sign != lead) == n


def _float_signs(tests) -> list[bool]:
    """For each (c, points) of tests, whether float arithmetic proves that
    ``_changes_sign(c, points)`` holds; False leaves it undecided.

    Every c is an integer stage of one degree n >= 1 (leading first), and
    one array pass (``_float_horner``) evaluates every test.  A test with no
    points, a c past the float64 range, a point that is not finite or below
    the one before it, or a value whose sign the pass cannot decide proves
    nothing, and nor does a test whose signs change fewer or more than n
    times along -inf, points, +inf.  Each False is left to the exact
    ``_changes_sign``.
    """
    out = [False] * len(tests)
    rows, places, where = [], [], []
    for t, (c, xs) in enumerate(tests):
        if not xs:
            continue
        try:
            rows.append([float(v) for v in c])  # correctly rounded, or OverflowError
        except OverflowError:
            continue
        places.append(xs)
        where.append(t)
    if not rows or len(rows[0]) < 2:
        return out
    import numpy as np

    n = len(rows[0]) - 1
    width = max(map(len, places))
    C = np.array(rows)
    # pad each row of points with its last point, which changes no sign
    X = np.array([list(xs) + [xs[-1]] * (width - len(xs)) for xs in places], dtype=float)
    y, decided = _float_horner(C, X)
    ordered = np.isfinite(X).all(axis=1) & (X[:, 1:] >= X[:, :-1]).all(axis=1)
    up = y > 0
    lead = C[:, 0] > 0
    changes = ((up[:, 0] != (lead == (n % 2 == 0))).astype(int)  # against the sign at -inf
               + (up[:, 1:] != up[:, :-1]).sum(axis=1) + (up[:, -1] != lead))
    proved = decided.all(axis=1) & ordered & (changes == n)
    for t, ok in zip(where, proved.tolist()):
        out[t] = ok
    return out


# the float pass's error bound on a value, in units of (n + 1) 2^-53 times the
# sum of |C_i| |x|^(n - i) (``_float_horner`` proves it)
_HORNER_ULPS = 4
# the least absolute sum the float pass reads: its bound stays a normal float
_TINY = 2.0**-900


def _float_horner(C, X):
    """(y, decided) of integer polynomials P at float points, in one array pass.

    Row t of C holds the coefficients C_i = fl(P_i) of one P of degree n
    (leading first, each the float nearest the integer), and row t of X
    the points it is evaluated at.  y is fl Horner of C at each x, and
    decided says where y has the sign of the exact P(x), which is then
    nonzero: where x is finite, |y| > 4 (n + 1) 2^-53 s, s being fl Horner
    of |C_i| at |x|, and s >= 2^-900.

    Proof (u = 2^-53; Higham, Accuracy and Stability of Numerical
    Algorithms, eq. 5.3 and section 2.1): the rounding of P to C errs by
    |P(x) - C(x)| <= u S_P <= u S_C / (1 - u), where S_C = sum |C_i|
    |x|^(n - i).  Horner errs by |C(x) - y| <= gamma_2n S_C + (1 + gamma_2n) E,
    with gamma_k = k u / (1 - k u) and E = 2^-1075 sum_(j < n) |x|^j, the
    absolute error a product may take in the subnormal range (a sum with a
    subnormal result is exact).  The terms of s are nonnegative, so s >=
    (1 - gamma_2n) S_C - (1 + gamma_2n) E.  As |C_0| >= 1, S_C >= |x|^n,
    so E <= n 2^-1075 S_C when |x| >= 1, and E <= n 2^-1075 <= n 2^-175 s
    otherwise; either way E is below n 2^-170 s.  So |P(x) - y| is below
    ((2 n + 1) u (1 + 4 n u) + n 2^-169) s, below 4 (n + 1) u (1 - u) s,
    and so below the rounded bound, for every n below 2^40.  Overflow:
    every intermediate of y is at most the matching one of s in size
    (rounding is monotone), so an overflow leaves s infinite or NaN and
    decides nothing; s >= 2^-900 keeps the bound a normal float.
    """
    import numpy as np

    n, width = C.shape[1] - 1, X.shape[1]
    A, absX = np.abs(C), np.abs(X)
    with np.errstate(all="ignore"):
        y = np.repeat(C[:, :1], width, axis=1)
        s = np.repeat(A[:, :1], width, axis=1)
        for i in range(1, n + 1):
            y = y * X + C[:, i:i + 1]
            s = s * absX + A[:, i:i + 1]
        bound = (_HORNER_ULPS * (n + 1) * 2.0**-53) * s
        decided = (np.abs(y) > bound) & (s >= _TINY) & np.isfinite(X)
    return y, decided


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
    # Always True here, so a mutant that loosens it is equivalent (the tests
    # pin every end pattern up to m = 5): a neighbour pair of a chain drops
    # at most one variation, and only when its degrees differ by an odd
    # number, so the count m - deg g of a hyperbolic P_l needs m - deg g
    # pairs: consecutive degrees and one leading sign.  The alternated signs
    # then vary at +inf and not at -inf in every pair, a drop of -(m - deg g)
    hyperbolic = abs(_variation_drop(signed)) == m - gcd_degree
    return hyperbolic, hyperbolic and gcd_degree == 0


# start, stop and point count of the default eps grid, log-spaced
DEFAULT_GRID = (1.0, 1e-4, 9)


def default_epsilon_grid(start: float = DEFAULT_GRID[0], stop: float = DEFAULT_GRID[1],
                         count: int = DEFAULT_GRID[2]) -> tuple:
    """Logarithmic grid from start down to stop, inclusive."""
    if count < 2:
        return (float(start),)
    ratio = (stop / start) ** (1.0 / (count - 1))
    return tuple(start * ratio**i for i in range(count))
