"""Certified real-root extraction and hyperbolicity testing.

The exact backend never trusts a float where it matters: multiplicities come
from gcd structure (Yun decomposition) and hyperbolicity from one Sturm
chain, so rational inputs get exact multiplicity profiles and exact verdicts.
``is_hyperbolic`` decides every input from the chain of its exact value
alone, with no matrix and no root (a decimal is an exact dyadic rational);
it reads the root profile of exact input only when asked, and the float
roots of float input after the verdict.  On exact input
every root of a square-free Yun factor comes from one kernel
(``_factor_roots``), with no float polynomial and no eigensolver: Sturm's
theorem on the factor's own chain isolates each root in a dyadic bracket
(``_isolate``), and one refinement loop settles each bracket by exact signs
at dyadic points (``_settle``).  A rational root of the primitive integer
factor c is k/|lc c| (rational root theorem), so a bracket narrower than
1/|lc c| holds one candidate, tested exactly; a root that fails it is
irrational and is halved to the float nearest it.  A Sturm count short of
the degree raises NonHyperbolicError.
A float polynomial keeps its companion eigenvalues, which a batch of
polynomials of one degree gets from one stacked LAPACK call on the
matrices of ``bezout._companion_stack``; the Newton polish
(``_polish_roots``) stops at a fixed point or a cycle, evaluates by
Horner's rule inline, with the bits of ``Polynomial.__call__``, and runs a
real eigenvalue as a float.

The exact kernels run on a polynomial's primitive integer coefficients
(``Polynomial.primitive``, Python ints, leading first, computed once per
polynomial; the list kernels ``_derivative``, ``_int_primitive`` and the
homogeneous Horner ``_int_horner`` live in ``polynomial``): the gcd is a
primitive remainder sequence of pseudo-remainders, Yun's quotients are exact
integer divisions, and the Sturm chain of pseudo-remainders ends at
gcd(p, p') and returns the degree and leading sign of each member, which
give the real-root count.  The monic factors, counts and roots they return
equal those of Fraction arithmetic.  The Sturm kernel takes an integer list
directly, so a caller holding one (a Nuij stage of ``nuij.certify_grid``
that sign changes do not certify, whose chain ends also give the Cauchy
index of the next stage) builds no Polynomial for it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonHyperbolicError
from .bezout import _companion_stack
from .polynomial import Polynomial, RootProfile, _derivative, _int_horner, _int_primitive
from .scalars import BACKEND_EXACT

DEFAULT_TOL = 1e-9

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
    a, b = f.primitive[0], g.primitive[0]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_primitive(_prem(a, b))
    if not a:
        return Polynomial()
    return Polynomial.exact([Fraction(v, a[0]) for v in a])


def _int_gcd(a: list, b: list) -> tuple[Polynomial, tuple]:
    """poly_gcd of integer polynomials: the monic gcd and its primitive ints."""
    g = poly_gcd(Polynomial.exact(a), Polynomial.exact(b))
    return g, g.primitive[0]


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition p = lc * prod f_i^i with square-free monic f_i (Yun 1976).

    Runs on the primitive integer multiple of p.  Every divisor is a
    primitive gcd, so every quotient is an exact integer division (Gauss's
    lemma).  The first, gcd(p, p'), is the last member of the Sturm chain
    that p keeps (``_sturm_gcd``), so p's hyperbolicity gate and its
    decomposition divide the pair once.  A square-free monic p is its own
    factor, so its roots read that chain too (``_factor_roots``).
    """
    if p.backend != BACKEND_EXACT:
        raise ValueError("square-free decomposition requires the exact backend")
    if p.degree < 1:
        return []
    f = p.primitive[0]
    df = _derivative(f)
    g = _sturm_gcd(p)
    if len(g) == 1:
        return [(p if p.is_monic else Polynomial.exact([Fraction(v, f[0]) for v in f]), 1)]
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


def _int_sturm_chain(a: list) -> tuple[list, tuple, list]:
    """(ends, gcd, chain) of the Sturm chain of the integer polynomial a
    (leading first, degree >= 1).

    ``chain`` is ``_sturm_sequence(a)``, and ``ends`` holds the (degree + 1,
    leading sign) of each member, in chain order; the last member is
    gcd(a, a'), and ``gcd`` is that member with a positive leading
    coefficient, the primitive gcd that ``poly_gcd`` gives.  The ends are
    all that Sturm's theorem (``_chain_count``) and the Cauchy index of a
    Nuij stage (``nuij._next_stage``) read of the chain; root isolation
    (``_isolate``) reads the members.
    """
    chain = _sturm_sequence(a)
    g = chain[-1]
    return [(len(f), f[0] > 0) for f in chain], tuple(g if g[0] > 0 else [-v for v in g]), chain


def _sturm_sequence(a: list) -> list[list]:
    """The Sturm chain of the integer polynomial a (leading first, degree >= 1).

    a, its primitive derivative, then each negated pseudo-remainder made
    primitive.  Each is a positive integer multiple of the member of the
    classical chain, so every member has the classical signs at every point.
    """
    chain = [a]
    b = _int_primitive(_derivative(a))
    while b:
        chain.append(b)
        a, b = b, [-v for v in _int_primitive(_prem(a, b))]
    return chain


def _end_variations(ends: list) -> tuple[int, int]:
    """Sign variations at -inf and at +inf of a polynomial sequence, given as
    the (degree + 1, leading sign) of each member.

    A member's sign at +inf is its leading sign, and at -inf that sign
    flipped at odd degree.
    """
    at_inf = [s for _, s in ends]
    at_minus_inf = [s == (n % 2 == 1) for n, s in ends]
    return (sum(a != b for a, b in zip(at_minus_inf, at_minus_inf[1:])),
            sum(a != b for a, b in zip(at_inf, at_inf[1:])))


def _variation_drop(ends: list) -> int:
    """Sign variations at -inf minus those at +inf (``_end_variations``)."""
    at_minus_inf, at_inf = _end_variations(ends)
    return at_minus_inf - at_inf


def _chain_count(ends: list) -> tuple[int, int]:
    """(distinct real roots, deg gcd(a, a')) of a from the ends of its Sturm chain."""
    return _variation_drop(ends), ends[-1][0] - 1


def sturm_real_root_count(p: Polynomial) -> int:
    """Number of distinct real roots, exact (Sturm's theorem on integer polynomials).

    Read from the chain p keeps (``_sturm_ends``).  The chain's common factor
    gcd(p, p') changes no sign variation, so p need not be square-free.
    """
    if p.backend != BACKEND_EXACT:
        raise ValueError("Sturm counting requires the exact backend")
    if p.degree < 1:
        return 0
    return _chain_count(_sturm_ends(p))[0]


def _sturm(p: Polynomial) -> tuple[list, tuple, list]:
    """``_int_sturm_chain`` of exact p of degree >= 1, which p keeps (``Polynomial.memo``).

    ``is_hyperbolic``, ``sturm_real_root_count``, ``factorization.separates``
    and ``factorization.derivative_bound_constant`` read their verdicts from
    the ends, Yun's decomposition starts from the gcd,
    ``nuij.certify_grid`` reads stage 0 and the Cauchy index of stage 1 at
    every eps, and the roots of a square-free p are counted from the ends
    and isolated on the chain itself.
    """
    return p.derived("sturm", lambda: _int_sturm_chain(p.primitive[0]))


def _sturm_ends(p: Polynomial) -> list:
    """The ends of the Sturm chain of exact p of degree >= 1 (``_sturm``)."""
    return _sturm(p)[0]


def _sturm_gcd(p: Polynomial) -> tuple:
    """gcd(p, p') of exact p of degree >= 1 as primitive ints, positive leading
    first: the last member of the Sturm chain p keeps (``_sturm``)."""
    return _sturm(p)[1]


def _hyperbolic_strict(p: Polynomial) -> tuple[bool, bool]:
    """(hyperbolic, strict) of exact p of degree >= 1, from the chain ends p keeps."""
    return _chain_verdict(_sturm_ends(p))


def _chain_verdict(ends: list) -> tuple[bool, bool]:
    """(hyperbolic, strict) of a from the ends of its Sturm chain."""
    count, gcd_degree = _chain_count(ends)
    hyperbolic = count == ends[0][0] - 1 - gcd_degree
    return hyperbolic, hyperbolic and gcd_degree == 0


def _sign_at(c, n: int, d: int) -> int:
    """The sign of the integer polynomial c at n/d, d > 0, exactly (``_int_horner``)."""
    v = _int_horner(c, n, d)[0]
    return (v > 0) - (v < 0)


def _variations(chain: list, n: int, d: int) -> int:
    """Sign variations of the Sturm chain at n/d, zeros dropped."""
    signs = [s for s in (_sign_at(f, n, d) for f in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_bound(c) -> int:
    """The exponent of a power of two B with every complex root of c inside |z| < B.

    Fujiwara's bound 2 max_i |c_i / c_0|^(1/i), with each ratio below
    2^(bits c_i - bits c_0 + 1); leading coefficient first.
    """
    n0 = c[0].bit_length()
    return 1 + max((-((n0 - v.bit_length() - 1) // i) for i, v in enumerate(c) if i and v),
                   default=0)


def _isolate(chain: list, ends: list) -> list[tuple[int, int, int]]:
    """Ascending brackets (lo/d, hi/d], each holding exactly one real root of chain[0].

    ``chain`` is the Sturm chain of a square-free integer polynomial and
    ``ends`` its ends (``_int_sturm_chain``).  Each bracket (lo, hi, d)
    halves (-B, B] (``_root_bound``) some number of times, d a power of
    two.  Sturm's theorem counts the distinct real roots in (lo/d, hi/d]
    as the variations at lo/d minus those at hi/d; brackets holding more
    are halved.  B bounds every root of chain[0], and the variations change
    only at its roots, so those at -B and B are the ones at -inf and +inf,
    read from the ends.
    """
    e = _root_bound(chain[0])
    b, d = (1 << e, 1) if e >= 0 else (1, 1 << -e)
    out = []
    todo = [(-b, b, d, *_end_variations(ends))]
    while todo:
        lo, hi, d, v_lo, v_hi = todo.pop()
        if v_lo - v_hi == 1:
            out.append((lo, hi, d))
        elif v_lo - v_hi > 1:
            lo, hi, d = 2 * lo, 2 * hi, 2 * d
            mid = (lo + hi) // 2
            v_mid = _variations(chain, mid, d)
            todo += [(mid, hi, d, v_mid, v_hi), (lo, mid, d, v_lo, v_mid)]
    return out


def _to_float(n: int, d: int) -> float:
    """n/d rounded to the nearest float (ties to even), infinite past the float64 range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _settle(c, lo: int, hi: int, d: int):
    """The one root r of the square-free integer c in (lo/d, hi/d]: a Fraction
    when r is rational, else the float nearest r.

    c has the sign s of c(hi/d) on (r, hi/d] and -s on (lo/d, r), so halving
    the bracket by the sign at its midpoint keeps r inside, on the dyadic
    grid of ``_isolate``; an end or midpoint at r returns it exactly.  A
    rational root of c is k/|lc| for an integer k (rational root theorem),
    so once the bracket is narrower than 1/|lc| it holds one candidate, and
    ``_int_horner`` tests it exactly.  Past that test r is irrational, and
    halving goes on until both ends round to one float, which rounding's
    monotonicity makes r's: every sign is exact, so the result is r
    correctly rounded, ties to even, infinite past the float64 range.
    """
    s = _sign_at(c, hi, d)
    if not s:
        return Fraction(hi, d)
    lc = abs(c[0])
    untested = True
    while True:
        if untested and (hi - lo) * lc < d:
            untested = False
            k = hi * lc // d  # the largest k/lc <= hi/d
            if k * d > lo * lc and not _int_horner(c, k, lc)[0]:
                return Fraction(k, lc)
        if not untested and _to_float(lo, d) == _to_float(hi, d):
            return _to_float(hi, d)
        lo, hi, d = 2 * lo, 2 * hi, 2 * d
        mid = (lo + hi) // 2
        s_mid = _sign_at(c, mid, d)
        if not s_mid:
            return Fraction(mid, d)
        if s_mid == s:
            hi = mid
        else:
            lo = mid


def _factor_roots(f: Polynomial) -> list:
    """The real roots of the square-free exact f, ascending: each a Fraction
    when rational, else the float nearest it.

    A degree-1 f gives its root directly.  Otherwise the count of the chain
    f keeps (``sturm_real_root_count``) refuses f with a complex root
    (NonHyperbolicError), and each Sturm bracket on that chain (``_sturm``,
    ``_isolate``) is settled by ``_settle`` on f's primitive integers.
    """
    c = f.primitive[0]
    if len(c) == 2:
        return [Fraction(-c[1], c[0])]
    n, count = len(c) - 1, sturm_real_root_count(f)
    if count < n:
        raise NonHyperbolicError(f"complex roots detected: {n - count} of the {n} "
                                 "roots of a square-free factor are not real")
    ends, _, chain = _sturm(f)
    return [_settle(c, *bracket) for bracket in _isolate(chain, ends)]


def _polish_roots(pf: Polynomial, zs) -> list[complex]:
    """Each z in zs polished by up to 12 Newton steps on pf: the iterate of least |pf|.

    Each step reuses pf at the current iterate, and a step that returns to
    an earlier iterate (a fixed point or a cycle) ends the loop: the Newton
    map depends on z alone, so every later iterate would repeat one already
    scored, and none can beat the strict ``v < best_val``.  pf and pf' are
    evaluated by Horner's rule inline on their coefficient tuples, with the
    operations of ``Polynomial.__call__`` in its order, so each value has
    the bits of calling pf or pf' at no Python call per evaluation.  A z
    with imaginary part +0.0 runs the loop as a float: on the real
    coefficients every complex iterate keeps that +0.0 and its real part
    the float bits, so ``complex(best)`` is the complex loop's result.  A
    -0.0 imaginary part can turn to +0.0 in a step, so it stays complex.
    """
    f0, *fs = pf.coeffs
    d0, *ds = pf.derivative().coeffs
    out = []
    for z in zs:
        z = complex(z)
        if z.imag == 0 and math.copysign(1.0, z.imag) > 0:
            z = z.real
        fz = f0
        for c in fs:
            fz = fz * z + c
        best, best_val = z, abs(fz)
        seen = {z}
        for _ in range(12):
            d = d0
            for c in ds:
                d = d * z + c
            if d == 0:
                break
            z = z - fz / d
            if z in seen:
                break
            seen.add(z)
            fz = f0
            for c in fs:
                fz = fz * z + c
            v = abs(fz)
            if v < best_val:
                best, best_val = z, v
        out.append(complex(best))
    return out


def _keep_eigenvalues(pfs) -> None:
    """Each float polynomial of pfs, all of one degree, keeps its companion eigenvalues.

    The companion matrices of p / lc(p) of those that keep none yet
    (``Polynomial.memo``), built by ``bezout._companion_stack``, go to one
    stacked ``np.linalg.eigvals`` call.  LAPACK runs on each matrix of a
    stack as on that matrix alone, so each polynomial gets the bits a call
    on it alone gives.  ``_float_roots`` polishes what a polynomial keeps.
    """
    todo = [pf for pf in pfs if "eigenvalues" not in pf.memo]
    if not todo or todo[0].degree < 1:
        return
    import numpy as np

    for pf, eigs in zip(todo, np.linalg.eigvals(_companion_stack([pf.coeffs for pf in todo]))):
        pf.memo["eigenvalues"] = eigs


def _float_roots(p: Polynomial) -> list[complex]:
    """Polished eigenvalues of the companion matrix (any multiplicity pattern).

    The float rounding of p keeps its eigenvalues (``_keep_eigenvalues``),
    which a batch of polynomials may have found in one call already.
    """
    pf = p.as_float()
    _keep_eigenvalues([pf])
    return _polish_roots(pf, pf.memo["eigenvalues"])


def _require_real(values, tol: float) -> list[float]:
    scale = max(1.0, max(abs(z) for z in values))
    bad = [z for z in values if abs(z.imag) > tol * scale]
    if bad:
        raise NonHyperbolicError(f"complex roots detected, e.g. {bad[0]:.6g}")
    return sorted(z.real for z in values)


def _residual_check(pf: Polynomial, roots, tol: float):
    """Refuse a root of the float pf whose residual exceeds its bound; ValueError if the bound overflows."""
    norm = max(abs(c) for c in pf.coeffs)
    m = max(1, len(pf.coeffs) - 1)
    for lam in roots:
        try:
            bound = tol * norm * max(1.0, abs(lam)) ** m
        except OverflowError:
            raise ValueError(f"the residual bound at root {lam:.6g} leaves the float64 range") \
                from None
        if abs(pf(lam)) > bound:
            raise ArithmeticError(f"root {lam} failed the residual check")


def real_roots(p: Polynomial, tol: float = DEFAULT_TOL,
               imag_tol: float | None = None) -> RootProfile:
    """Sorted real roots with multiplicities.

    Exact backend: multiplicities from the Yun decomposition (exact), each
    rational root an exact Fraction and each irrational one its correctly
    rounded float (``_factor_roots``), certified by exact signs.  Float
    backend: companion eigenvalues, Newton polishing, and merging of
    clusters closer than tol*max(1,|root|), each root passing the residual
    check.  ``imag_tol`` loosens only the complex-root rejection threshold;
    callers that already know the input is real rooted (smoothing
    families) use it to tolerate the conjugate splitting the eigensolver
    produces at tight root clusters.  p keeps the
    profile of each (tol, imag_tol) pair (``Polynomial.memo``).
    """
    p.require_monic("real_roots input")
    if p.degree < 1:
        raise ValueError("real_roots requires degree >= 1")
    itol = tol if imag_tol is None else imag_tol
    return p.derived(("roots", tol, itol), lambda: _real_roots(p, tol, itol))


def _real_roots(p: Polynomial, tol: float, itol: float) -> RootProfile:
    if p.backend == BACKEND_EXACT:
        # p keeps its exact roots, which every tol reads
        return RootProfile(*p.derived("exact roots", functools.partial(_exact_roots, p)))
    profile = RootProfile.from_flat(_require_real(_float_roots(p), itol), tol=tol)
    _residual_check(p, profile.distinct_roots, max(tol, 1e-12))
    return profile


def _exact_roots(p: Polynomial) -> tuple[tuple, tuple]:
    """(roots, multiplicities) of exact p, ascending: the roots ``_factor_roots``
    settles on each Yun factor, each rational one a Fraction and each
    irrational one the float nearest it.

    Every root is certified by exact signs, so no residual is checked.
    The readers of a float root round p to floats, so OverflowError is
    raised when p has an irrational root and a coefficient past the
    float64 range.  That covers an irrational root past the range (an
    infinite float): by Cauchy's bound |r| < 1 + max |c_i| for monic p.
    """
    pairs = sorted((r, mult) for factor, mult in squarefree_decomposition(p)
                   for r in _factor_roots(factor))
    if any(type(r) is float for r, _ in pairs) and \
            any(abs(c) > sys.float_info.max for c in p.coeffs):
        raise OverflowError("a coefficient leaves the float64 range")
    return tuple(r for r, _ in pairs), tuple(m for _, m in pairs)


@dataclass(frozen=True)
class HyperbolicityVerdict:
    """The verdict on p and its ``method``: "sturm" when the Sturm chain of p's
    exact value decides it, "float-roots" when that chain says hyperbolic and
    the float roots of float p still leave the real line, "degenerate" below
    degree 1.  ``is_strict`` is that of p's exact value on either backend, so
    on float p exactly distinct roots that merge at tol give a strict
    verdict whose witness is not strict."""

    is_hyperbolic: bool
    is_strict: bool
    _witness: object  # the witness, or a function computing it on first read
    method: str

    @functools.cached_property
    def witness(self):
        """RootProfile on success, reason string on failure.

        On exact input the verdict needs no root, so the roots are read
        only here, on first access.
        """
        return self._witness() if callable(self._witness) else self._witness


def is_hyperbolic(p: Polynomial) -> HyperbolicityVerdict:
    """Whether p is hyperbolic, and strictly, from the Sturm chain of its exact value.

    The chain that ``p.as_exact()`` keeps (``_sturm``) counts the distinct
    real roots and ends at gcd(p, p'); p is hyperbolic when the count
    reaches deg p - deg gcd(p, p'), strict when that gcd is constant, with
    no matrix and no root.  A decimal is an exact dyadic rational, so float
    input is decided at that value too.  Exact p reads its roots only when
    ``witness`` is first read; float p then reads the float roots of its
    monic form, which must be real too, and keeps them (``Polynomial.memo``)
    for its callers.
    """
    if p.is_zero or p.degree < 1:
        return HyperbolicityVerdict(False, False, "degree < 1", "degenerate")
    hyperbolic, strict = _hyperbolic_strict(p.as_exact())
    if not hyperbolic:
        return HyperbolicityVerdict(False, False, "complex roots (Sturm count short)", "sturm")
    monic = p * (1 / p.leading) if not p.is_monic else p
    if p.backend == BACKEND_EXACT:
        return HyperbolicityVerdict(True, strict, functools.partial(real_roots, monic), "sturm")
    try:
        profile = real_roots(monic)
    except NonHyperbolicError as exc:
        return HyperbolicityVerdict(False, False, str(exc), "float-roots")
    return HyperbolicityVerdict(True, strict, profile, "sturm")
