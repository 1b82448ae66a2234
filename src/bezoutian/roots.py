"""Certified real-root extraction and hyperbolicity testing.

The exact backend never trusts a float where it matters: multiplicities come
from gcd structure (Yun decomposition) and hyperbolicity from one Sturm
chain, so rational inputs get exact multiplicity profiles and exact verdicts.
``is_hyperbolic`` decides exact input without a root and reads the root
profile only when a caller asks for its witness.  Root values that are
irrational are polished eigenvalues of the companion matrix of a
square-free factor, where they are simple and well conditioned; the Newton
polish (``_polish_roots``) stops at a fixed point or a cycle.  A float
polynomial keeps its companion eigenvalues, which a batch of polynomials
of one degree gets from one stacked LAPACK call on the matrices of
``bezout._companion_stack``, and the polish evaluates by Horner's rule
inline, with the bits of ``Polynomial.__call__``.

The exact kernels run on a polynomial's primitive integer coefficients
(``Polynomial.primitive``, Python ints, leading first, computed once per
polynomial; the list kernels ``_derivative``, ``_int_primitive`` and the
homogeneous Horner ``_int_horner`` live in ``polynomial``): the gcd is a
primitive remainder sequence of pseudo-remainders, Yun's quotients are exact
integer divisions, the Sturm chain of pseudo-remainders ends at gcd(p, p')
and returns the degree and leading sign of each member, which give the
real-root count, and the rational-root search tests integer candidates.
The monic factors, counts and roots they return equal those of Fraction
arithmetic.  The Sturm kernel takes an integer list directly, so a caller
holding one (the Nuij stage chain of ``nuij.certify_stages``, which also
reads the Cauchy index of the next stage from those ends) builds no
Polynomial for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonHyperbolicError
from .bezout import _companion_stack
from .polynomial import Polynomial, RootProfile, _derivative, _int_horner, _int_primitive
from .scalars import BACKEND_EXACT

DEFAULT_TOL = 1e-9

# beyond this, rational-root candidate enumeration is not worth it
_FACTOR_BOUND = 10**12


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
        return Polynomial.zero()
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
    decomposition divide the pair once.
    """
    if p.backend != BACKEND_EXACT:
        raise ValueError("square-free decomposition requires the exact backend")
    if p.degree < 1:
        return []
    f = p.primitive[0]
    df = _derivative(f)
    g = _sturm_gcd(p)
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
    return _chain_count(_int_sturm_chain(p.primitive[0])[0])


def _int_sturm_chain(a: list) -> tuple[list, tuple]:
    """(ends, gcd) of the Sturm chain of the integer polynomial a (leading
    first, degree >= 1).

    ``ends`` holds the (degree + 1, leading sign) of each member, in chain
    order.  Each pseudo-remainder is primitive and scaled by a positive
    integer, which keeps the signs of the classical chain; the last member
    is gcd(a, a'), and ``gcd`` is that member with a positive leading
    coefficient, the primitive gcd that ``poly_gcd`` gives.  The ends are
    all that Sturm's theorem (``_chain_count``) and the Cauchy index of a
    Nuij stage (``nuij._next_stage``) read of the chain.
    """
    b = _int_primitive(_derivative(a))
    ends = [(len(a), a[0] > 0)]
    while b:
        ends.append((len(b), b[0] > 0))
        a, b = b, [-v for v in _int_primitive(_prem(a, b))]
    return ends, tuple(a if a[0] > 0 else [-v for v in a])


def _variation_drop(ends: list) -> int:
    """Sign variations at -inf minus those at +inf of a polynomial sequence,
    given as the (degree + 1, leading sign) of each member.

    A member's sign at +inf is its leading sign, and at -inf that sign
    flipped at odd degree; so two neighbours vary at -inf exactly when they
    vary at +inf or their degrees differ in parity, not both.
    """
    drop = 0
    n0, s0 = ends[0]
    for n, s in ends[1:]:
        change = s != s0
        drop += (change != ((n - n0) % 2 == 1)) - change
        n0, s0 = n, s
    return drop


def _chain_count(ends: list) -> tuple[int, int]:
    """(distinct real roots, deg gcd(a, a')) of a from the ends of its Sturm chain."""
    return _variation_drop(ends), ends[-1][0] - 1


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


def _sturm_ends(p: Polynomial) -> list:
    """The ends of the Sturm chain of exact p of degree >= 1 (``_int_sturm_chain``).

    p keeps the chain's ends and gcd (``Polynomial.memo``): ``is_hyperbolic``
    reads its verdict from the ends, and ``nuij.certify_stages`` reads stage
    0 and the Cauchy index of stage 1 at every eps.
    """
    return p.derived("sturm", lambda: _int_sturm_chain(p.primitive[0]))[0]


def _sturm_gcd(p: Polynomial) -> tuple:
    """gcd(p, p') of exact p of degree >= 1 as primitive ints, positive leading
    first: the last member of the Sturm chain p keeps (``_sturm_ends``)."""
    return p.derived("sturm", lambda: _int_sturm_chain(p.primitive[0]))[1]


def _hyperbolic_strict(p: Polynomial) -> tuple[bool, bool]:
    """(hyperbolic, strict) of exact p of degree >= 1: Sturm count == deg p - deg gcd(p, p').

    Read from the chain ends p keeps (``_sturm_ends``).
    """
    return _chain_verdict(_sturm_ends(p))


def _chain_verdict(ends: list) -> tuple[bool, bool]:
    """(hyperbolic, strict) of a from the ends of its Sturm chain."""
    count, gcd_degree = _chain_count(ends)
    hyperbolic = count == ends[0][0] - 1 - gcd_degree
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
    homogeneous integer Horner (``polynomial._int_horner``) and deflated
    exactly.
    """
    ints = list(f.primitive[0])
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
                            and _int_horner(ints, num, q)[0] == 0):
                        found.append(Fraction(num, q))
                        ints = _deflate(ints, num, q)
                        scale *= q
                        if len(ints) < 2:
                            break
                        lc, c0, cauchy, at_one, at_minus_one = _search_state(ints)
    return sorted(found), Polynomial.exact([scale * v for v in ints])


def _polish_roots(pf: Polynomial, zs) -> list[complex]:
    """Each z in zs polished by up to 12 Newton steps on pf: the iterate of least |pf|.

    Each step reuses pf at the current iterate, and a step that returns to
    an earlier iterate (a fixed point or a cycle) ends the loop: the Newton
    map depends on z alone, so every later iterate would repeat one already
    scored, and none can beat the strict ``v < best_val``.  pf and pf' are
    evaluated by Horner's rule inline on their coefficient tuples, with the
    operations of ``Polynomial.__call__`` in its order, so each value has
    the bits of calling pf or pf' at no Python call per evaluation.
    """
    f0, *fs = pf.coeffs
    d0, *ds = pf.derivative().coeffs
    out = []
    for z in zs:
        z = complex(z)
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
        out.append(best)
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


def _residual_check(p: Polynomial, roots, tol: float):
    """Refuse a float root whose residual exceeds its bound; ValueError if the bound overflows."""
    pf = p.as_float()
    norm = max(abs(float(c)) for c in pf.coeffs)
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

    Exact backend: multiplicities from the Yun decomposition (exact), root
    values exact when rational, else polished floats on square-free factors.
    Float backend: companion eigenvalues, Newton polishing, and merging of
    clusters closer than tol*max(1,|root|).  ``imag_tol`` loosens only the
    complex-root rejection threshold; callers that already know the input
    is real rooted (smoothing families) use it to tolerate the conjugate
    splitting the eigensolver produces at tight root clusters.  p keeps the
    profile of each (tol, imag_tol) pair (``Polynomial.memo``).
    """
    p.require_monic("real_roots input")
    if p.degree < 1:
        raise ValueError("real_roots requires degree >= 1")
    itol = tol if imag_tol is None else imag_tol
    return p.derived(("roots", tol, itol), lambda: _real_roots(p, tol, itol))


def _real_roots(p: Polynomial, tol: float, itol: float) -> RootProfile:
    if p.backend == BACKEND_EXACT:
        pairs: list[tuple[object, int]] = []
        all_rational = True
        for factor, mult in squarefree_decomposition(p):
            rational, rest = _rational_roots(factor)
            pairs.extend((r, mult) for r in rational)
            if rest.degree >= 1:
                all_rational = False
                # p keeps the float roots of each cofactor, which every tol reads
                floats = p.derived(("float roots", rest), functools.partial(_float_roots, rest))
                vals = _require_real(floats, itol)
                pairs.extend((v, mult) for v in vals)
        pairs.sort(key=lambda rm: rm[0])
        profile = RootProfile(tuple(r if all_rational else float(r) for r, _ in pairs),
                              tuple(m for _, m in pairs))
        if all_rational:
            return profile  # each root passed an exact evaluation
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
    asked.  The monic p keeps the Bezout form of (p, p') and its roots
    (``Polynomial.memo``), and an exact form keeps its LDL certificate, so
    callers redo neither.
    """
    from .bezout import bezout_matrix, psd_check

    if p.is_zero or p.degree < 1:
        return HyperbolicityVerdict(False, False, "degree < 1", "degenerate")
    monic = p * (1 / p.leading) if not p.is_monic else p
    hermite = psd_check(bezout_matrix(monic, monic.derivative()), DEFAULT_TOL)
    if p.backend == BACKEND_EXACT:
        sturm_verdict, strict = _hyperbolic_strict(monic)
        if hermite.is_psd != sturm_verdict:
            raise ArithmeticError("internal fault: Sturm and Hermite certificates disagree")
        if not sturm_verdict:
            return HyperbolicityVerdict(False, False, "complex roots (Sturm count short)",
                                        "sturm")
        return HyperbolicityVerdict(True, strict, functools.partial(real_roots, monic), "sturm")
    if not hermite.is_psd:
        reason = f"Bezout form of (p, p') indefinite: {hermite.witness}"
        return HyperbolicityVerdict(False, False, reason, "hermite-psd")
    try:
        profile = real_roots(monic)
    except NonHyperbolicError as exc:
        return HyperbolicityVerdict(False, False, str(exc), "hermite-psd")
    return HyperbolicityVerdict(True, profile.is_strict, profile, "hermite-psd")
