"""Dense univariate real polynomials with exact-rational and float64 backends.

Coefficients are stored degree-descending (leading coefficient first); the
empty tuple is the zero polynomial with degree -inf.  Everywhere else in the
package, quadratic forms and coefficient vectors are indexed by ascending
power: index i always multiplies x**i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import BackendMismatchError, NonMonicError
from .scalars import (
    BACKEND_EXACT,
    BACKEND_FLOAT,
    check_backend,
    infer_backend,
    scalar_from_json,
    to_scalar,
)

NEG_INF = float("-inf")
_MISSING = object()


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple = ()
    backend: str = BACKEND_EXACT

    def __post_init__(self):
        check_backend(self.backend)
        coeffs = tuple(to_scalar(c, self.backend) for c in self.coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
        object.__setattr__(self, "coeffs", coeffs)

    # -- construction ------------------------------------------------------

    @classmethod
    def exact(cls, coeffs: Iterable) -> "Polynomial":
        return cls(tuple(coeffs), BACKEND_EXACT)

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """Monic polynomial with exactly the given roots (with multiplicity).

        Accepts a RootProfile or any sequence of scalars.  Exact in the
        rational backend when all roots are rational, float64 otherwise
        (``infer_backend``).
        """
        values = tuple(roots.flattened if isinstance(roots, RootProfile) else roots)
        if not values:
            raise ValueError("from_roots requires at least one root")
        backend = infer_backend(values)
        one = to_scalar(1, backend)
        coeffs = [one]
        for r in values:
            r = to_scalar(r, backend)
            coeffs.append(to_scalar(0, backend))
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] = coeffs[i] - r * coeffs[i - 1]
        return cls(tuple(coeffs), backend)

    # -- inspection --------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[0] == 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[0]

    def require_monic(self, what: str) -> "Polynomial":
        if not self.is_monic:
            got = f"leading coefficient {self.coeffs[0]}" if self.coeffs else "the zero polynomial"
            raise NonMonicError(f"{what} must be monic, got {got}")
        return self

    def ascending(self, length: int | None = None) -> tuple:
        """Coefficients by ascending power, zero padded to ``length``."""
        asc = tuple(reversed(self.coeffs))
        if length is None:
            return asc
        if len(asc) > length:
            raise ValueError(f"polynomial of degree {self.degree} does not fit in {length} slots")
        zero = to_scalar(0, self.backend)
        return asc + (zero,) * (length - len(asc))

    # -- ring operations ---------------------------------------------------

    def _coerced(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.backend != self.backend:
                raise BackendMismatchError(
                    f"cannot mix {self.backend} and {other.backend} polynomials"
                )
            return other
        return Polynomial((other,), self.backend)

    def __add__(self, other) -> "Polynomial":
        other = self._coerced(other)
        a, b = self.coeffs[::-1], other.coeffs[::-1]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(tuple(reversed(out)), self.backend)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerced(other)
        if self.is_zero or other.is_zero:
            return Polynomial((), self.backend)
        a, b = self.coeffs, other.coeffs
        zero = to_scalar(0, self.backend)
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(tuple(out), self.backend)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __divmod__(self, other) -> tuple:
        other = self._coerced(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        if len(rem) < len(div):
            return Polynomial((), self.backend), self
        lead = div[0]
        q = []
        for i in range(len(rem) - len(div) + 1):
            f = rem[i] / lead
            q.append(f)
            if f != 0:
                for j, d in enumerate(div):
                    rem[i + j] -= f * d
        return (
            Polynomial(tuple(q), self.backend),
            Polynomial(tuple(rem[len(q):]), self.backend),
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the coefficients, computed once: memo keys hash it often."""
        return hash((self.coeffs, self.backend))

    @cached_property
    def memo(self) -> dict:
        """What the package derived from this polynomial, keyed by derivation and arguments.

        The derivatives and the other backend of p (``derivative``,
        ``as_float``, ``as_exact``), its Bezout forms (``bezout.bezout_matrix``,
        keyed by the value of q), its roots (``roots.real_roots``), its
        exact roots, which every tolerance reads (``roots._exact_roots``),
        its Sturm chain with the chain's ends and gcd (``roots._sturm``),
        its smoothing family points (``nuij.nuij_family``), which a grid
        builds in one pass, and its power-sum symmetrizer
        (``leray.leray_symmetrizer``) are built on first request
        and kept here, as a matrix keeps its certificate, so every check of
        one request reads the same objects and each belongs to p.
        """
        return {}

    def derived(self, key, build):
        """``memo[key]``, made by ``build()`` on first request; a build that raises keeps nothing."""
        memo = self.memo
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = build()
        return value

    @cached_property
    def primitive(self) -> tuple[tuple, Fraction]:
        """``_primitive`` of an exact polynomial's coefficients, ints as a tuple.

        Computed on first read and kept, as a matrix keeps its certificate;
        every exact kernel that runs on integer coefficients reads it here.
        """
        ints, content = _primitive(self.coeffs)
        return tuple(ints), content

    def __call__(self, x):
        """Evaluate by Horner's rule; exact in the rational backend.

        An exact polynomial at an int or Fraction x = n/d runs homogeneous
        Horner (``_int_horner``) on its primitive integers P (``primitive``):
        the sum of P_i n^(k-i) d^i over d^k, times the content, is one
        Fraction.  Float and complex x take the rule on the coefficients as
        they are.
        """
        if self.backend == BACKEND_EXACT and self.coeffs and isinstance(x, (int, Fraction)):
            ints, content = self.primitive
            acc, dk = _int_horner(ints, x.numerator, x.denominator)
            return Fraction(content.numerator * acc, content.denominator * dk)
        acc = None
        for c in self.coeffs:
            acc = c if acc is None else acc * x + c
        if acc is None:
            return to_scalar(0, self.backend) if not isinstance(x, complex) else 0j
        return acc

    def derivative(self, order: int = 1) -> "Polynomial":
        """order-th derivative, built once (``memo``); order 0 returns the polynomial itself."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self
        return self.derived(("derivative", order), lambda: self._nth_derivative(order))

    def _nth_derivative(self, order: int) -> "Polynomial":
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = _derivative(coeffs)
        return Polynomial(tuple(coeffs), self.backend)

    # -- backend conversion -------------------------------------------------

    def as_float(self) -> "Polynomial":
        """The float64 rounding, built once (``memo``); a float polynomial is itself.

        Raises OverflowError, naming the float64 range, when a coefficient lies past it.
        """
        if self.backend == BACKEND_FLOAT:
            return self
        return self.derived("float", self._float64_rounding)

    def _float64_rounding(self) -> "Polynomial":
        try:
            return Polynomial(tuple(float(c) for c in self.coeffs), BACKEND_FLOAT)
        except OverflowError:
            raise OverflowError("a coefficient leaves the float64 range") from None

    def as_exact(self) -> "Polynomial":
        """Exact view of the bit pattern, built once (``memo``); float coefficients convert exactly."""
        if self.backend == BACKEND_EXACT:
            return self
        return self.derived("exact", lambda: Polynomial(tuple(Fraction(c) for c in self.coeffs),
                                                        BACKEND_EXACT))

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_coeff_list(cls, items: Sequence) -> "Polynomial":
        """From JSON coefficient values, leading first: exact unless one is a float."""
        values = [scalar_from_json(v) for v in items]
        return cls(tuple(values), infer_backend(values))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        n = len(self.coeffs) - 1
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = n - i
            if power == 0:
                parts.append(f"{c}")
            else:
                var = "x" if power == 1 else f"x^{power}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}{var}")
        return " + ".join(parts).replace("+ -", "- ")


def _primitive(coeffs: Sequence) -> tuple[list, Fraction]:
    """Primitive integer coefficients and rational content of exact coefficients.

    ``coeffs`` are ints or Fractions, leading first.  Returns ``(ints,
    content)`` with coprime ints and ``coeffs[i] == content * ints[i]``;
    the content is positive (0 for no coefficients), so signs are kept.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    prim = _int_primitive(ints)
    # the gcd that _int_primitive divided out, read off a nonzero entry
    g = next((v // w for v, w in zip(ints, prim) if w), 0)
    return prim, Fraction(g, den)


def _int_primitive(c: list) -> list:
    """Primitive part of an integer coefficient list: c over the gcd of its entries.

    The gcd is positive, so signs are kept; an empty or primitive list comes
    back as it is.
    """
    g = math.gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _derivative(c: Sequence) -> list:
    """Derivative of a coefficient list or tuple, leading first, as a list."""
    n = len(c) - 1
    return [v * (n - i) for i, v in enumerate(c[:-1])]


def _int_horner(c: Sequence, n: int, d: int) -> tuple[int, int]:
    """(d^k c(n/d), d^k) for integers c_0..c_k, leading first, by homogeneous Horner.

    The first entry is the sum of c_i n^(k-i) d^i, an integer, which is 0
    exactly when n/d is a root of c.
    """
    acc, dk = c[0], 1
    for v in c[1:]:
        dk *= d
        acc = acc * n + v * dk
    return acc, dk


def _horner_rows(rows, x):
    """Each coefficient row, leading first, at the points beside it, by Horner's rule.

    ``rows`` (..., n) with n >= 1 and ``x`` (..., k) are float arrays; the
    result has the shape of x, and each value the bits of the float
    ``Polynomial.__call__`` of its row at its point (the same products and
    sums, no fused multiply-add).  A row may carry leading zeros, which
    change no bit at a finite point.
    """
    import numpy as np

    acc = np.repeat(rows[..., :1], x.shape[-1], axis=-1)
    for k in range(1, rows.shape[-1]):
        acc = acc * x + rows[..., k:k + 1]
    return acc


@dataclass(frozen=True)
class RootProfile:
    """Sorted distinct real roots with multiplicities."""

    distinct_roots: tuple
    multiplicities: tuple

    def __post_init__(self):
        roots = tuple(self.distinct_roots)
        mults = tuple(int(m) for m in self.multiplicities)
        if not roots:
            raise ValueError("a root profile must contain at least one root")
        if len(roots) != len(mults):
            raise ValueError("distinct_roots and multiplicities must have equal length")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        if any(roots[i] >= roots[i + 1] for i in range(len(roots) - 1)):
            raise ValueError("distinct roots must be strictly increasing")
        object.__setattr__(self, "distinct_roots", roots)
        object.__setattr__(self, "multiplicities", mults)

    @classmethod
    def from_flat(cls, values, tol: float) -> "RootProfile":
        """Group a flat root list; entries within ``tol*max(1,|root|)`` merge."""
        vals = sorted(values)
        if not vals:
            raise ValueError("no roots to group")
        groups = [[vals[0]]]
        for v in vals[1:]:
            scale = max(1.0, abs(float(v)))
            if float(v) - float(groups[-1][-1]) < tol * scale:
                groups[-1].append(v)
            else:
                groups.append([v])
        roots = []
        mults = []
        for g in groups:
            rep = g[0] if len(g) == 1 else math.fsum(float(x) for x in g) / len(g)
            roots.append(rep)
            mults.append(len(g))
        return cls(tuple(roots), tuple(mults))

    @property
    def flattened(self) -> tuple:
        out = []
        for r, m in zip(self.distinct_roots, self.multiplicities):
            out.extend([r] * m)
        return tuple(out)

    @property
    def is_strict(self) -> bool:
        return all(m == 1 for m in self.multiplicities)


def power_sums(p: Polynomial, upto: int) -> list:
    """Power sums P_0..P_upto of the roots via Newton's identities, as Fractions.

    Works from the coefficients alone; no root extraction.  P_0 = deg p.
    Float p is taken at its exact dyadic value (``as_exact``).  The
    recurrence runs on the primitive integers L x^m + a_1 x^(m-1) + ... + a_m
    of p, where the scaled sums s_t = L^t P_t are integers:
    s_t = -t a_t L^(t-1) - sum_(j=1..min(t-1, m)) a_j L^(j-1) s_(t-j), the
    first term only for t <= m; each P_t is then one Fraction s_t / L^t.
    """
    p.require_monic("power-sum input")
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    m = len(p.coeffs) - 1
    (L, *a), _ = p.as_exact().primitive
    c = [v * L ** j for j, v in enumerate(a)]  # c[j - 1] = a_j L^(j-1)
    sums = [m]
    for t in range(1, upto + 1):
        acc = -t * c[t - 1] if t <= m else 0
        for j in range(1, min(t - 1, m) + 1):
            acc -= c[j - 1] * sums[t - j]
        sums.append(acc)
    return [Fraction(s, L ** t) for t, s in enumerate(sums)]
