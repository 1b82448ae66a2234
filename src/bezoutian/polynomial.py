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
    def float64(cls, coeffs: Iterable) -> "Polynomial":
        return cls(tuple(coeffs), BACKEND_FLOAT)

    @classmethod
    def zero(cls, backend: str = BACKEND_EXACT) -> "Polynomial":
        return cls((), backend)

    @classmethod
    def one(cls, backend: str = BACKEND_EXACT) -> "Polynomial":
        return cls((1,), backend)

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

    def require_monic(self, what: str = "polynomial") -> "Polynomial":
        if not self.is_monic:
            raise NonMonicError(f"{what} must be monic, got leading {self.coeffs[:1]}")
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

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs), self.backend)

    def __sub__(self, other) -> "Polynomial":
        return self.__add__(self._coerced(other).__neg__())

    def __rsub__(self, other) -> "Polynomial":
        return self.__neg__().__add__(other)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerced(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.backend)
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
            return Polynomial.zero(self.backend), self
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

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    @cached_property
    def primitive(self) -> tuple[tuple, Fraction]:
        """``_primitive`` of an exact polynomial's coefficients, ints as a tuple.

        Computed on first read and kept, as a matrix keeps its certificate.
        """
        ints, content = _primitive(self.coeffs)
        return tuple(ints), content

    def __call__(self, x):
        """Evaluate by Horner's rule; exact in the rational backend.

        An exact polynomial at an int or Fraction x = n/d runs homogeneous
        Horner on its primitive integers P (``primitive``): the sum of
        P_i n^(k-i) d^i over d^k, times the content, is one Fraction.  Float
        and complex x take the rule on the coefficients as they are.
        """
        if self.backend == BACKEND_EXACT and self.coeffs and isinstance(x, (int, Fraction)):
            (acc, *rest), content = self.primitive
            n, d, dk = x.numerator, x.denominator, 1
            for c in rest:
                dk *= d
                acc = acc * n + c * dk
            return Fraction(content.numerator * acc, content.denominator * dk)
        acc = None
        for c in self.coeffs:
            acc = c if acc is None else acc * x + c
        if acc is None:
            return to_scalar(0, self.backend) if not isinstance(x, complex) else 0j
        return acc

    def derivative(self, order: int = 1) -> "Polynomial":
        """order-th derivative; order 0 returns the polynomial itself."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        coeffs = self.coeffs
        for _ in range(order):
            n = len(coeffs) - 1
            if n <= 0:
                return Polynomial.zero(self.backend)
            coeffs = tuple(c * (n - i) for i, c in enumerate(coeffs[:-1]))
        return Polynomial(coeffs, self.backend)

    # -- backend conversion -------------------------------------------------

    def as_float(self) -> "Polynomial":
        if self.backend == BACKEND_FLOAT:
            return self
        return Polynomial(tuple(float(c) for c in self.coeffs), BACKEND_FLOAT)

    def as_exact(self) -> "Polynomial":
        """Exact view of the bit pattern; float coefficients convert exactly."""
        if self.backend == BACKEND_EXACT:
            return self
        return Polynomial(tuple(Fraction(c) for c in self.coeffs), BACKEND_EXACT)

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
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints, Fraction(g, den)


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
    def from_flat(cls, values, tol: float = 0.0) -> "RootProfile":
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
    def degree(self) -> int:
        return sum(self.multiplicities)

    @property
    def max_multiplicity(self) -> int:
        return max(self.multiplicities)

    @property
    def is_strict(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def as_float(self) -> "RootProfile":
        return RootProfile(tuple(float(r) for r in self.distinct_roots), self.multiplicities)


def elementary_symmetric(values: Sequence) -> list:
    """All elementary symmetric functions e_0..e_n of the values."""
    values = list(values)
    one = to_scalar(1, infer_backend(values))
    out = [one] + [one * 0] * len(values)
    for v in values:
        for i in range(len(out) - 1, 0, -1):
            out[i] = out[i] + v * out[i - 1]
    return out


def deleted_root_factor(roots: Sequence, exclude: int) -> Polynomial:
    """The monic factor with the root at position ``exclude`` removed."""
    rest = list(roots[:exclude]) + list(roots[exclude + 1:])
    if not rest:
        return Polynomial.one(infer_backend(roots))
    return Polynomial.from_roots(rest)


def power_sums(p: Polynomial, upto: int) -> list:
    """Power sums P_0..P_upto of the roots via Newton's identities.

    Works from the coefficients alone; no root extraction.  P_0 = deg p.
    Exact p runs on its primitive integers L x^m + a_1 x^(m-1) + ... + a_m,
    where the scaled sums s_t = L^t P_t are integers:
    s_t = -t a_t L^(t-1) - sum_(j=1..min(t-1, m)) a_j L^(j-1) s_(t-j), the
    first term only for t <= m; each P_t is then one Fraction s_t / L^t.
    """
    p.require_monic("power-sum input")
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    m = len(p.coeffs) - 1
    if p.backend == BACKEND_EXACT:
        (L, *a), _ = p.primitive
        c = [v * L ** j for j, v in enumerate(a)]  # c[j - 1] = a_j L^(j-1)
        sums = [m]
        for t in range(1, upto + 1):
            acc = -t * c[t - 1] if t <= m else 0
            for j in range(1, min(t - 1, m) + 1):
                acc -= c[j - 1] * sums[t - j]
            sums.append(acc)
        return [Fraction(s, L ** t) for t, s in enumerate(sums)]
    zero = to_scalar(0, p.backend)
    a = list(p.coeffs[1:])  # a_1..a_m
    out = [to_scalar(m, p.backend)]
    for t in range(1, upto + 1):
        if t <= m:
            acc = -t * a[t - 1]
            for j in range(1, t):
                acc -= a[j - 1] * out[t - j]
        else:
            acc = zero
            for j in range(1, m + 1):
                acc -= a[j - 1] * out[t - j]
        out.append(acc)
    return out
