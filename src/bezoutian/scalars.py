"""Scalar backends: exact rationals (fractions.Fraction) and float64.

Every computation in the package runs over one of the two backends.  Exact
rationals make polynomial identities testable to equality; float64 serves
the root-dependent paths.
"""

from __future__ import annotations

from fractions import Fraction

BACKEND_EXACT = "exact"
BACKEND_FLOAT = "float64"

BACKENDS = (BACKEND_EXACT, BACKEND_FLOAT)

# the certification tolerance of a request that sets no --tol, and of the
# library calls that take one
DEFAULT_TOL = 1e-9


def check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def is_exact_value(x) -> bool:
    return isinstance(x, (int, Fraction))


def to_scalar(x, backend: str):
    """Coerce ``x`` into the scalar type of ``backend``."""
    if backend == BACKEND_EXACT:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(
            f"cannot coerce {type(x).__name__} into the exact backend; "
            "convert floats explicitly"
        )
    return float(x)


def infer_backend(values) -> str:
    """Exact if every value is an int, Fraction or 'n/d' string, else float64."""
    for v in values:
        if isinstance(v, str):
            continue
        if not is_exact_value(v):
            return BACKEND_FLOAT
    return BACKEND_EXACT


def scalar_to_json(x):
    """Rationals encode as 'n/d' strings, floats as JSON numbers."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return f"{x}/1"
    return float(x)


def scalar_from_json(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool):
        raise TypeError("boolean is not a polynomial coefficient")
    if isinstance(v, int):
        return Fraction(v)
    return float(v)
