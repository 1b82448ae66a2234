"""Seeded request generators for the three benchmark workloads.

Every request is a CLI argv plus the truth it was built from: the distinct
rational roots with their multiplicities and an optional quadratic factor
x^2 - k.  k > 0 (not a square) adds two irrational real roots, k < 0 adds a
complex pair and makes the polynomial non-hyperbolic.  The seed fixes the
inputs, and no polynomial repeats within one generator.

Requests come in cycles.  Every cycle holds the same slots in the same
order: subcommand, degree, root kind and multiplicity pattern; the seed
only draws the root values.  Cost differs a hundredfold between kinds and
patterns at one degree (square-free rational inputs pay for rational-root
candidate enumeration, and nuij's cost follows the number of distinct
roots), so a mix left to the seed would make the run-to-run spread measure
the draw, not the program.

A run sends a fixed number of whole cycles, set by ``--seconds`` and the
workload's nominal cycle time (``Workload.cycle_count``), never by the
clock: one seed always gives the same requests, so two runs of the same
code on the same seed attempt and fail the same requests.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

# Reserved for confirming a gain claim; never used while tuning a change.
HELD_OUT_SEED = 7919

# Untimed warm-up requests are drawn from seed ^ WARMUP_SALT, so they never
# share inputs with the timed ones.
WARMUP_SALT = 0x5EED

SIMPLE, MULTIPLE, IRRATIONAL, COMPLEX = "simple", "multiple", "irrational", "complex"

_DENOMINATORS = (1, 2, 3, 4, 6, 12)
_EXACT_ROOTS = sorted({Fraction(n, d) for n in range(-12, 13) for d in _DENOMINATORS})
# (x - r)^2 and (x - r)^3 use up single roots fast, so the smoothing sweep
# draws degrees 2 and 3 from a wider range (over 300 cycles without repeats);
# from degree 4 on, larger numerators would only add cost spread.
_WIDE_ROOTS = sorted({Fraction(n, d) for n in range(-240, 241) for d in _DENOMINATORS})
# Decimal inputs: every monic product of these roots has float64-exact
# coefficients, so the decimal input is exactly the polynomial the truth
# describes.  Eighths up to degree 6 (97 roots, enough distinct low-degree
# polynomials for a long run), halves from degree 7 (25 roots; |k|^12 < 2^53).
_DYADIC_ROOTS_LOW = [Fraction(n, 8) for n in range(-48, 49)]
_DYADIC_ROOTS_HIGH = [Fraction(n, 2) for n in range(-12, 13)]
_NON_SQUARES = (2, 3, 5, 6, 7, 8, 10, 11, 12, 13)


@dataclass(frozen=True)
class Request:
    command: str
    argv: tuple
    exact: bool
    roots: tuple          # distinct rational roots (Fractions), ascending
    mults: tuple          # multiplicity of each root
    quadratic: int = 0    # the factor x^2 - quadratic; 0 means none

    @property
    def degree(self) -> int:
        return sum(self.mults) + (2 if self.quadratic else 0)

    @property
    def hyperbolic(self) -> bool:
        return self.quadratic >= 0

    @property
    def strict(self) -> bool:
        return self.hyperbolic and all(m == 1 for m in self.mults)

    def coefficients(self) -> list:
        """Monic coefficients, leading first, as exact Fractions."""
        return _coefficients(self.roots, self.mults, self.quadratic)


def _coefficients(roots, mults, quadratic) -> list:
    coeffs = [Fraction(1)]
    for r, m in zip(roots, mults):
        for _ in range(m):
            coeffs = _mul(coeffs, [Fraction(1), -r])
    if quadratic:
        coeffs = _mul(coeffs, [Fraction(1), Fraction(0), Fraction(-quadratic)])
    return coeffs


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_arg(coeffs: list, exact: bool) -> str:
    if exact:
        items = [f"{c.numerator}/{c.denominator}" for c in coeffs]
    else:
        items = [float(c) for c in coeffs]
        if any(Fraction(v) != c for v, c in zip(items, coeffs)):
            raise ValueError("decimal coefficients must be exact in float64")
    return json.dumps(items, separators=(",", ":"))


def _draw(rng: random.Random, kind: str, mults: tuple, alphabet: list) -> tuple:
    """(roots, mults, quadratic): random roots carrying the given multiplicities."""
    quadratic = 0
    if kind == IRRATIONAL:
        quadratic = rng.choice(_NON_SQUARES)
    elif kind == COMPLEX:
        quadratic = -rng.randint(1, 12)
    pairs = sorted(zip(rng.sample(alphabet, len(mults)), mults))
    return tuple(r for r, _ in pairs), tuple(m for _, m in pairs), quadratic


def _partitions(n: int, largest: int = 3) -> list:
    """Partitions of n into parts of at most ``largest``, parts non-increasing."""
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, largest), 0, -1) for rest in _partitions(n - p, p)]


def _patterns(n: int, kind: str, single_root: bool) -> list:
    """Multiplicity patterns of n rational roots that a kind allows.

    Without ``single_root``, a multiple-root pattern has two distinct roots
    or more from degree 3 on: with a small alphabet, (x - r)^3 alone would
    run out of new inputs within a few dozen cycles.
    """
    if kind == SIMPLE:
        return [(1,) * n]
    parts = _partitions(n)
    if kind == MULTIPLE:
        return [m for m in parts if m[0] > 1 and (single_root or len(m) > 1 or n == 2)]
    return parts


# Consecutive repeats drawn for one slot before the generator gives up.
_MAX_REDRAWS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    exact: bool
    slots: tuple          # (command, kind, multiplicities) of each request of one cycle
    alphabet: object      # degree -> candidate roots
    cycle_s: float        # seconds of --seconds per cycle: fixes the run's cycle count

    def cycle_count(self, seconds: float) -> int:
        """Cycles in a run meant to take ``seconds``: fixed, so a seed fixes the requests."""
        return max(1, round(seconds / self.cycle_s))

    def cycles(self, seed: int):
        """Endless list-of-requests cycles; identical for identical seeds."""
        rng = random.Random(f"{self.name}:{seed}")
        seen = set()
        while True:
            cycle = []
            for command, kind, pattern in self.slots:
                degree = sum(pattern) + (0 if kind in (SIMPLE, MULTIPLE) else 2)
                for _ in range(_MAX_REDRAWS):
                    roots, mults, quadratic = _draw(rng, kind, pattern, self.alphabet(degree))
                    if (roots, mults, quadratic) not in seen:
                        break
                else:
                    raise RuntimeError(f"{self.name}: no new input with pattern {pattern} ({kind})")
                seen.add((roots, mults, quadratic))
                coeffs = _coefficients(roots, mults, quadratic)
                argv = (command, "--poly", _poly_arg(coeffs, self.exact))
                cycle.append(Request(command, argv, self.exact, roots, mults, quadratic))
            yield cycle

    @property
    def commands(self) -> tuple:
        """Subcommands in order of first appearance."""
        return tuple(dict.fromkeys(command for command, _, _ in self.slots))


def _slots(rows, degrees, kinds, single_root=False) -> tuple:
    """One request per (row, degree); a row is (command, shift).

    The shift rotates the root kinds in ``kinds`` across degrees; the
    multiplicity pattern comes from the kind's patterns by a golden-ratio
    stride, which spreads the picks evenly over the list.  Every cycle
    repeats this one fixed mix.
    """
    table = []
    for r, (command, shift) in enumerate(rows):
        row = []
        for i, d in enumerate(degrees):
            kind = kinds[(i + shift) % len(kinds)]
            patterns = _patterns(d - (0 if kind in (SIMPLE, MULTIPLE) else 2), kind, single_root)
            pick = ((1 + i + len(degrees) * r) * 0.6180339887) % 1.0
            row.append((command, kind, patterns[int(pick * len(patterns))]))
        table.append(row)
    return tuple(slot for column in zip(*table) for slot in column)


M, S, I, C = MULTIPLE, SIMPLE, IRRATIONAL, COMPLEX

WORKLOADS = {
    w.name: w
    for w in (
        # half multiple roots, a fifth each simple and x^2 - k, a tenth x^2 + k
        Workload("exact_certify", True, _slots(
            (("analyze", 0), ("leray", 3), ("analyze", 5), ("leray", 8)), range(3, 13),
            (M, S, M, I, M, S, M, C, M, I)), lambda d: _EXACT_ROOTS, 5.0),
        Workload("smoothing_sweep", True, _slots(
            (("nuij", 0), ("quasi", 0), ("nuij", 1), ("quasi", 1)), range(2, 9), (M,),
            single_root=True), lambda d: _WIDE_ROOTS if d <= 3 else _EXACT_ROOTS, 3.1),
        # multiple roots in one request of four
        Workload("float_forms", False, _slots(
            (("analyze", 0), ("energy", 2)), range(2, 13), (S, M, S, S)),
            lambda d: _DYADIC_ROOTS_LOW if d <= 6 else _DYADIC_ROOTS_HIGH, 0.236),
    )
}


def argv_digest(argvs) -> str:
    """sha256 over the argv lists, in order: equal digests mean equal inputs."""
    h = hashlib.sha256()
    for argv in argvs:
        h.update(json.dumps(list(argv)).encode())
        h.update(b"\n")
    return h.hexdigest()
