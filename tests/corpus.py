"""Deterministic random corpora and plain references shared across the test modules."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from bezoutian import (
    Polynomial,
    RootProfile,
    build_family,
    companion_matrix,
    default_epsilon_grid,
    is_hyperbolic,
    nuij_family,
)
from bezoutian.errors import NonHyperbolicError
from bezoutian.quasi import _eps_power, max_multiplicity
from bezoutian.scalars import infer_backend, to_scalar

DENOMS = (1, 2, 3, 4)


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def fraction_matrix(rows) -> np.ndarray:
    """Object array of Fraction(v) for each entry of nonempty rows or an integer array."""
    rows = np.asarray(rows, dtype=object).tolist()  # numpy ints become Python ints
    return np.array([[Fraction(v) for v in row] for row in rows], dtype=object)


def rational(rg, lo=-9, hi=9, denoms=DENOMS) -> Fraction:
    return Fraction(rg.randint(lo, hi), rg.choice(denoms))


def monic_poly(rg, m, lo=-6, hi=6) -> Polynomial:
    return Polynomial.exact([1] + [rational(rg, lo, hi) for _ in range(m)])


def int_poly(rg, m, lo=-9, hi=9) -> Polynomial:
    return Polynomial.exact([1] + [rg.randint(lo, hi) for _ in range(m)])


def nonzero_poly(rg, max_degree, lo=-6, hi=6) -> Polynomial:
    while True:
        p = Polynomial.exact([rational(rg, lo, hi) for _ in range(max_degree + 1)])
        if not p.is_zero:
            return p


def distinct_rationals(rg, count, min_gap=Fraction(1, 2)) -> list:
    """Strictly increasing rationals with consecutive gaps >= min_gap."""
    x = Fraction(rg.randint(-8, -2), 2)
    vals = []
    for _ in range(count):
        vals.append(x)
        x = x + min_gap + Fraction(rg.randint(0, 4), 2)
    shift = vals[len(vals) // 2]
    return [v - shift for v in vals]


def multiplicity_split(rg, m, max_mult=3) -> list:
    mults = []
    left = m
    while left:
        r = rg.randint(1, min(max_mult, left))
        mults.append(r)
        left -= r
    rg.shuffle(mults)
    return mults


def deleted_root_factor(roots, exclude: int) -> Polynomial:
    """The monic prod_(j != exclude) (x - roots[j]), a plain reference; 1 when no root is left."""
    rest = list(roots[:exclude]) + list(roots[exclude + 1:])
    return Polynomial.from_roots(rest) if rest else Polynomial.exact([1])


def hyperbolic_profile(rg, m, max_mult=3, min_gap=Fraction(1, 2)) -> RootProfile:
    mults = multiplicity_split(rg, m, max_mult)
    roots = distinct_rationals(rg, len(mults), min_gap)
    return RootProfile(tuple(roots), tuple(mults))


def strict_profile(rg, m, min_gap=Fraction(1, 2)) -> RootProfile:
    roots = distinct_rationals(rg, m, min_gap)
    return RootProfile(tuple(roots), (1,) * m)


def hyperbolic_poly(rg, m, max_mult=3) -> tuple:
    profile = hyperbolic_profile(rg, m, max_mult)
    return Polynomial.from_roots(profile), profile


def gap_interior_points(rg, roots, how_many_per_gap) -> list:
    """Rationals strictly inside consecutive gaps; how_many_per_gap[i] per gap."""
    out = []
    for i, want in enumerate(how_many_per_gap):
        lo, hi = roots[i], roots[i + 1]
        span = hi - lo
        picks = rg.sample([Fraction(1, 5), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(4, 5)], want)
        out.extend(sorted(lo + span * t for t in picks))
    return out


def separating_q(rg, profile: RootProfile, lead=None) -> Polynomial:
    """q = lead * prod (x - root)^(mult-1) * prod (x - mu) per the interlacing rule."""
    roots = list(profile.distinct_roots)
    s = len(roots)
    mus = gap_interior_points(rg, roots, [1] * (s - 1))
    if lead is None:
        lead = rg.choice([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)])
    factors = []
    for r, mult in zip(roots, profile.multiplicities):
        factors.extend([r] * (mult - 1))
    factors.extend(mus)
    q = Polynomial.exact([lead]) if not factors else lead * Polynomial.from_roots(factors)
    return q


def non_separating_q(rg, profile: RootProfile, mode: str) -> Polynomial | None:
    """A q of degree m-1 violating separation in the given mode.

    Every mode but "complex" gives a real-rooted q.  "overcarry" carries the
    last distinct root of p at its full multiplicity and leaves the last gap
    empty, so H(p, q) stays PSD but has a lower rank than H(p, p');
    "undercarry" carries a multiple root once too few.  Returns None when
    the mode does not apply to this profile shape.
    """
    roots = list(profile.distinct_roots)
    mults = list(profile.multiplicities)
    s = len(roots)
    carried = []
    for r, mult in zip(roots, mults):
        carried.extend([r] * (mult - 1))

    if mode == "outside":
        if s < 2:
            return None
        mus = gap_interior_points(rg, roots, [1] * (s - 2) + [0]) if s > 2 else []
        mus.append(roots[-1] + 1 + rational(rg, 0, 3, (1, 2)) ** 2)
        return Polynomial.from_roots(carried + mus)
    if mode == "crowded":
        if s < 3:
            return None
        per_gap = [0] * (s - 1)
        per_gap[0] = 2
        for i in range(2, s - 1):
            per_gap[i] = 1
        return Polynomial.from_roots(carried + gap_interior_points(rg, roots, per_gap))
    if mode == "onroot":
        if s < 2:
            return None
        mus = gap_interior_points(rg, roots, [1] * (s - 2) + [0]) if s > 2 else []
        return Polynomial.from_roots(carried + mus + [roots[0]])
    if mode == "negative":
        return -1 * separating_q(rg, profile, lead=Fraction(1))
    if mode == "overcarry":
        if s < 2:
            return None
        mus = gap_interior_points(rg, roots, [1] * (s - 2) + [0])
        return Polynomial.from_roots(carried + mus + [roots[-1]])
    if mode == "undercarry":
        if max(mults) < 2:
            return None
        carried.remove(roots[mults.index(max(mults))])
        mus = gap_interior_points(rg, roots, [1] * (s - 1))
        return Polynomial.from_roots(carried + mus + [roots[-1] + 1])
    if mode == "complex":
        real = carried + gap_interior_points(rg, roots, [1] * (s - 1))
        if len(real) < 2:
            return None
        c = roots[0]
        pair = Polynomial.exact([1, -2 * c, c * c + 1])  # roots c +- i
        return pair * Polynomial.from_roots(real[2:]) if real[2:] else pair
    raise ValueError(mode)


# -- hypothesis strategies -----------------------------------------------------


@st.composite
def irreducible_quadratic(draw):
    """Integer (a, b, c) with a x^2 + b x + c irreducible over Q."""
    a = draw(st.integers(1, 4))
    b = draw(st.integers(-6, 6))
    c = draw(st.integers(-6, 6).filter(lambda v: v != 0))
    disc = b * b - 4 * a * c
    assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
    return (a, b, c)


@st.composite
def factored_parts(draw, max_linear=4, max_mult=3):
    """(content, roots, quadratics) of a product content * prod (x - r) * prod q.

    ``roots`` repeats each rational root as often as its multiplicity:
    roots r != 0 with multiplicities k <= max_mult and a zero root of
    multiplicity z <= max_mult.  ``quadratics`` repeats integer triples
    (a, b, c) of irreducible a x^2 + b x + c, each at most twice.  The
    content is a nonzero rational of either sign, so the leading
    coefficient is rarely 1; the product has degree >= 1.
    """
    roots = draw(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6)
                          .filter(lambda v: v != 0), max_size=max_linear, unique=True))
    mults = draw(st.lists(st.integers(1, max_mult), min_size=len(roots), max_size=len(roots)))
    quads = draw(st.lists(st.tuples(irreducible_quadratic(), st.integers(1, 2)), max_size=2))
    zero = draw(st.integers(0, max_mult))
    content = draw(st.fractions(min_value=-30, max_value=30, max_denominator=5)
                   .filter(lambda v: v != 0))
    flat_roots = [Fraction(0)] * zero + [r for r, k in zip(roots, mults) for _ in range(k)]
    flat_quads = [q for q, j in quads for _ in range(j)]
    assume(flat_roots or flat_quads)
    return content, flat_roots, flat_quads


def factor_product(content, roots, quadratics) -> Polynomial:
    p = Polynomial.exact([content])
    for r in roots:
        p = p * Polynomial.exact([1, -r])
    for q in quadratics:
        p = p * Polynomial.exact(q)
    return p


# (x + 228)^3 and (x + 233/6)^3 fail at eps near 1e-4: the float roots of p_eps
# come out complex beyond the 1e-7 tolerance
ROOT_ALPHABET = sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)}
                       | {Fraction(-228), Fraction(-233, 6)})


@st.composite
def multiple_root_polys(draw):
    """Exact monic p of degree 2..10 with a root of multiplicity 2 or 3."""
    values = draw(st.lists(st.sampled_from(ROOT_ALPHABET), min_size=1, max_size=5, unique=True))
    mults = [draw(st.integers(2, 3))] + [draw(st.integers(1, 3)) for _ in values[1:]]
    assume(sum(mults) <= 10)
    return Polynomial.from_roots([v for v, k in zip(values, mults) for _ in range(k)])


@st.composite
def factored_poly(draw, max_linear=4, max_mult=3):
    """A ``factored_parts`` product: content * x^z * prod (x - r)^k * prod quadratic^j."""
    return factor_product(*draw(factored_parts(max_linear, max_mult)))


def newton_polish_reference(pf: Polynomial, z: complex, steps: int = 12) -> complex:
    """Newton on pf from z, keeping the iterate of least |pf|; evaluates pf twice a step."""
    dp = pf.derivative()
    best, best_val = z, abs(pf(complex(z)))
    for _ in range(steps):
        d = dp(complex(z))
        if d == 0:
            break
        z = z - pf(complex(z)) / d
        v = abs(pf(complex(z)))
        if v < best_val:
            best, best_val = z, v
    return best


# -- the quasi-symmetrizer checks one eps at a time ------------------------------
# The scalar rules the grid kernels of ``bezoutian.quasi`` reproduce bit for
# bit: Polynomial calls at each root, G row by row from ``elementary_symmetric``,
# and one 2-D product, ``svd`` and sample block per eps.


def quasi_diagonal_reference(point) -> list:
    """d_i = (-1)**(i+m+1) p_eps'(root_i) of a family point; ValueError if one is 0."""
    roots = point.roots_eps.flattened
    dp = point.p_eps.derivative()
    m = len(roots)
    d = [-dp(lam) if (i + m + 1) % 2 else dp(lam) for i, lam in enumerate(roots)]
    if not all(d):
        raise ValueError(f"smoothing family at eps={float(point.epsilon):g} has merged roots "
                         "in float64: p_eps' vanishes at a root")
    return d


def elementary_symmetric(values) -> list:
    """All elementary symmetric functions e_0..e_n of the values."""
    values = list(values)
    one = to_scalar(1, infer_backend(values))
    out = [one] + [one * 0] * len(values)
    for v in values:
        for i in range(len(out) - 1, 0, -1):
            out[i] = out[i] + v * out[i - 1]
    return out


def basis_matrix_reference(roots) -> np.ndarray:
    """G[i][j] = (-1)**(i+j) e_(m-1-j) of the float roots without position i, row by row."""
    vals = [float(r) for r in roots]
    m = len(vals)
    rows = []
    for i in range(m):
        elem = elementary_symmetric(vals[:i] + vals[i + 1:])
        rows.append([-elem[m - 1 - j] if (i + j) % 2 else elem[m - 1 - j] for j in range(m)])
    return np.array(rows, dtype=float).reshape(m, m)


def decomposition_reference(p: Polynomial, eps) -> tuple:
    """(A, A_eps, Q_eps, S_eps, G_eps, residual) of one eps, by the scalar rules."""
    eps = float(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    point = nuij_family(p, eps)
    roots = point.roots_eps.flattened
    m = int(p.degree)
    A = np.asarray(companion_matrix(p.as_float()), dtype=float)
    A_eps = np.asarray(companion_matrix(point.p_eps), dtype=float)
    Q = A - A_eps
    G = basis_matrix_reference(roots)
    d = quasi_diagonal_reference(point)
    S = np.zeros((m, m))
    for j, lam in enumerate(roots):
        S[m - 1, j] = -point.q_eps(lam) / d[j]
    residual = float(np.max(np.abs(S @ G - Q))) if m else 0.0
    return A, A_eps, Q, S, G, residual


def conditions_reference(p: Polynomial, grid, r, s) -> tuple:
    """(r, s, c_lower, C_upper, rows) of ``check_conditions``, one eps at a time.

    The points are built up to the first eps <= 0, which raises after the
    eps before it are read.
    """
    grid = [float(eps) for eps in grid]
    positive = grid[:next((i for i, eps in enumerate(grid) if eps <= 0), len(grid))]
    build_family(p, positive)
    points = [nuij_family(p, eps) for eps in positive]
    rows = []
    c_lower = C_upper = None
    for eps, point in zip(positive, points):
        d = quasi_diagonal_reference(point)
        lo = min(abs(v) / _eps_power(eps, r) for v in d)
        hi = max(abs(point.q_eps(lam)) / (_eps_power(eps, s) * abs(v))
                 for lam, v in zip(point.roots_eps.flattened, d))
        rows.append((eps, lo, hi))
        c_lower = lo if c_lower is None else min(c_lower, lo)
        C_upper = hi if C_upper is None else max(C_upper, hi)
    if len(positive) < len(grid):
        raise ValueError("epsilon must be positive")
    return r, s, c_lower, C_upper, tuple(rows)


def verify_quasi_reference(p: Polynomial, grid, r, s, samples, seed) -> tuple:
    """The fields of ``verify_quasi``'s verdict, one eps at a time."""
    if r is None:
        verdict = is_hyperbolic(p.as_exact())
        if not verdict.is_hyperbolic:
            raise NonHyperbolicError(f"not hyperbolic: {verdict.witness}")
        r = max_multiplicity(p.as_exact()) - 1
    grid = tuple(float(e) for e in (grid if grid is not None else default_epsilon_grid()))
    build_family(p, grid)
    points = []
    for eps in grid:
        parts = decomposition_reference(p, eps)
        points.append((parts, _eps_power(eps, s), _eps_power(eps, 2 * r)))
    rng = np.random.default_rng(seed)
    lower, comm, sample_max = [], [], []
    consistent = True
    for (A, _, _, S, G, _), eps_s, eps_2r in points:
        lower.append(float(np.linalg.svd(G, compute_uv=False)[-1]) ** 2 / eps_2r)
        comm.append(float(np.amax(np.linalg.svd(G @ S - (G @ S).T, compute_uv=False))) / eps_s)
        H = G.T @ G
        K = H @ A - A.T @ H
        draws = rng.standard_normal((max(samples, 0), 4, len(G)))
        Z, W = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
        num = np.abs(np.einsum("ij,ij->i", W.conj(), Z @ K.T))
        zhz = np.einsum("ij,ij->i", Z.conj(), Z @ H.T).real
        whw = np.einsum("ij,ij->i", W.conj(), W @ H.T).real
        worst = 0.0
        for n, den in zip(num, eps_s * np.sqrt(zhz * whw)):
            if den > 0:
                worst = float(np.fmax(worst, n / den))
        sample_max.append(worst)
        if worst > comm[-1] * (1 + 1e-6) + 1e-9:
            consistent = False
    return r, s, grid, tuple(lower), tuple(comm), tuple(sample_max), consistent
