"""Root extraction, multiplicity recovery and the two hyperbolicity certificates.

The integer gcd, Yun and Sturm kernels are compared with plain Fraction
references kept here: Euclid's algorithm with monic normalization, Yun's
algorithm over Fraction polynomials and the Sturm chain of the radical.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from bezoutian import (
    NonHyperbolicError,
    NonMonicError,
    Polynomial,
    bezout_matrix,
    is_hyperbolic,
    psd_check,
    real_roots,
    squarefree_decomposition,
    sturm_real_root_count,
)
import numpy as np

from bezoutian import roots
from bezoutian.polynomial import _int_primitive, _primitive
from bezoutian.quasi import max_multiplicity
from bezoutian.roots import (
    _float_roots,
    _hyperbolic_strict,
    _polish_roots,
    _sturm_chain,
    _sturm_gcd,
    poly_gcd,
    radical,
)


def test_real_roots_examples():
    assert real_roots(Polynomial.exact([1, 0, -1])).flattened == (-1, 1)
    prof = real_roots(Polynomial.exact([1, 0, 0]))
    assert prof.distinct_roots == (0,)
    assert prof.multiplicities == (2,)
    assert real_roots(Polynomial.exact([1, 0, -1, 0])).flattened == (-1, 0, 1)


def test_real_roots_float_backend_examples():
    prof = real_roots(Polynomial.float64([1, 0, -1]))
    assert prof.flattened == pytest.approx((-1.0, 1.0), abs=1e-12)
    prof = real_roots(Polynomial.float64([1, 0, 0]))
    assert prof.multiplicities == (2,)


def test_real_roots_rejects_complex():
    with pytest.raises(NonHyperbolicError):
        real_roots(Polynomial.exact([1, 0, 1]))
    with pytest.raises(NonHyperbolicError):
        real_roots(Polynomial.float64([1, 0, 1]))


def test_real_roots_requires_monic_and_degree():
    with pytest.raises(NonMonicError):
        real_roots(Polynomial.exact([2, 0]))
    with pytest.raises(ValueError):
        real_roots(Polynomial.exact([1]))


def test_profile_recovery_exact_multiplicities():
    rg = corpus.rng(21)
    for _ in range(60):
        m = rg.randint(1, 8)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        found = real_roots(p)
        assert found.multiplicities == profile.multiplicities
        for a, b in zip(found.distinct_roots, profile.distinct_roots):
            assert a == b  # rational roots come back exactly


def test_profile_recovery_irrational_multiple_roots():
    # (x^2 - 2)^2 (x - 1): gcd structure supplies the multiplicities,
    # polished eigenvalues of the square-free part supply the values
    base = Polynomial.exact([1, 0, -2])
    p = base * base * Polynomial.exact([1, -1])
    prof = real_roots(p)
    assert prof.multiplicities == (2, 1, 2)
    expected = (-(2**0.5), 1.0, 2**0.5)
    for a, b in zip(prof.distinct_roots, expected):
        assert abs(float(a) - b) < 1e-9


def test_profile_recovery_float_simple_roots():
    # float-coefficient construction already perturbs the true roots by
    # conditioning; keep the corpus separation mild so 1e-9 is meaningful
    rg = corpus.rng(22)
    for _ in range(30):
        m = rg.randint(2, 8)
        roots = sorted(rg.uniform(-3, 3) for _ in range(m))
        if min(b - a for a, b in zip(roots, roots[1:])) < 5e-2:
            continue
        p = Polynomial.from_roots(roots)
        found = real_roots(p)
        assert found.degree == m
        for a, b in zip(found.flattened, roots):
            assert abs(float(a) - b) <= 1e-9


def test_real_roots_sorted_and_mass():
    rg = corpus.rng(23)
    for _ in range(40):
        m = rg.randint(1, 6)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m))
        prof = real_roots(p)
        flat = prof.flattened
        assert len(flat) == m
        assert all(flat[i] <= flat[i + 1] for i in range(len(flat) - 1))


def test_squarefree_decomposition_structure():
    p = Polynomial.exact([1, 0, 0]) * Polynomial.exact([1, -1])  # x^2 (x-1)
    parts = squarefree_decomposition(p)
    assert [(f.coeffs, k) for f, k in parts] == [(((1, -1)), 1), (((1, 0)), 2)]


def test_sturm_counts():
    assert sturm_real_root_count(Polynomial.exact([1, 0, -1, 0])) == 3
    assert sturm_real_root_count(Polynomial.exact([1, 0, 1])) == 0
    square = Polynomial.exact([1, 0, -1]) * Polynomial.exact([1, 0, -1])
    assert sturm_real_root_count(square) == 2
    assert radical(square).degree == 2


def test_is_hyperbolic_examples():
    v = is_hyperbolic(Polynomial.exact([1, 0, -1]))
    assert v.is_hyperbolic and v.is_strict and v.method == "sturm"
    v = is_hyperbolic(Polynomial.exact([1, 0, 1]))
    assert not v.is_hyperbolic and isinstance(v.witness, str)
    v = is_hyperbolic(Polynomial.exact([1, 0, 0]))
    assert v.is_hyperbolic and not v.is_strict


def test_is_hyperbolic_reads_exact_roots_on_demand(monkeypatch):
    from bezoutian import roots

    calls, original = [], roots.real_roots

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(roots, "real_roots", counted)
    p = Polynomial.from_roots([Fraction(-1, 2), 1, 1])
    v = is_hyperbolic(p)
    assert v.is_hyperbolic and not v.is_strict and calls == []
    assert v.witness == original(p) and v.witness is v.witness
    assert len(calls) == 1


def test_is_hyperbolic_raises_when_sturm_and_hermite_disagree(monkeypatch):
    from bezoutian import bezout
    from bezoutian.exactla import PsdVerdict

    monkeypatch.setattr(bezout, "psd_check", lambda H, tol=1e-9: PsdVerdict(False, False, "stub"))
    with pytest.raises(ArithmeticError, match="disagree"):
        is_hyperbolic(Polynomial.exact([1, 0, -1]))


def test_is_hyperbolic_float_backend():
    v = is_hyperbolic(Polynomial.float64([1, 0, -1]))
    assert v.is_hyperbolic and v.method == "hermite-psd"
    v = is_hyperbolic(Polynomial.float64([1, 0, 1]))
    assert not v.is_hyperbolic


def test_is_hyperbolic_degenerate():
    v = is_hyperbolic(Polynomial.exact([5]))
    assert not v.is_hyperbolic
    assert "degree" in v.witness


def test_hermite_matches_sturm_on_mixed_corpus():
    rg = corpus.rng(24)
    for _ in range(200):
        m = rg.randint(2, 6)
        if rg.random() < 0.5:
            p = corpus.int_poly(rg, m)
        else:
            p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m))
        sturm_v = sturm_real_root_count(p) == radical(p).degree
        hermite_v = psd_check(bezout_matrix(p, p.derivative())).is_psd
        assert sturm_v == hermite_v


def test_max_multiplicity():
    assert real_roots(Polynomial.exact([1, 0, -1])).max_multiplicity == 1
    assert real_roots(Polynomial.exact([1, 0, 0])).max_multiplicity == 2
    p = Polynomial.from_roots([0, 0, 3])
    assert real_roots(p).max_multiplicity == 2


# -- integer kernels against the Fraction references ----------------------------


def euclid_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a * (Fraction(1) / Fraction(a.leading))


def yun_reference(p: Polynomial) -> list:
    f = p * (Fraction(1) / Fraction(p.leading))
    g = euclid_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    c = f // g
    d = (f.derivative() // g) - c.derivative()
    out = []
    i = 1
    while True:
        a = euclid_gcd(c, d)
        if a.degree >= 1:
            out.append((a, i))
            c = c // a
        if c.degree == 0:
            return out
        d = d // a - c.derivative()
        i += 1


def sturm_reference(p: Polynomial) -> int:
    """Sign variations at -inf minus +inf of the Fraction Sturm chain of the radical."""
    f = Polynomial.one()
    for factor, _ in yun_reference(p):
        f = f * factor
    chain = [f, f.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()

    def variations(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    at_pos = [1 if g.leading > 0 else -1 for g in chain]
    at_neg = [s if g.degree % 2 == 0 else -s for s, g in zip(at_pos, chain)]
    return variations(at_neg) - variations(at_pos)


def same_coeffs(a: Polynomial, b: Polynomial) -> bool:
    return a.coeffs == b.coeffs and all(type(c) is Fraction for c in a.coeffs)


@settings(max_examples=120, deadline=None)
@given(corpus.factored_poly(), corpus.factored_poly(), st.sampled_from([0, 1, 2]))
def test_poly_gcd_matches_euclid(f, g, shared):
    # multiply in a common factor so the gcd is not always 1
    h = Polynomial.one()
    for _ in range(shared):
        h = h * g.derivative() if g.degree >= 2 else h * g
    f, g = f * h, g * h
    assert same_coeffs(poly_gcd(f, g), euclid_gcd(f, g))
    assert same_coeffs(poly_gcd(g, f), euclid_gcd(g, f))
    assert same_coeffs(poly_gcd(f, f.derivative()), euclid_gcd(f, f.derivative()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=8), st.integers(1, 12))
def test_int_primitive_part_equals_the_fraction_primitive_part(c, scale):
    for ints in (c, [scale * v for v in c]):
        prim, content = _primitive(ints)
        assert _int_primitive(ints) == prim
        # against Fractions: ints = content * prim, with coprime prim and content >= 0
        assert [Fraction(v) for v in ints] == [content * v for v in prim]
        assert math.gcd(*prim) == (1 if any(ints) else 0) and content >= 0


@settings(max_examples=120, deadline=None)
@given(corpus.factored_poly())
def test_squarefree_decomposition_matches_yun_reference(p):
    got = squarefree_decomposition(p)
    want = yun_reference(p)
    assert [k for _, k in got] == [k for _, k in want]
    assert all(same_coeffs(a, b) for (a, _), (b, _) in zip(got, want))


@settings(max_examples=120, deadline=None)
@given(corpus.factored_poly())
def test_sturm_count_matches_radical_chain(p):
    # the integer chain runs on p itself, repeated factors included
    want = sturm_reference(p)
    assert sturm_real_root_count(p) == want == sturm_real_root_count(radical(p))
    assert p.degree - poly_gcd(p, p.derivative()).degree == radical(p).degree


@settings(max_examples=120, deadline=None)
@given(corpus.factored_poly())
def test_sturm_chain_ends_at_the_gcd_with_the_derivative(p):
    # one chain gives both the count and deg gcd(p, p'), so the hyperbolicity
    # decision needs no separate poly_gcd
    assert _sturm_chain(p) == (sturm_reference(p), poly_gcd(p, p.derivative()).degree)
    # its last member is the primitive gcd, leading coefficient positive
    assert _sturm_gcd(p) == poly_gcd(p, p.derivative()).primitive[0]
    distinct = radical(p).degree
    hyperbolic = sturm_reference(p) == distinct
    assert _hyperbolic_strict(p) == (hyperbolic, hyperbolic and distinct == p.degree)


def test_the_decomposition_after_the_hyperbolicity_gate_divides_p_by_p_prime_once(monkeypatch):
    # is_hyperbolic runs the Sturm chain of p, which ends at gcd(p, p'); Yun's
    # decomposition starts from that member, so only its own steps call _int_gcd
    p = Polynomial.from_roots([1, 1, 1, -2, -2, 3])
    assert is_hyperbolic(p).is_hyperbolic
    calls = []
    original = roots._int_gcd

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(roots, "_int_gcd", counted)
    assert max_multiplicity(p) == 3
    assert len(calls) == 3  # one per Yun step i = 1, 2, 3
    assert all(list(a) != list(p.primitive[0]) for a, _ in calls)
    assert [k for _, k in squarefree_decomposition(p)] == [1, 2, 3]


def test_poly_gcd_edge_cases():
    zero = Polynomial.zero()
    f = Polynomial.exact([-4, 0, 4])  # -4 (x^2 - 1)
    assert poly_gcd(zero, zero).is_zero
    assert poly_gcd(f, zero).coeffs == (1, 0, -1)
    assert poly_gcd(zero, f).coeffs == (1, 0, -1)
    assert poly_gcd(Polynomial.exact([Fraction(-3, 7)]), f).coeffs == (1,)
    assert poly_gcd(zero, Polynomial.exact([5])).coeffs == (1,)
    assert poly_gcd(f, Polynomial.exact([2, 2])).coeffs == (1, 1)
    with pytest.raises(ValueError):
        poly_gcd(Polynomial.float64([1, 0, -1]), Polynomial.float64([1, 1]))
    with pytest.raises(ValueError):
        poly_gcd(f, Polynomial.float64([1, 1]))


def test_squarefree_and_sturm_edge_cases():
    assert squarefree_decomposition(Polynomial.exact([7])) == []
    assert sturm_real_root_count(Polynomial.exact([7])) == 0
    # -2 x^3 (x - 1/2)^2: negative leading coefficient, zero root
    p = Polynomial.exact([-2, 0, 0, 0]) * Polynomial.from_roots([Fraction(1, 2)] * 2)
    parts = squarefree_decomposition(p)
    assert [(f.coeffs, k) for f, k in parts] == [((1, Fraction(-1, 2)), 2), ((1, 0), 3)]
    assert sturm_real_root_count(p) == 2
    with pytest.raises(ValueError):
        squarefree_decomposition(Polynomial.float64([1, 0, -1]))
    with pytest.raises(ValueError):
        sturm_real_root_count(Polynomial.float64([1, 0, -1]))


# -- root polish against the plain Newton loop -----------------------------------


def companion_reference(pf: Polynomial) -> np.ndarray:
    """Companion matrix of pf divided by its leading coefficient, from numpy alone."""
    c = np.array(pf.coeffs, dtype=float)
    C = np.eye(len(c) - 1, k=1)
    C[-1, :] = -(c[1:] / c[0])[::-1]
    return C


def complex_bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


float_polys = st.one_of(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8)
    .map(lambda cs: Polynomial.float64([1.0] + cs)),
    # multiple and clustered roots, where Newton stalls on a fixed point
    st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 1.0 + 2**-40, 3.0]), min_size=1, max_size=8)
    .map(Polynomial.from_roots),
)


@settings(max_examples=300, deadline=None)
@given(float_polys, st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                                allow_infinity=False), max_size=4))
def test_newton_polish_matches_the_reference_bit_for_bit(pf, zs):
    # the inline polish, which ends early at a repeated iterate, against the
    # plain 12-step loop that evaluates through Polynomial.__call__
    got = _polish_roots(pf, zs)
    assert [complex_bits(z) for z in got] == [complex_bits(corpus.newton_polish_reference(pf, z))
                                              for z in zs]


def test_newton_polish_matches_the_reference_on_a_two_cycle():
    # from z the iterates alternate between two neighbouring floats, a 2-cycle
    # that a fixed-point test never ends; a float_forms input at seed 21.  The
    # polish ends at the third step, which returns to the first iterate, and
    # keeps the bits of the reference's 12 steps
    pf = Polynomial.float64([1.0, -3.65625, 1.4765625, 2.57763671875])
    z = -0.6225603766352348 + 0j
    dp = pf.derivative()
    w1 = z - pf(z) / dp(z)
    w2 = w1 - pf(w1) / dp(w1)
    assert w1 != z and w2 - pf(w2) / dp(w2) == w1  # the cycle the polish stops on
    assert [complex_bits(w) for w in _polish_roots(pf, [z])] == [
        complex_bits(corpus.newton_polish_reference(pf, z))]


@settings(max_examples=150, deadline=None)
@given(float_polys)
def test_float_roots_match_polished_eigenvalues_bit_for_bit(pf):
    eigs = np.linalg.eigvals(companion_reference(pf))
    want = [corpus.newton_polish_reference(pf, complex(z)) for z in eigs]
    assert [complex_bits(z) for z in _float_roots(pf)] == [complex_bits(z) for z in want]
