"""A property test of ``analyze`` and ``energy`` on drawn exact hyperbolic input.

Each input is a product of (x - n/d)^r over distinct rationals, |n| <= 40,
d in {1, 2, 3, 4, 6, 8, 12} and r in 1..3, of degree 1..16, optionally times
x^2 - k for a non-square k.  It goes to the CLI as fractions or, when every
coefficient is a float exactly, as decimals.  ``analyze`` certifies the
exact value, so every check must pass; ``energy`` on fractions may fail a
float tolerance (exit 1) but must not report complex roots (exit 3).  Every
request writes strict JSON and no traceback, within a time budget.

Times x^2 + 10^-j and sent as decimals, the same inputs have a pair of
complex roots near 0 that rounding to floats keeps off the real line, and
``analyze`` and ``energy`` must refuse them alike (exit 3), by the Sturm
chain of the decimals' exact value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bezoutian import Polynomial
from bezoutian.cli import main
from test_report_cli import strict_json

MAX_DEGREE = 16
DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)
BUDGET_S = 5.0  # process time per request; the slowest drawn request takes about 0.2 s

rational_roots = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-40, 40), st.sampled_from(DENOMINATORS)),
              st.integers(1, 3)),
    max_size=MAX_DEGREE, unique_by=lambda pair: pair[0])
non_squares = st.integers(2, 40).filter(lambda k: math.isqrt(k) ** 2 != k)


@st.composite
def hyperbolic_inputs(draw):
    """(roots with multiplicities, k of the factor x^2 - k or None, encoding)."""
    k = draw(st.none() | non_squares)
    room = MAX_DEGREE - (2 if k else 0)
    roots = []
    for root, mult in draw(rational_roots):
        if mult <= room:
            roots.append((root, mult))
            room -= mult
    assume(roots or k)
    return tuple(roots), k, draw(st.sampled_from(["fraction", "decimal"]))


def product(roots, k) -> Polynomial:
    p = Polynomial.exact([1])
    for root, mult in roots:
        for _ in range(mult):
            p = p * Polynomial.exact([1, -root])
    return p * Polynomial.exact([1, 0, -k]) if k else p


def run(*argv) -> tuple[int, dict | None, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert time.process_time() - start < BUDGET_S, argv
    assert "Traceback" not in err.getvalue(), err.getvalue()
    return code, strict_json(out.getvalue()) if code in (0, 1) else None, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(hyperbolic_inputs())
# (x + 14)^3 (x + 1/2)^3 (x - 7/6)^2 (x - 3)^2 (x^2 - 2): the float deflation of
# q at the multiple roots left a remainder, and analyze exited 2
@example((((Fraction(-14), 3), (Fraction(-1, 2), 3), (Fraction(7, 6), 2), (Fraction(3), 2)),
          2, "fraction"))
# (x - 13/12)^2 (x - 4)(x - 17/4)(x - 6)(x - 26/3)(x^2 - 6): the root 13/12
# rounded to a float beside sqrt(6), and resultant-sign failed
@example((((Fraction(13, 12), 2), (Fraction(4), 1), (Fraction(17, 4), 1), (Fraction(6), 1),
           (Fraction(26, 3), 1)), 6, "fraction"))
def test_analyze_certifies_and_energy_finds_real_roots(drawn):
    roots, k, encoding = drawn
    p = product(roots, k)
    if encoding == "decimal":
        assume(all(Fraction(float(c)) == c for c in p.coeffs))
        poly = json.dumps([float(c) for c in p.coeffs])
    else:
        poly = json.dumps([f"{c.numerator}/{c.denominator}" for c in p.coeffs])
    code, report, _ = run("analyze", "--poly", poly)
    assert code == 0, code
    assert report["all_pass"], [c for c in report["checks"] if c["verdict"] != "pass"]
    if encoding == "fraction":
        code, report, _ = run("energy", "--poly", poly)
        assert code in (0, 1), code


@settings(max_examples=40, deadline=None)
@given(hyperbolic_inputs(), st.integers(1, 20))
@example(((), None, "decimal"), 20)  # x^2 + 1e-20, which energy's eigenvalue gate passed
def test_analyze_and_energy_refuse_a_complex_pair_near_zero_alike(drawn, j):
    # the pair +-10^(-j/2) i moves by a relative 1e-11 at most when the
    # coefficients round to floats, so the decimals' exact value has it too
    roots, k, _ = drawn
    p = product(roots, k) * Polynomial.exact([1, 0, Fraction(1, 10 ** j)])
    poly = json.dumps([float(c) for c in p.coeffs])
    refused = (3, None, "hyperbolicity required: complex roots (Sturm count short)\n")
    assert run("analyze", "--poly", poly) == run("energy", "--poly", poly) == refused
