"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines.

Criterion 8 is the quasi-symmetrizer property of the paper: the Bezoutians
H_eps of the Nuij approximations (p_eps, p_eps') are quasi-symmetrizers in
S. Spagnolo's sense (D'Ancona-Spagnolo 1998, "Quasi-symmetrization of
hyperbolic systems and propagation of the analytic regularity").  That asks
for one C, the same for every eps in (0, 1], with
eps^(2r) |z|^2 <= C (H_eps z, z) and
|((H_eps A - A^T H_eps) z, z)| <= C eps (H_eps z, z).
Both bounds are one-sided, so on the grid the criterion asserts that the
per-eps lower constant never falls, and the commutator constant never rises,
by a factor of 10 or more from a larger eps to a smaller one.  A two-sided
bound on the spread of the constants is not part of the statement, and the
family breaks it while meeting the definition, for two structural reasons
(closed-form values confirm both): for x^3 the lower constant
lambda_min(H_eps)/eps^4 is 0.4665 at eps = 1 and rises to 12.0 for
eps <= 0.1 (the eps = 1 endpoint sits outside the asymptotic regime), and
for the strictly hyperbolic x^3 - x the order-eps term of
H_eps A - A^T H_eps cancels identically, so the commutator constant decays
like eps.  Negative controls keep the one-sided check able to fail: an
exponent r one too small, or s = 2 where the order-eps term is present,
makes the constants drift by factors of 5e3 and more.
"""

import math
import time
from fractions import Fraction

import numpy as np

import corpus
from bezoutian import (
    ExponentialSignal,
    Polynomial,
    bezout_matrix,
    chain_bound_check,
    companion_matrix,
    derivative_identity_check,
    energy_series,
    factorization_bundle,
    gap_constants,
    h_b_relation_check,
    invert_transform,
    is_hyperbolic,
    leray_symmetrizer,
    nuij_transform,
    propagate,
    psd_check,
    real_roots,
    resultant_sign,
    separates,
    separation_lower_bound_check,
    symmetrization_defect,
    verify_gaps,
    verify_quasi,
)
from bezoutian.exactla import det
from bezoutian.nuij import default_epsilon_grid
from bezoutian.roots import poly_gcd, squarefree_decomposition, sturm_real_root_count
from test_leray import vandermonde_relation_residual


def verdict(number, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {state}{suffix}")


def test_criterion_01_symmetrization_identity():
    rg = corpus.rng(101)
    started = time.perf_counter()
    for _ in range(1000):
        m = rg.randint(2, 6)
        p = corpus.monic_poly(rg, m)
        q = corpus.nonzero_poly(rg, m - 1)
        H = bezout_matrix(p, q)
        A = companion_matrix(p)
        assert symmetrization_defect(H, A) == 0
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    verdict(1, "symmetrization identity", ok, f"1000 exact pairs in {elapsed:.2f}s")
    assert ok


def test_criterion_02_hermite_criterion():
    # the LDL of H(p, p') is the reference for is_hyperbolic, which reads the
    # Sturm chain alone: H(p, p') >= 0 iff p is hyperbolic, rank H(p, p') =
    # m - deg gcd(p, p') (Krein-Naimark), so p is strict iff that rank is m
    rg = corpus.rng(102)
    disagreements = 0
    for _ in range(1000):
        m = rg.randint(2, 6)
        if rg.random() < 0.5:
            p = corpus.int_poly(rg, m)
        else:
            p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=3))
        distinct = sum(f.degree for f, _ in squarefree_decomposition(p))
        sturm_says = sturm_real_root_count(p) == distinct
        v = is_hyperbolic(p)
        hermite = psd_check(bezout_matrix(p, p.derivative()))
        agree = sturm_says == hermite.is_psd == v.is_hyperbolic
        if hermite.is_psd:
            agree = agree and hermite.rank == m - poly_gcd(p, p.derivative()).degree \
                and v.is_strict == (hermite.rank == m)
        else:
            agree = agree and not v.is_strict
        if not agree:
            disagreements += 1
    verdict(2, "Hermite criterion vs Sturm", disagreements == 0,
            f"{disagreements} disagreements in 1000")
    assert disagreements == 0


def test_criterion_03_discriminant():
    rg = corpus.rng(103)
    for _ in range(200):
        m = rg.randint(2, 5)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        flat = [Fraction(r) for r in profile.flattened]
        expected = Fraction(1)
        for i in range(m):
            for j in range(i + 1, m):
                expected *= (flat[i] - flat[j]) ** 2
        assert det(bezout_matrix(p, p.derivative()).fractions) == expected
    frozen = (
        det(bezout_matrix(Polynomial.exact([1, 0, -1]),
                          Polynomial.exact([2, 0])).fractions),
        det(bezout_matrix(Polynomial.exact([1, 0, -1, 0]),
                          Polynomial.exact([3, 0, -1])).fractions),
    )
    ok = frozen == (4, 4)
    verdict(3, "discriminant equals squared difference product", ok,
            "200 exact instances, frozen values 4 and 4")
    assert ok


def test_criterion_04_factorization():
    rg = corpus.rng(104)
    for _ in range(120):
        m = rg.randint(2, 6)
        profile = corpus.strict_profile(rg, m)
        p = Polynomial.from_roots(profile)
        q = corpus.nonzero_poly(rg, m - 1)
        assert factorization_bundle(p, q).residual == 0
    worst_float = 0.0
    for _ in range(60):
        m = rg.randint(2, 6)
        roots = sorted(rg.uniform(-3, 3) for _ in range(m))
        if min((b - a for a, b in zip(roots, roots[1:])), default=1.0) < 0.25:
            continue
        p = Polynomial.from_roots(roots)
        q = Polynomial.float64([rg.uniform(-2, 2) for _ in range(m)])
        if q.is_zero:
            continue
        worst_float = max(worst_float, float(factorization_bundle(p, q).residual))
    b3 = factorization_bundle(Polynomial.exact([1, 0, -1, 0]),
                              Polynomial.exact([3, 0, -1]))
    worked = b3.reconstruct().tolist() == [[1, 0, -1], [0, 2, 0], [-1, 0, 3]]
    ok = worst_float <= 1e-8 and worked
    verdict(4, "weighted factorization reproduces the Bezout matrix", ok,
            f"exact residual 0, float residual {worst_float:.2e}")
    assert ok


def test_criterion_05_separation_equivalence():
    rg = corpus.rng(105)
    tiny = Fraction(1, 10**9)
    mis = 0
    separating = 0
    while separating < 300:
        m = rg.randint(2, 6)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        q = corpus.separating_q(rg, profile)
        cert = separates(p, q, tol=1e-9)
        psd_ok = separation_lower_bound_check(p, q, cert.constant_c) \
            if cert.separates else False
        if not (cert.separates and psd_ok):
            mis += 1
        separating += 1
    non_separating = 0
    modes = ("outside", "crowded", "onroot", "negative")
    while non_separating < 300:
        m = rg.randint(2, 6)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        bad = corpus.non_separating_q(rg, profile, modes[non_separating % 4])
        if bad is None:
            continue
        cert = separates(p, bad, tol=1e-9)
        psd_bad = separation_lower_bound_check(p, bad, tiny)
        if cert.separates or psd_bad:
            mis += 1
        non_separating += 1
    verdict(5, "separation equivalence (both directions)", mis == 0,
            f"{mis} misclassifications in 600")
    assert mis == 0


def test_criterion_06_nuij_gaps():
    rg = corpus.rng(106)
    grid = default_epsilon_grid()
    failures = 0
    for _ in range(100):
        m = rg.randint(2, 6)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=3))
        for eps in grid:
            if not verify_gaps(p, eps).passed:
                failures += 1
    eps = Fraction(1, 10)
    prof = real_roots(nuij_transform(Polynomial.exact([1, 0, 0]), eps))
    exact_gap = prof.flattened[1] - prof.flattened[0] == 2 * eps
    c3 = gap_constants(3).for_stage(3)
    c3_ok = abs(c3 - (3 - math.sqrt(5)) / 2) <= 1e-12
    ok = failures == 0 and exact_gap and c3_ok
    verdict(6, "gap floor along the smoothing family", ok,
            f"{failures} grid failures in 900; quadratic gap exact; c3 matched")
    assert ok


def test_criterion_07_nuij_inversion():
    rg = corpus.rng(107)
    for m in range(2, 7):
        for _ in range(100):
            p = corpus.monic_poly(rg, m)
            eps = Fraction(rg.randint(1, 12), rg.randint(1, 12))
            assert invert_transform(nuij_transform(p, eps), eps) == p
    verdict(7, "smoothing inversion identity", True, "100 exact instances per degree 2..6")


def test_criterion_08_quasi_uniformity():
    grid = default_epsilon_grid()
    eps = 0.1
    p_eps = nuij_transform(Polynomial.float64([1, 0, 0]), eps)
    H = np.asarray(bezout_matrix(p_eps, p_eps.derivative()), float)
    H_closed = np.array([[4 * eps**2, 2 * eps], [2 * eps, 2.0]])
    A = np.asarray(companion_matrix(Polynomial.float64([1, 0, 0])), float)
    K = H @ A - A.T @ H
    K_closed = np.array([[0.0, 4 * eps**2], [-4 * eps**2, 0.0]])
    closed_ok = (np.max(np.abs(H - H_closed)) <= 1e-12
                 and np.max(np.abs(K - K_closed)) <= 1e-12)

    results = {}
    controls = {}
    for coeffs, name in (([1, 0, 0], "x^2"), ([1, 0, 0, 0], "x^3"),
                         ([1, -1, 0, 0], "x^2(x-1)"), ([1, 0, -1, 0], "x^3-x")):
        p = Polynomial.exact(coeffs)
        v = verify_quasi(p, grid, r=None, s=1, seed=0)
        results[name] = (v.lower_decay, v.commutator_growth, v.sampling_consistent)
        if v.r > 0:
            # r one too small: the lower constant dives as eps shrinks
            lower_r = verify_quasi(p, grid, r=v.r - 1, s=1, seed=0)
            controls[f"{name} r={v.r - 1}"] = (lower_r.lower_decay, lower_r.uniform_pass)
            # s = 2: the order-eps commutator term blows up against eps^2
            s_two = verify_quasi(p, grid, r=None, s=2, seed=0)
            controls[f"{name} s=2"] = (s_two.commutator_growth, s_two.uniform_pass)
    # x^3 - x: the order-eps term cancels, so s = 2 is a true bound there
    cancelled = verify_quasi(Polynomial.exact([1, 0, -1, 0]), grid, r=None, s=2, seed=0)
    s_two_ok = cancelled.uniform_pass

    all_uniform = all(lo < 10 and co < 10 and sampled for lo, co, sampled in results.values())
    controls_fail = all(factor >= 10 and not passed for factor, passed in controls.values())
    detail = "; ".join(
        f"{name}: lower fall x{lo:.3g}, commutator rise x{co:.3g}"
        for name, (lo, co, _) in results.items()
    ) + "; controls: " + ", ".join(f"{name} x{factor:.3g}"
                                   for name, (factor, _) in controls.items())
    ok = closed_ok and all_uniform and controls_fail and s_two_ok
    verdict(8, "quasi-symmetrizer uniformity", ok, detail)
    assert closed_ok
    assert all_uniform, detail
    assert len(controls) == 6 and controls_fail, detail
    assert s_two_ok, f"x^3-x s=2: commutator rise x{cancelled.commutator_growth:.3g}"


def test_criterion_09_leray_block():
    rg = corpus.rng(109)
    for _ in range(100):
        roots = [corpus.rational(rg, -6, 6) for _ in range(2)]
        p = Polynomial.from_roots(roots)
        B = leray_symmetrizer(p).adjugate
        H = bezout_matrix(p, p.derivative()).fractions
        assert (B == H).all()
    for _ in range(60):
        m = rg.randint(2, 5)
        profile = corpus.hyperbolic_profile(rg, m, max_mult=3)
        p = Polynomial.from_roots(profile)
        sym = leray_symmetrizer(p)
        assert det(sym.adjugate) == sym.det_power_sum_gram ** (m - 1)
    worst = 0.0
    for _ in range(40):
        m = rg.randint(2, 6)
        profile = corpus.strict_profile(rg, m)
        p = Polynomial.from_roots(profile)
        # the exact root-free relation against the float root-based one
        worst = max(worst, h_b_relation_check(p),
                    vandermonde_relation_residual(p, profile.flattened))
    ok = worst <= 1e-10
    verdict(9, "power-sum symmetrizer block", ok,
            f"B=H on 100 quadratics; det law exact; relation residual {worst:.2e}")
    assert ok


def test_criterion_10_energy_conservation():
    rg = corpus.rng(110)
    worst_spread = 0.0
    for _ in range(25):
        m = rg.randint(2, 6)
        profile = corpus.strict_profile(rg, m)
        p = Polynomial.from_roots(profile)
        q = corpus.separating_q(rg, profile)
        U0 = [complex(rg.uniform(-1, 1), rg.uniform(-1, 1)) for _ in range(m)]
        traj = propagate(p, U0, 10.0, 200)
        worst_spread = max(worst_spread, energy_series(p, q, traj).relative_spread())
    conservation_ok = worst_spread <= 1e-12

    worst_resid = 0.0
    for _ in range(20):
        m = rg.randint(2, 4)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=2))
        q = corpus.nonzero_poly(rg, m - 1)
        signal = ExponentialSignal.of(
            *[(complex(rg.uniform(-1, 1), rg.uniform(-1, 1)), rg.uniform(-3, 3))
              for _ in range(3)]
        )
        worst_resid = max(worst_resid, derivative_identity_check(p, q, signal))
    identity_ok = worst_resid <= 1e-8

    chain_ok = True
    for _ in range(12):
        m = rg.randint(2, 4)
        p = Polynomial.from_roots(corpus.hyperbolic_profile(rg, m, max_mult=2, min_gap=1))
        signal = ExponentialSignal.of(
            *[(complex(rg.uniform(-1, 1), rg.uniform(-1, 1)), rg.uniform(-2, 2))
              for _ in range(2)]
        )
        for j in range(m - 1):
            chain_ok = chain_ok and chain_bound_check(p, j, signal).passed
        traj = propagate(p, [1.0] * m, 10.0, 2000)
        chain_ok = chain_ok and chain_bound_check(p, 0, traj).passed

    ok = conservation_ok and identity_ok and chain_ok
    verdict(10, "energy forms", ok,
            f"spread {worst_spread:.2e}, identity residual {worst_resid:.2e}, chain {chain_ok}")
    assert ok


def test_criterion_11_resultant_sign_resolution():
    rg = corpus.rng(111)
    candidates = {}
    for m in range(2, 6):
        signs = set()
        for _ in range(60):
            profile = corpus.strict_profile(rg, m)
            p = Polynomial.from_roots(profile)
            q = corpus.nonzero_poly(rg, m - 1)
            product = Fraction(1)
            for lam in profile.flattened:
                product *= q(lam)
            if product == 0:
                continue
            det_h = det(bezout_matrix(p, q).fractions)
            ratio = Fraction(det_h) / product
            assert ratio in (1, -1)
            signs.add(ratio)
        assert len(signs) == 1, f"no single sign function at degree {m}"
        candidates[m] = signs.pop()
    frozen_ok = all(candidates[m] == resultant_sign(m) for m in range(2, 6))
    expected = all(candidates[m] == (-1) ** (m * (m - 1) // 2) for m in range(2, 6))
    ok = frozen_ok and expected
    verdict(11, "resultant sign convention", ok,
            "det H = (-1)^(m(m-1)/2) * prod q(root); frozen in resultant_sign")
    assert ok
