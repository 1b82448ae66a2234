"""Command-line front end: analyze / nuij / quasi / leray / energy.

Each subcommand runs an end-to-end certification and emits a CertifiedReport
as canonical JSON (and/or per-command CSV).  Exit codes: 0 all checks pass,
1 some check failed, 2 input could not be parsed, 3 a required hyperbolicity
precondition failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, exactla
from .bezout import (
    bezout_matrix,
    companion_matrix,
    discriminant,
    psd_check,
    resultant,
    separation_lower_bound_check,
    symmetrization_defect,
)
from .energy import ExponentialSignal, chain_bound_check, derivative_identity_check, energy_series, propagate
from .errors import DegreeMismatchError, NonHyperbolicError
from .factorization import difference_product, separates
from .leray import h_b_relation_check, leray_symmetrizer
from .nuij import gap_constants, invert_transform, nuij_transform, verify_gaps
from .polynomial import Polynomial
from .quasi import check_conditions, default_lower_exponent, verify_quasi
from .report import FAIL, MARGINAL, PASS, CertifiedReport
from .roots import is_hyperbolic, real_roots
from .scalars import BACKEND_EXACT, scalar_to_json


class InputError(Exception):
    pass


def _parse_poly(text: str | None, path: str | None) -> Polynomial:
    if (text is None) == (path is None):
        raise InputError("provide exactly one of an inline list or a file")
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        items = data["coeffs"] if isinstance(data, dict) else data
    else:
        try:
            items = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse polynomial {text!r}: {exc}") from exc
    if not isinstance(items, list) or not items:
        raise InputError("polynomial must be a nonempty JSON array, leading first")
    try:
        return Polynomial.from_coeff_list(items)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _parse_grid(spec: str) -> tuple:
    text = spec.strip()
    mode = "log"
    if text.endswith(")"):
        text, _, tail = text.partition("(")
        mode = tail.rstrip(")").strip() or "log"
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid spec must look like start:stop:count(log), got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad grid spec {spec!r}") from exc
    if count < 1 or start <= 0 or stop <= 0:
        raise InputError("grid needs positive endpoints and count >= 1")
    if count == 1:
        return (start,)
    if mode == "log":
        ratio = (stop / start) ** (1.0 / (count - 1))
        return tuple(start * ratio**i for i in range(count))
    step = (stop - start) / (count - 1)
    return tuple(start + step * i for i in range(count))


def _echo_poly(p: Polynomial) -> list:
    return [scalar_to_json(c) for c in p.coeffs]


def _emit(report: CertifiedReport, table, output: str) -> None:
    if output in ("json", "both"):
        sys.stdout.write(report.to_json())
    if output in ("csv", "both"):
        rows = table if table is not None else report.csv_rows()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())


def _require_hyperbolic(p: Polynomial):
    verdict = is_hyperbolic(p)
    if not verdict.is_hyperbolic:
        raise NonHyperbolicError(str(verdict.witness))
    return verdict


def cmd_analyze(args, report: CertifiedReport):
    p = _parse_poly(args.poly, args.poly_file)
    tol = args.tol
    verdict = _require_hyperbolic(p)
    profile = verdict.witness
    q = _parse_poly(args.q, None) if args.q else p.derivative()
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(p), "q": _echo_poly(q)}

    H = bezout_matrix(p, q)
    A = companion_matrix(p)
    report.inputs["bezout_matrix"] = H.to_jsonable()
    report.inputs["companion_matrix"] = A.to_jsonable()
    defect = float(symmetrization_defect(H, A))
    report.add_bool("companion symmetrization defect", "companion-symmetrization",
                    defect <= tol, defect, tol)
    psd = psd_check(H, tol)
    witness = float(psd.min_eigenvalue) if psd.min_eigenvalue is not None else (
        float(min(psd.pivots)) if psd.pivots else 0.0)
    hermite = psd_check(bezout_matrix(p, p.derivative()), tol)
    report.add_bool("derivative form semidefinite (hyperbolicity certificate)",
                    "hermite-criterion", hermite.is_psd,
                    "psd" if hermite.is_psd else hermite.witness)
    try:
        cert = separates(p, q, tol)
    except DegreeMismatchError:
        cert = None
        report.add("separation structure", "separation-interlacing",
                   "q degree differs from deg(p) - 1", MARGINAL)
    if cert is not None:
        report.add_bool("separation structure", "separation-interlacing",
                        cert.separates, cert.failure_reason or float(cert.constant_c))
        if cert.separates:
            ok = separation_lower_bound_check(p, q, cert.constant_c, profile, tol)
            report.add_bool("separation lower bound", "separation-lower-bound",
                            ok, float(cert.constant_c), tol)
            report.add_bool("bezout form semidefinite", "bezout-psd", psd.is_psd, witness, tol)
    disc = discriminant(p)
    delta = difference_product(profile.flattened)
    disc_err = abs(float(disc) - float(delta) ** 2)
    scale = max(1.0, abs(float(disc)))
    report.add_bool("determinant equals squared root spread", "discriminant-product",
                    disc_err <= tol * scale, float(disc), tol)
    res = resultant(p, q, profile)
    res_err = float(res.consistency_residual()) / max(1.0, abs(float(res.det_h)))
    report.add_bool("determinant against root product", "resultant-sign",
                    res_err <= tol, float(res.det_h), tol)
    return None


def cmd_nuij(args, report: CertifiedReport):
    p = _parse_poly(args.poly, args.poly_file)
    _require_hyperbolic(p)
    m = int(p.degree)
    grid = (args.eps,) if args.eps is not None else _parse_grid(args.eps_grid)
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(p), "grid": list(grid)}
    table = [("epsilon", "min_gap", "gap_floor_constant", "pass")]
    if m >= 2:
        consts = gap_constants(m)
        report.add("gap floor constant", "nuij-gap-constants", float(consts.floor), PASS)
    for eps in grid:
        check = verify_gaps(p, eps)
        verdict = PASS if check.passed and not check.marginal else (
            MARGINAL if check.passed else FAIL)
        report.add(f"gap law at eps={eps:g}", "nuij-gap-law",
                   float(check.min_gap_over_eps), verdict)
        table.append((eps, check.min_gap_over_eps * eps, check.floor_constant,
                      check.passed))
        p_eps = nuij_transform(p.as_float(), float(eps))
        strict = is_hyperbolic(p_eps)
        report.add_bool(f"strictification at eps={eps:g}", "nuij-strictification",
                        strict.is_hyperbolic and strict.is_strict,
                        "strict" if strict.is_strict else "not strict")
        # exact transforms keep intermediate multiple roots certifiable
        base = p if p.backend == BACKEND_EXACT else p.as_float()
        eps_scalar = Fraction(eps) if p.backend == BACKEND_EXACT else float(eps)
        cascade_ok = True
        prev = [float(r) for r in real_roots(base).flattened]
        for stage in range(1, m):
            cur = [float(r) for r in
                   real_roots(nuij_transform(base, eps_scalar, stage)).flattened]
            # one more application shifts each root down past the previous one;
            # intermediate stages carry root clusters the float eigensolver only
            # resolves to ~sqrt(eps_mach), so the order comparison gets that slack
            tiny = 1e-7 * max(1.0, max(abs(v) for v in prev + cur))
            for i in range(m):
                if cur[i] > prev[i] + tiny or (i + 1 < m and prev[i] > cur[i + 1] + tiny):
                    cascade_ok = False
            prev = cur
        report.add_bool(f"stage interlacing at eps={eps:g}", "nuij-interlacing",
                        cascade_ok, "interlaced" if cascade_ok else "violated")
        recon = invert_transform(nuij_transform(p.as_float(), float(eps)), float(eps))
        diff = max(
            abs(float(a) - float(b))
            for a, b in zip(recon.ascending(m + 1), p.as_float().ascending(m + 1))
        )
        coeff_scale = max(1.0, max(abs(float(c)) for c in p.coeffs)) * max(1.0, eps) ** m
        report.add_bool(f"inversion at eps={eps:g}", "nuij-inversion",
                        diff <= 1e-8 * coeff_scale, diff, 1e-8)
    return table


def cmd_quasi(args, report: CertifiedReport):
    p = _parse_poly(args.poly, args.poly_file)
    _require_hyperbolic(p)
    grid = _parse_grid(args.eps_grid)
    r = args.r if args.r is not None else default_lower_exponent(p)
    s = args.s
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(p), "r": r, "s": s, "grid": list(grid)}
    conditions = check_conditions(p, grid, r, s)
    report.add_bool("derivative floor condition", "quasi-cond-derivative-floor",
                    conditions.c_lower > 0, float(conditions.c_lower))
    report.add_bool("perturbation ratio condition", "quasi-cond-perturbation",
                    np.isfinite(conditions.C_upper), float(conditions.C_upper))
    verdict = verify_quasi(p, grid, r=r, s=s, samples=args.samples, seed=report.seed)
    factor = verdict.uniformity_factor
    report.add_bool("lower bound uniformity", "quasi-lower-bound",
                    verdict.lower_decay < factor, float(verdict.lower_decay), factor)
    report.add_bool("commutator uniformity", "quasi-commutator",
                    verdict.commutator_growth < factor, float(verdict.commutator_growth), factor)
    report.add_bool("commutator sampling cross-check", "quasi-commutator-sampling",
                    verdict.sampling_consistent,
                    float(max(verdict.sample_max_ratios)))
    table = [("epsilon", "min_eig_over_eps2r", "commutator_const", "cond1", "cond2")]
    for (eps, lo, hi), lb, cc in zip(conditions.rows, verdict.lower_bound_constants,
                                     verdict.commutator_constants):
        table.append((eps, lb, cc, lo, hi))
    return table


def _scientific(sign, log10_abs: float) -> str:
    """10**log10_abs with the sign of ``sign``, as a short string beyond the float range."""
    exp = math.floor(log10_abs)
    return f"{'-' if sign < 0 else ''}{10 ** (log10_abs - exp):.9f}e{exp:+d}"


def _adjugate_determinant_law(sym, m: int, tol: float) -> tuple:
    """(det B == (det S)^(m-1), det B as a witness) without overflowing a float.

    Exact input compares the rationals exactly.  Float input compares to
    relative ``tol``, in log space once (det S)^(m-1) leaves the float range.
    """
    det_s = sym.det_power_sum_gram
    det_b = exactla.det(sym.adjugate)
    if isinstance(det_b, Fraction):
        try:
            witness = float(det_b)
        except OverflowError:
            witness = _scientific(det_b, math.log10(abs(det_b.numerator))
                                  - math.log10(det_b.denominator))
        return det_b == det_s ** (m - 1), witness
    try:
        target = float(det_s) ** (m - 1)
    except OverflowError:
        sign_b, log_b = np.linalg.slogdet(np.asarray(sym.adjugate, dtype=float))
        ok = (sign_b == math.copysign(1.0, det_s) ** (m - 1)
              and abs(log_b - (m - 1) * math.log(abs(det_s))) <= tol)
        return ok, _scientific(sign_b, log_b / math.log(10))
    return abs(det_b - target) <= tol * max(1.0, abs(target)), det_b


def cmd_leray(args, report: CertifiedReport):
    p = _parse_poly(args.poly, args.poly_file)
    tol = args.tol
    verdict = _require_hyperbolic(p)
    profile = verdict.witness
    m = int(p.degree)
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(p)}
    sym = leray_symmetrizer(p)
    defect = float(sym.symmetry_defect)
    report.add_bool("power-sum symmetrizer defect", "leray-symmetry",
                    defect <= tol, defect, tol)
    disc = discriminant(p)
    err = abs(float(sym.det_power_sum_gram) - float(disc))
    report.add_bool("det equals discriminant", "leray-determinant",
                    err <= tol * max(1.0, abs(float(disc))), float(sym.det_power_sum_gram), tol)
    law_ok, det_b = _adjugate_determinant_law(sym, m, tol)
    report.add_bool("adjugate determinant law", "leray-adjugate-determinant",
                    law_ok, det_b, tol)
    report.add_bool("definiteness matches strictness", "leray-definiteness",
                    sym.definiteness.is_pd == profile.is_strict,
                    "positive definite" if sym.definiteness.is_pd else "semidefinite")
    if m == 2:
        H = bezout_matrix(p, p.derivative()).matrix
        diff = float(exactla.max_abs(sym.adjugate - H))
        report.add_bool("adjugate equals bezout form (m=2)", "leray-bezout-m2",
                        diff <= tol, diff, tol)
    if profile.is_strict:
        residual = h_b_relation_check(p, profile, sym.adjugate)
        report.add_bool("bezout relation residual", "leray-bezout-relation",
                        residual <= max(tol, 1e-10), residual, max(tol, 1e-10))
    return None


def cmd_energy(args, report: CertifiedReport):
    p = _parse_poly(args.poly, args.poly_file)
    tol = args.tol
    _require_hyperbolic(p)
    q = _parse_poly(args.q, None) if args.q else p.derivative()
    m = int(p.degree)
    if q.is_zero or int(q.degree) > m - 1:
        raise DegreeMismatchError(f"q must be nonzero of degree at most {m - 1}")
    if args.U0 is None:
        U0 = [complex(1.0)] * m
    else:
        try:
            U0 = [complex(part) for part in args.U0.split(",")]
        except ValueError as exc:
            raise InputError(f"cannot parse U0 {args.U0!r}") from exc
    if len(U0) != m:
        raise InputError(f"U0 must have {m} components, got {len(U0)}")
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(p), "q": _echo_poly(q),
                     "U0": [str(u) for u in U0], "T": args.T, "steps": args.steps}
    A = companion_matrix(p.as_float())
    traj = propagate(A, U0, args.T, args.steps)
    series = energy_series(p, q, traj)
    spread = series.relative_spread()
    report.add_bool("energy conservation", "energy-conservation",
                    spread <= max(tol, 1e-9), spread, max(tol, 1e-9))
    cert = separates(p.as_float(), q.as_float(), tol) if int(q.degree) == int(p.degree) - 1 else None
    if cert is not None and cert.separates:
        nonneg = float(np.min(series.values)) >= -tol * max(1.0, float(np.max(np.abs(series.values))))
        report.add_bool("energy nonnegative", "energy-nonnegative",
                        nonneg, float(np.min(series.values)), tol)
    rng = np.random.default_rng(report.seed)
    freqs = sorted(rng.uniform(-3.0, 3.0, size=3))
    signal = ExponentialSignal.of(*[(1.0 / (k + 1), nu) for k, nu in enumerate(freqs)])
    residual = derivative_identity_check(p, q, signal, t_max=min(args.T, 10.0))
    report.add_bool("derivative identity", "energy-derivative-identity",
                    residual <= 1e-8, residual, 1e-8)
    if int(p.degree) >= 2:
        chain = chain_bound_check(p, 0, traj, T=args.T)
        report.add_bool("chain bound along trajectory", "energy-chain-bound",
                        chain.passed, chain.derivative_margin)
    table = [("t", "value")]
    table.extend(zip(series.times.tolist(), series.values.tolist()))
    return table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bezoutian",
        description="Certified Bezout-matrix symmetrizers for hyperbolic polynomials",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--poly", help='coefficients, leading first, e.g. "[1,0,-1]"')
        sp.add_argument("--poly-file", help="JSON file with {'coeffs': [...]}")
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="certification tolerance (default 1e-9)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for randomized cross-checks (env SYMM_SEED overrides)")
        sp.add_argument("--output", choices=("json", "csv", "both"), default="json")

    sp = sub.add_parser("analyze", help="symmetrizer, PSD and separation certification")
    common(sp)
    sp.add_argument("--q", help="second polynomial; defaults to the derivative of p")

    sp = sub.add_parser("nuij", help="smoothing family: gap law, interlacing, inversion")
    common(sp)
    sp.add_argument("--eps", type=float, help="single epsilon instead of a grid")
    sp.add_argument("--eps-grid", default="1:1e-4:9(log)",
                    help='grid spec start:stop:count(log|lin), default "1:1e-4:9(log)"')

    sp = sub.add_parser("quasi", help="uniform-in-eps quasi-symmetrizer certification")
    common(sp)
    sp.add_argument("--r", type=float, default=None,
                    help="lower-bound exponent; defaults to multiplicity - 1")
    sp.add_argument("--s", type=float, default=1.0, help="commutator exponent (default 1)")
    sp.add_argument("--eps-grid", default="1:1e-4:9(log)")
    sp.add_argument("--samples", type=int, default=24)

    sp = sub.add_parser("leray", help="power-sum symmetrizer and its determinant laws")
    common(sp)

    sp = sub.add_parser("energy", help="energy conservation along companion trajectories")
    common(sp)
    sp.add_argument("--q", help="form polynomial; defaults to the derivative of p")
    sp.add_argument("--U0", default=None,
                    help='initial state, e.g. "1,1"; defaults to all ones')
    sp.add_argument("--T", type=float, default=10.0)
    sp.add_argument("--steps", type=int, default=400)

    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "nuij": cmd_nuij,
    "quasi": cmd_quasi,
    "leray": cmd_leray,
    "energy": cmd_energy,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = args.seed
    env_seed = os.environ.get("SYMM_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"bad SYMM_SEED {env_seed!r}", file=sys.stderr)
            return 2
    report = CertifiedReport(command=args.command, seed=seed, version=__version__,
                             tolerances={"tol": args.tol})
    try:
        table = COMMANDS[args.command](args, report)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NonHyperbolicError as exc:
        print(f"hyperbolicity required: {exc}", file=sys.stderr)
        return 3
    except (DegreeMismatchError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    _emit(report, table, args.output)
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
