"""Command-line front end: analyze / nuij / quasi / leray / energy.

Each subcommand runs an end-to-end certification and emits a CertifiedReport
as canonical JSON (and/or per-command CSV).  Exit codes: 0 all checks pass,
1 some check failed, 2 input could not be parsed, 3 a required hyperbolicity
precondition failed.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

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
from .energy import (
    ExponentialSignal,
    _uniform_draws,
    chain_bound_check,
    derivative_identity_check,
    energy_series,
    propagate,
)
from .errors import DegreeMismatchError, NonHyperbolicError
from .factorization import difference_product, separates
from .leray import h_b_relation_check, leray_symmetrizer
from .nuij import (
    build_family,
    certify_grid,
    default_epsilon_grid,
    gap_constants,
    invert_transform,
    nuij_family,
    verify_gaps,
)
from .polynomial import Polynomial
from .quasi import UNIFORMITY_FACTOR, check_conditions, max_multiplicity, verify_quasi
from .report import FAIL, MARGINAL, PASS, CertifiedReport
from .roots import is_hyperbolic, real_roots
from .scalars import BACKEND_EXACT, scalar_to_json


# sample pairs (z, w) a quasi request may draw over its grid: 32 n bytes of
# normal draws each, about 100 MB at degree n = 32
MAX_SAMPLE_PAIRS = 10 ** 5
# the same budget in bytes, for the (steps + 1) m complex states of an energy trajectory
MAX_STATE_BYTES = 10 ** 8
# eps per --eps-grid: nuij stacks the float forms of about m / 2 Nuij stages
# per eps for one eigensolver call, about 120 MB at degree 32
MAX_GRID_POINTS = 1000


class InputError(Exception):
    pass


def _parse_poly(text: str | None, path: str | None) -> Polynomial:
    if (text is None) == (path is None):
        raise InputError("provide exactly one of an inline list or a file")
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read polynomial file: {exc}") from exc
        items = data.get("coeffs") if isinstance(data, dict) else data
    else:
        try:
            items = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse polynomial {text!r}: {exc}") from exc
    if not isinstance(items, list) or not items:
        raise InputError("polynomial must be a nonempty JSON array, leading first")
    try:
        p = Polynomial.from_coeff_list(items)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc
    if any(isinstance(c, float) and not math.isfinite(c) for c in p.coeffs):
        raise InputError("polynomial coefficients must be finite")
    return p


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
    if count < 1 or not (0 < start < math.inf and 0 < stop < math.inf):
        raise InputError("--eps-grid needs finite positive endpoints and count >= 1, "
                         f"got {spec!r}")
    if count > MAX_GRID_POINTS:
        raise InputError(f"--eps-grid count must be at most {MAX_GRID_POINTS}, got {count}")
    if mode not in ("log", "lin"):
        raise InputError(f"grid mode must be log or lin, got {mode!r}")
    if mode == "log":
        return default_epsilon_grid(start, stop, count)
    if count == 1:
        return (start,)
    step = (stop - start) / (count - 1)
    return tuple(start + step * i for i in range(count))


def _echo_poly(p: Polynomial) -> list:
    return [scalar_to_json(c) for c in p.coeffs]


def _echo_matrix(M: exactla.IntMatrix) -> dict:
    """An exact matrix as reduced ``"n/d"`` strings, printed from its integer rows.

    Entry v / den is reduced by gcd(v, den), with no Fraction built.
    """
    den = M.den
    return {"backend": BACKEND_EXACT,
            "rows": [[f"{v // (g := math.gcd(v, den))}/{den // g}" for v in row]
                     for row in M.rows]}


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


def _exact_witness(x):
    """float(x) for a rational x, or a short decimal string once x leaves the float range."""
    try:
        return float(x)
    except OverflowError:
        log10_abs = math.log10(abs(x.numerator)) - math.log10(x.denominator)
        exp = math.floor(log10_abs)
        return f"{'-' if x < 0 else ''}{10 ** (log10_abs - exp):.9f}e{exp:+d}"


def _agrees(residual, exact, slack) -> bool:
    """residual <= slack * max(1, |exact|), in exact arithmetic."""
    return residual <= Fraction(slack) * max(1, abs(exact))


def cmd_analyze(args, report: CertifiedReport):
    """Certify p and q at their exact values, echoing them as typed.

    A decimal is an exact dyadic rational, so a decimal request gets the
    checks of that value typed as fractions, backend ``exact``, as in ``leray``;
    p and q may be typed in either backend.  The default q is p' of that
    value; the echo shows the float p' as typed.
    """
    typed = _parse_poly(args.poly, args.poly_file)
    p = typed.as_exact()
    tol = args.tol
    _require_hyperbolic(p)
    typed_q = _parse_poly(args.q, None) if args.q else typed.derivative()
    if not typed_q.is_zero and typed_q.degree >= p.degree:
        # refused before any form of the pair is built
        raise DegreeMismatchError(f"deg q = {typed_q.degree} is not below deg p = {p.degree}")
    # the float derivative rounds k * c, so it is echoed but not certified
    q = typed_q.as_exact() if args.q else p.derivative()
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(typed), "q": _echo_poly(typed_q)}

    A = companion_matrix(p)
    # H(p, p') and its LDL serve hermite-criterion, the separation bound and discriminant
    profile = real_roots(p)
    hermite = psd_check(bezout_matrix(p, p.derivative()))
    H = bezout_matrix(p, q)
    report.inputs["bezout_matrix"] = _echo_matrix(H)
    report.inputs["companion_matrix"] = _echo_matrix(A)
    defect = symmetrization_defect(H, A)
    report.add_bool("companion symmetrization defect", "companion-symmetrization",
                    defect <= tol, _exact_witness(defect), tol)
    report.add_bool("derivative form semidefinite (hyperbolicity certificate)",
                    "hermite-criterion", hermite.is_psd,
                    "psd" if hermite.is_psd else hermite.witness)
    if q.is_zero or q.degree != p.degree - 1:
        report.add("separation structure", "separation-interlacing",
                   "q degree differs from deg(p) - 1", MARGINAL)
    else:
        cert = separates(p, q, tol)
        report.add_bool("separation structure", "separation-interlacing",
                        cert.separates, cert.failure_reason or _exact_witness(cert.constant_c))
        if cert.separates:
            ok = separation_lower_bound_check(p, q, cert.constant_c, tol)
            report.add_bool("separation lower bound", "separation-lower-bound",
                            ok, _exact_witness(cert.constant_c), tol)
            psd = psd_check(H)
            report.add_bool("bezout form semidefinite", "bezout-psd", psd.is_psd,
                            _exact_witness(min(psd.pivots, default=0)), tol)
    # rational roots give exact products, which must equal the determinants;
    # irrational roots are floats, taken at their dyadic values and held to tol
    slack = 0 if all(isinstance(r, Fraction) for r in profile.distinct_roots) else tol
    disc = discriminant(p)
    delta = difference_product(profile.flattened)
    report.add_bool("determinant equals squared root spread", "discriminant-product",
                    _agrees(abs(disc - delta ** 2), disc, slack), _exact_witness(disc), tol)
    res = resultant(p, q)
    report.add_bool("determinant against root product", "resultant-sign",
                    _agrees(res.consistency_residual(), res.det_h, slack),
                    _exact_witness(res.det_h), tol)
    return None


def cmd_nuij(args, report: CertifiedReport):
    """Certify p at its exact value, echoing it as typed, as ``analyze`` does.

    The float family points are those of the float64 p either way:
    ``nuij_transform`` rounds an exact p before it applies a float eps.
    """
    typed = _parse_poly(args.poly, args.poly_file)
    p = typed.as_exact()
    _require_hyperbolic(p)
    m = int(p.degree)
    if args.eps is not None and not math.isfinite(args.eps):
        raise InputError(f"--eps must be finite, got {args.eps}")
    grid = (args.eps,) if args.eps is not None else _parse_grid(args.eps_grid)
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(typed), "grid": list(grid)}
    table = [("epsilon", "min_gap", "gap_floor_constant", "pass")]
    if m >= 2:
        consts = gap_constants(m)
        report.add("gap floor constant", "nuij-gap-constants", float(consts.floor), PASS)
    build_family(p, grid)
    # the last Nuij stage reads the roots of the family points; an eps <= 0
    # raises here, with the message verify_gaps would give
    stage_verdicts = certify_grid(p, grid)
    p_scale = None  # the eps-independent half of the inversion check, read once
    for eps, (interlaced, strict) in zip(grid, stage_verdicts):
        # the gap law and the inversion read p's one float family point of eps,
        # which build_family built
        p_eps = nuij_family(p, eps).p_eps
        check = verify_gaps(p, eps)
        verdict = PASS if check.passed and not check.marginal else (
            MARGINAL if check.passed else FAIL)
        # one root has no gap: the law holds vacuously, and inf is not JSON
        report.add(f"gap law at eps={eps:g}", "nuij-gap-law",
                   float(check.min_gap_over_eps) if m >= 2 else "single root", verdict)
        table.append((eps, check.min_gap_over_eps * eps, check.floor_constant,
                      check.passed))
        report.add_bool(f"strictification at eps={eps:g}", "nuij-strictification",
                        strict, "strict" if strict else "not strict")
        report.add_bool(f"stage interlacing at eps={eps:g}", "nuij-interlacing",
                        interlaced, "interlaced" if interlaced else "violated")
        recon = invert_transform(p_eps, float(eps))
        if p_scale is None:  # here p has a float family point, so its float rounding exists
            p_ascending = p.as_float().ascending(m + 1)
            p_scale = [abs(float(c)) for c in p.coeffs]
        diff = max(abs(float(a) - float(b)) for a, b in zip(recon.ascending(m + 1), p_ascending))
        # rounding in the inverse scales with the p_eps it inverts, which can
        # dwarf the coefficients of p
        coeff_scale = max(1.0, *p_scale, *(abs(float(c)) for c in p_eps.coeffs)) \
            * max(1.0, eps) ** m
        report.add_bool(f"inversion at eps={eps:g}", "nuij-inversion",
                        diff <= 1e-8 * coeff_scale, diff, 1e-8)
    return table


def cmd_quasi(args, report: CertifiedReport):
    """Certify p at its exact value, echoing it as typed, as ``cmd_nuij`` does."""
    typed = _parse_poly(args.poly, args.poly_file)
    p = typed.as_exact()
    _require_hyperbolic(p)
    grid = _parse_grid(args.eps_grid)
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if len(grid) * args.samples > MAX_SAMPLE_PAIRS:
        raise InputError(f"--samples {args.samples} over {len(grid)} grid points draws more "
                         f"than {MAX_SAMPLE_PAIRS} sample pairs")
    r = args.r if args.r is not None else max_multiplicity(p) - 1
    s = args.s
    if not (math.isfinite(r) and math.isfinite(s)):
        raise InputError(f"--r and --s must be finite, got {r} and {s}")
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(typed), "r": r, "s": s, "grid": list(grid)}
    # the conditions and the verdict read p's one float family point per eps
    conditions = check_conditions(p, grid, r, s)
    report.add_bool("derivative floor condition", "quasi-cond-derivative-floor",
                    conditions.c_lower > 0, float(conditions.c_lower))
    report.add_bool("perturbation ratio condition", "quasi-cond-perturbation",
                    math.isfinite(conditions.C_upper), float(conditions.C_upper))
    verdict = verify_quasi(p, grid, r=r, s=s, samples=args.samples, seed=report.seed)
    factor = UNIFORMITY_FACTOR
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


def cmd_leray(args, report: CertifiedReport):
    # a decimal is an exact dyadic rational: certify and echo that value
    p = _parse_poly(args.poly, args.poly_file).as_exact()
    tol = args.tol
    verdict = _require_hyperbolic(p)
    m = int(p.degree)
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(p)}
    sym = leray_symmetrizer(p)
    defect = float(sym.symmetry_defect)
    report.add_bool("power-sum symmetrizer defect", "leray-symmetry",
                    defect <= tol, defect, tol)
    det_s = sym.det_power_sum_gram
    disc = discriminant(p)
    report.add_bool("det equals discriminant", "leray-determinant",
                    det_s == disc, _exact_witness(det_s), tol)
    # det(S)^(m-1) where S B = det(S) I was checked in full, else B's own, compared exactly
    det_b = sym.det_adjugate
    report.add_bool("adjugate determinant law", "leray-adjugate-determinant",
                    det_b == det_s ** (m - 1), _exact_witness(det_b), tol)
    report.add_bool("definiteness matches strictness", "leray-definiteness",
                    sym.definiteness.is_pd == verdict.is_strict,
                    "positive definite" if sym.definiteness.is_pd else "semidefinite")
    if m == 2:
        H = bezout_matrix(p, p.derivative())
        diff = float(exactla.max_abs_difference(sym.adjugate_ints, H))
        report.add_bool("adjugate equals bezout form (m=2)", "leray-bezout-m2",
                        diff <= tol, diff, tol)
    if verdict.is_strict:
        residual = h_b_relation_check(p)
        report.add_bool("bezout relation residual", "leray-bezout-relation",
                        residual <= max(tol, 1e-10), residual, max(tol, 1e-10))
    return None


def cmd_energy(args, report: CertifiedReport):
    import numpy as np

    p = _parse_poly(args.poly, args.poly_file)
    tol = args.tol
    if not math.isfinite(args.T) or args.T == 0:
        raise InputError(f"--T must be finite and nonzero, got {args.T}")
    if args.steps < 4:
        # the chain bound's 5-point stencil needs five times
        raise InputError(f"--steps must be at least 4, got {args.steps}")
    if (args.steps + 1) * p.degree * 16 > MAX_STATE_BYTES:
        raise InputError(f"--steps {args.steps} at degree {p.degree} needs more than "
                         f"{MAX_STATE_BYTES} bytes of complex states")
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
        if not all(map(cmath.isfinite, U0)):
            raise InputError(f"--U0 components must be finite, got {args.U0!r}")
    if len(U0) != m:
        raise InputError(f"U0 must have {m} components, got {len(U0)}")
    report.backend = p.backend
    report.inputs = {"poly": _echo_poly(p), "q": _echo_poly(q),
                     "U0": [str(u) for u in U0], "T": args.T, "steps": args.steps}
    # the trajectory reads the roots of the float rounding pf of p, built once
    # and kept on pf; for float p, pf is p, whose roots is_hyperbolic found.
    # separates decides exact p and q by their Bezout forms
    traj = propagate(p.as_float(), U0, args.T, args.steps)
    series = energy_series(p, q, traj)
    spread = series.relative_spread()
    report.add_bool("energy conservation", "energy-conservation",
                    spread <= max(tol, 1e-9), spread, max(tol, 1e-9))
    if q.degree == m - 1 and separates(p, q, tol):
        nonneg = float(np.min(series.values)) >= -tol * max(1.0, float(np.max(np.abs(series.values))))
        report.add_bool("energy nonnegative", "energy-nonnegative",
                        nonneg, float(np.min(series.values)), tol)
    freqs = sorted(_uniform_draws(report.seed, 3, -3.0, 3.0))
    signal = ExponentialSignal.of(*[(1.0 / (k + 1), nu) for k, nu in enumerate(freqs)])
    residual = derivative_identity_check(p, q, signal, t_max=min(args.T, 10.0))
    report.add_bool("derivative identity", "energy-derivative-identity",
                    residual <= 1e-8, residual, 1e-8)
    if m >= 2:
        # the floor constant is 1/m, certified by the Sturm chain of p's exact value
        chain = chain_bound_check(p, 0, traj, T=args.T)
        report.add_bool("chain bound along trajectory", "energy-chain-bound",
                        chain.passed, chain.derivative_margin)
    table = [("t", "value")]
    table.extend(zip(series.times.tolist(), series.values.tolist()))
    return table


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
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
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized cross-checks")
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
    if not (math.isfinite(args.tol) and args.tol >= 0):
        # NaN fails and a negative tol inverts every "<= tol" check; NaN and inf are not JSON
        print(f"input error: --tol must be finite and >= 0, got {args.tol}", file=sys.stderr)
        return 2
    report = CertifiedReport(command=args.command, seed=args.seed, version=__version__,
                             tolerances={"tol": args.tol})
    try:
        table = COMMANDS[args.command](args, report)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NonHyperbolicError as exc:
        print(f"hyperbolicity required: {exc}", file=sys.stderr)
        return 3
    except (DegreeMismatchError, ValueError, OverflowError) as exc:
        # OverflowError: a float check needs the float64 rounding of an exact value past it
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    _emit(report, table, args.output)
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
