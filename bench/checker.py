"""Known-answer checker for one benchmark request.

The answer comes from how the input was built (see ``workloads.Request``),
never from an earlier output of the program.  A request *fails* when

- it raises out of ``main``, or exits 2;
- its exit-3 decision (``hyperbolicity required``) disagrees with
  hyperbolicity by construction;
- its report does not round-trip through ``CertifiedReport.from_json``;
- a check whose statement is a theorem for that input returns ``fail``:
  every check of analyze, leray, nuij and energy (default q = p'), and for
  quasi only the sampling cross-check, because its two uniformity checks are
  the deliberately red acceptance criterion 08;
- a check that the subcommand must emit for that input is missing from the
  report (``required_checks``), so a report cannot pass by leaving work out.

A failed request is a certificate the program could not give.  A request is
also *unsound* when the program asserted something false: it went on past
the hyperbolicity gate on a polynomial with a complex pair, its report
echoes another input or does not round-trip, its exit code disagrees with
its own report, or a check passed whose witness contradicts the
construction.  A run is correct only when no request is unsound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from bezoutian.report import FAIL, PASS, CertifiedReport

# quasi-lower-bound and quasi-commutator are the criterion-08 uniformity checks.
THEOREM_CHECKS = {"quasi": {"quasi-commutator-sampling"}}

# The CLI's default epsilon grid, 1:1e-4:9(log): 1, 10^-1/2, ..., 10^-4.
DEFAULT_GRID = tuple(10 ** (-k / 2) for k in range(9))
NUIJ_PER_EPS = ("nuij-gap-law", "nuij-strictification", "nuij-interlacing", "nuij-inversion")


def required_checks(request) -> Counter:
    """check_id -> how many times the report of a hyperbolic input must hold it.

    These are the checks ``cli.py`` emits for the input as built.  analyze
    always gets the two checks that follow a separation certificate, because
    q = p' separates every hyperbolic p (Rolle).
    """
    m = request.degree
    if request.command == "analyze":
        ids = ["companion-symmetrization", "hermite-criterion", "separation-interlacing",
               "separation-lower-bound", "bezout-psd", "discriminant-product", "resultant-sign"]
    elif request.command == "leray":
        ids = ["leray-symmetry", "leray-determinant", "leray-adjugate-determinant",
               "leray-definiteness"]
        ids += ["leray-bezout-m2"] if m == 2 else []
        ids += ["leray-bezout-relation"] if request.strict else []
    elif request.command == "nuij":
        need = Counter({i: len(DEFAULT_GRID) for i in NUIJ_PER_EPS})
        if m >= 2:
            need["nuij-gap-constants"] = 1
        return need
    elif request.command == "quasi":
        ids = ["quasi-cond-derivative-floor", "quasi-cond-perturbation", "quasi-lower-bound",
               "quasi-commutator", "quasi-commutator-sampling"]
    elif request.command == "energy":
        ids = ["energy-conservation", "energy-derivative-identity"]
        ids += ["energy-chain-bound"] if m >= 2 else []
    else:
        raise ValueError(f"no known checks for {request.command!r}")
    return Counter(ids)


def _missing(report: CertifiedReport, request) -> list:
    """Required check ids the report holds too few times; nuij's grid must be the default."""
    if request.command == "nuij":
        grid = report.inputs.get("grid")
        if (not isinstance(grid, list) or len(grid) != len(DEFAULT_GRID)
                or not all(isinstance(g, float) and math.isclose(g, want, rel_tol=1e-12)
                           for g, want in zip(grid, DEFAULT_GRID))):
            return ["default eps grid"]
    have = Counter(rec.check_id for rec in report.checks)
    return sorted(cid for cid, n in required_checks(request).items() if have[cid] < n)


@dataclass(frozen=True)
class Verdict:
    failed: bool = False
    unsound: bool = False
    reason: str = ""


OK = Verdict()


def _failed(reason: str) -> Verdict:
    return Verdict(True, False, reason)


def _unsound(reason: str) -> Verdict:
    return Verdict(True, True, reason)


def _echo_matches(report: CertifiedReport, request) -> bool:
    echoed = report.inputs.get("poly")
    if not isinstance(echoed, list):
        return False
    want = request.coefficients()
    if len(echoed) != len(want):
        return False
    if request.exact:
        return all(isinstance(v, str) and Fraction(v) == w for v, w in zip(echoed, want))
    return all(isinstance(v, float) and Fraction(v) == w for v, w in zip(echoed, want))


def check(request, code, stdout: str, error: BaseException | None = None) -> Verdict:
    """Judge one ``main(argv)`` call: its exit code, its stdout, or what it raised."""
    if error is not None:
        return _failed(f"raised {type(error).__name__}")
    if code == 3:
        return OK if not request.hyperbolic else _failed("exit 3 on a hyperbolic input")
    if code not in (0, 1):
        return _failed(f"exit {code}")
    if not request.hyperbolic:
        return _unsound(f"exit {code} on a polynomial with a complex pair")
    try:
        report = CertifiedReport.from_json(stdout)
    except (ValueError, KeyError, TypeError):
        return _unsound("report does not parse")
    if report.to_json() != stdout:
        return _unsound("report does not round-trip")
    if report.command != request.command or not _echo_matches(report, request):
        return _unsound("report echoes another input")
    if (code == 0) != report.all_pass:
        return _unsound("exit code disagrees with the report")
    for rec in report.checks:
        if (rec.check_id == "leray-definiteness" and rec.verdict == PASS
                and (rec.witness == "positive definite") != request.strict):
            return _unsound("definiteness contradicts the root multiplicities")
    theorems = THEOREM_CHECKS.get(request.command)
    bad = sorted({rec.check_id for rec in report.checks
                  if rec.verdict == FAIL and (theorems is None or rec.check_id in theorems)})
    missing = _missing(report, request)
    if bad or missing:
        return _failed("; ".join(([f"fail: {','.join(bad)}"] if bad else [])
                                 + ([f"missing: {','.join(missing)}"] if missing else [])))
    return OK
