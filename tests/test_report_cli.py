"""CertifiedReport round-trips and the command-line front end."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezoutian import Polynomial, bezout, energy, exactla, nuij, roots
from bezoutian.cli import build_parser, main
from bezoutian.report import CertifiedReport
from bezoutian.scalars import BACKEND_FLOAT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, original, arity: int = 1) -> list:
    """Rebind ``original`` wherever a bezoutian module holds it; returns the call log.

    The log holds each call's first argument, or its first ``arity``
    arguments as a tuple when ``arity`` > 1.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0] if arity == 1 else args[:arity])
        return original(*args, **kwargs)

    name = original.__name__
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "bezoutian" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_report_json_round_trip_byte_identical():
    rep = CertifiedReport(command="analyze", seed=7, backend="exact",
                          inputs={"poly": ["1/1", "0/1", "-1/1"]},
                          tolerances={"tol": 1e-9})
    rep.add("companion symmetrization defect", "companion-symmetrization", 0.0, "pass", 1e-9)
    rep.add("gap law", "nuij-gap-law", 2.0, "marginal")
    text = rep.to_json()
    again = CertifiedReport.from_json(text)
    assert again.to_json() == text
    assert again.all_pass


def test_report_all_pass_logic():
    rep = CertifiedReport(command="x")
    rep.add("a", "id-a", 1.0, "pass")
    assert rep.all_pass
    rep.add("b", "id-b", 1.0, "marginal")
    assert rep.all_pass
    rep.add("c", "id-c", 1.0, "fail")
    assert not rep.all_pass


def test_analyze_happy_path(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--poly", "[1,0,-1]")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert data["report_version"] == 1
    assert data["inputs"]["q"] == ["2/1", "0/1"]
    assert data["inputs"]["bezout_matrix"] == {
        "backend": "exact",
        "rows": [["2/1", "0/1"], ["0/1", "2/1"]],
    }
    assert data["inputs"]["companion_matrix"]["rows"] == [["0/1", "1/1"], ["1/1", "0/1"]]
    ids = {c["check_id"] for c in data["checks"]}
    assert {"companion-symmetrization", "hermite-criterion", "discriminant-product",
            "resultant-sign"} <= ids


def test_analyze_with_separating_q(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--poly", "[1,0,-1]", "--q", "[1,0]")
    assert code == 0
    data = json.loads(out)
    sep = next(c for c in data["checks"] if c["check_id"] == "separation-interlacing")
    assert sep["verdict"] == "pass"
    assert sep["witness"] == pytest.approx(0.5)


@pytest.mark.parametrize("command", ["analyze", "nuij", "quasi", "leray", "energy"])
def test_analyze_non_hyperbolic_exits_3(capsys, command):
    # every command gates on the Sturm chain of exact p
    assert run_cli(capsys, command, "--poly", "[1,0,1]") == \
        (3, "", "hyperbolicity required: complex roots (Sturm count short)\n")


@pytest.mark.parametrize("command", ["analyze", "nuij", "quasi", "leray", "energy"])
@pytest.mark.parametrize("poly", ["[1.0,0.0,1e-20]", "[1.0,-0.6,0.09]"])
def test_a_decimal_with_complex_roots_exits_3_from_its_exact_value(capsys, command, poly):
    # x^2 + 10^-20 has the roots +-10^-10 i; energy's eigenvalue test of the
    # float H(p, p') at 1e-9 passed it, and energy exited 0.  The decimals of
    # (x - 0.3)^2 round down, 0.6 by 2.2e-17 and 0.09 by 3.3e-18, so the
    # discriminant of their exact value is negative; energy exited 0 on it too
    assert run_cli(capsys, command, "--poly", poly) == \
        (3, "", "hyperbolicity required: complex roots (Sturm count short)\n")


def test_parse_error_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--poly", "bad[")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--poly", "[]")
    assert code == 2
    code, _, err = run_cli(capsys, "leray", "--poly", "[1.0, Infinity]")
    assert code == 2 and "finite" in err
    no_coeffs = tmp_path / "no_coeffs.json"
    no_coeffs.write_text('{"coefs": [1, 0, -1]}')
    for argv in (["--poly-file", str(tmp_path / "missing.json")],
                 ["--poly-file", str(no_coeffs)],
                 ["--poly", '["1/0", 1]'],
                 ["--poly", "[1, 0, -1]", "--q", '["1/0", 1]']):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert (code, out) == (2, "") and err.startswith("input error:"), argv


@pytest.mark.parametrize("command, poly, err", [
    ("analyze", "[2,0,-2]", "companion matrix input must be monic, got leading coefficient 2"),
    ("nuij", "[2,0,-2]", "smoothing family input must be monic, got leading coefficient 2"),
    ("quasi", '["3/2",0,-2]',
     "smoothing family input must be monic, got leading coefficient 3/2"),
    ("leray", "[1.5,0,-2]", "power-sum matrix input must be monic, got leading coefficient 3/2"),
    ("energy", "[2.0,0,-2]", "companion matrix input must be monic, got leading coefficient 2.0"),
])
def test_non_monic_input_names_its_leading_coefficient(capsys, command, poly, err):
    assert run_cli(capsys, command, "--poly", poly) == (2, "", f"input error: {err}\n")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_nonnegative(capsys, tol):
    code, out, err = run_cli(capsys, "analyze", "--poly", "[1.0,0.0,-1.0]", "--q", "[1.0,5.0]",
                             "--tol", tol)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "--tol" in err


def test_wrong_degree_q_exits_2(capsys):
    code, _, err = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--q", "[1,0,0,0]")
    assert code == 2


@pytest.mark.parametrize("poly, q, poly_fractions, q_fractions, q_echo", [
    pytest.param("[1,0,-1]", "[1.0,0.5]", "[1,0,-1]", '["1/1","1/2"]', [1.0, 0.5],
                 id="[1,0,-1]-[1.0,0.5]"),
    pytest.param("[1.0,0.0,-1.0]", "[1,0]", '["1/1","0/1","-1/1"]', "[1,0]", ["1/1", "0/1"],
                 id="[1.0,0.0,-1.0]-[1,0]"),
    pytest.param("[1,0,-2,0]", "[3.0,0.0,-0.5]", "[1,0,-2,0]", '["3/1","0/1","-1/2"]',
                 [3.0, 0.0, -0.5], id="[1,0,-2,0]-[3.0,0.0,-0.5]"),
])
def test_analyze_takes_p_and_q_of_either_backend(capsys, poly, q, poly_fractions, q_fractions,
                                                 q_echo):
    # both are certified at their exact values, so a mixed pair gets the
    # checks of the pair typed as fractions, and q is echoed as typed
    code, out, err = run_cli(capsys, "analyze", "--poly", poly, "--q", q)
    assert (code, err) == (0, "")
    mixed = strict_json(out)
    code, out, err = run_cli(capsys, "analyze", "--poly", poly_fractions, "--q", q_fractions)
    assert (code, err) == (0, "")
    typed = strict_json(out)
    assert mixed["checks"] == typed["checks"] and mixed["backend"] == typed["backend"] == "exact"
    assert mixed["inputs"]["q"] == q_echo
    assert mixed["inputs"]["bezout_matrix"] == typed["inputs"]["bezout_matrix"]


def test_analyze_q_above_the_degree_of_p_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--poly", "[1,0,-1]", "--q", "[1,0,0,5]")
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "deg q = 3" in err and "deg p = 2" in err
    assert "matmul" not in err


def test_analyze_q_of_the_degree_of_p_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--poly", "[1,0,-1]", "--q", "[1,0,1]")
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "deg q = 2" in err and "deg p = 2" in err


@pytest.mark.parametrize("poly, q", [("[1,0,-1,0]", "[1,0,1]"),
                                     ("[1.0,0.0,-1.0,0.0]", "[1.0,0.0,1.0]")])
def test_complex_q_fails_separation_and_does_not_blame_p(capsys, poly, q):
    code, out, err = run_cli(capsys, "analyze", "--poly", poly, "--q", q)
    assert (code, err) == (1, "")
    checks = {c["check_id"]: c for c in json.loads(out)["checks"]}
    assert checks["separation-interlacing"]["verdict"] == "fail"
    assert checks["hermite-criterion"]["verdict"] == "pass"
    code, _, err = run_cli(capsys, "energy", "--poly", poly, "--q", q)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("poly", ["[1,0,-2]", "[1,0,-1,0]", '["1/1","-3/1","3/1","-1/1"]'])
def test_exact_analyze_reads_roots_once_and_certifies_one_form(capsys, monkeypatch, poly):
    # p has one square-free factor, so finding its roots once settles it once;
    # a square-free p is its own factor, and the Sturm chain of its gate
    # isolates its roots, so every request builds one chain
    root_calls = count_calls(monkeypatch, roots._factor_roots)
    chains = count_calls(monkeypatch, roots._int_sturm_chain)
    ldl_runs = count_calls(monkeypatch, exactla._integer_psd)
    code, _, _ = run_cli(capsys, "analyze", "--poly", poly)
    assert code == 0
    # one LDL elimination of the form of (p, p'), one of H - c H(p, p') for the bound
    assert (len(root_calls), len(chains), len(ldl_runs)) == (1, 1, 2)


@pytest.mark.parametrize("argv, ldl, bareiss", [
    (("analyze", "--poly", "[1,0,-7,6]"), 2, 0),
    (("analyze", "--poly", "[1,0,-7,6]", "--q", "[3,0,-5]"), 3, 0),
    (("leray", "--poly", "[1,0,-7,6]"), 2, 0),
    # q does not separate p: H(p, q) is indefinite, so its det takes Bareiss
    (("analyze", "--poly", "[1,0,-1]", "--q", "[1,5]"), 2, 1),
    # the hyperbolicity gate reads the Sturm chain of p and eliminates nothing
    (("nuij", "--poly", "[1,0,-7,6]"), 0, 0),
    (("quasi", "--poly", "[1,0,-7,6]"), 0, 0),
])
def test_exact_requests_eliminate_each_matrix_once(capsys, monkeypatch, argv, ldl, bareiss):
    ldl_runs = count_calls(monkeypatch, exactla._integer_psd)
    bareiss_runs = count_calls(monkeypatch, exactla._bareiss_det)
    forms = count_calls(monkeypatch, bezout._bezout_matrix, arity=2)
    code, _, err = run_cli(capsys, *argv)
    assert err == "" and code in (0, 1)
    assert (len(ldl_runs), len(bareiss_runs)) == (ldl, bareiss)
    # analyze builds H(p, p') and H(p, q) for a --q, leray H(p, p') for det S
    assert len(forms) == {"analyze": 1 + ("--q" in argv), "leray": 1}.get(argv[0], 0)


def test_decimal_analyze_computes_no_eigenvalues(capsys, monkeypatch):
    # a decimal p is certified at its exact dyadic value, so every PSD verdict
    # is an LDL certificate
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(M):
        calls.append(M)
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    code, _, err = run_cli(capsys, "analyze", "--poly", "[1.0,0.0,-1.0]")
    assert (code, err) == (0, "")
    assert calls == []


def test_float_separation_reads_the_roots_of_p_and_q_at_one_tol(capsys):
    # p has the roots 1 and 1 + 1e-7, which merge at tol 1e-6 as the root of
    # q = p' between them does; read at 1e-9 beside q's at 1e-6, they failed
    code, out, err = run_cli(capsys, "analyze", "--poly", "[1.0,-2.0000001,1.0000001]",
                             "--tol", "1e-6")
    assert (code, err) == (0, "")
    ids = {c["check_id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert ids["separation-interlacing"] == ids["separation-lower-bound"] == "pass"


@pytest.mark.parametrize("poly", ["[1.0,0.0,-1.25,0.0,0.25]", "[1.0,-2.0,1.0]"])
def test_float_energy_reads_each_root_profile_and_form_once(capsys, monkeypatch, poly):
    # the roots that the hyperbolicity verdict read, and each Bezout form built
    # once, serve propagate, separates, energy_series and the chain bound
    root_calls = count_calls(monkeypatch, roots._float_roots)
    form_calls = count_calls(monkeypatch, bezout._divide_form, arity=2)
    code, _, err = run_cli(capsys, "energy", "--poly", poly)
    assert (code, err) == (0, "")
    assert root_calls and len(root_calls) == len(set(root_calls))
    forms = [tuple(map(tuple, call)) for call in form_calls]
    assert forms and len(forms) == len(set(forms))


def test_energy_rejects_a_nan_T(capsys):
    code, out, err = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--T", "nan")
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "--T" in err


def test_energy_past_the_float_range_prints_only_the_input_error():
    # the step T / steps times the generator overflows: a fresh interpreter,
    # whose warnings nothing captures, prints the one input error line
    proc = subprocess.run([sys.executable, "-m", "bezoutian.cli", "energy", "--poly",
                           "[1.0,-200.0,10000.0]", "--T", "1e308"],
                          capture_output=True, text=True, env=fresh_env(), timeout=300)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "input error: the step matrix leaves the float64 range\n"


def test_energy_rejects_a_zero_T(capsys):
    code, out, err = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--T", "0")
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "--T" in err


@pytest.mark.parametrize("steps", ["1", "2", "3"])
def test_energy_rejects_fewer_than_four_steps(capsys, steps):
    code, out, err = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--steps", steps)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "--steps" in err
    assert "zero-size" not in err
    code, _, _ = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--steps", "4")
    assert code == 0


@pytest.mark.parametrize("poly", ["[1,-1,-1,1]", "[1,-3,0,4]", "[1,-5,8,-4]", "[1,-6,12,-8]",
                                  "[1,0,-2,0,1]"])
def test_exact_energy_with_a_multiple_root_passes_every_check(capsys, poly):
    # energy-nonnegative was gated on separation by the float roots of p's
    # rounding, which split the multiple root into a complex pair (exit 3);
    # exact p and q are decided by their Bezout forms
    code, out, err = run_cli(capsys, "energy", "--poly", poly)
    assert (code, err) == (0, "")
    report = strict_json(out)
    assert report["all_pass"]
    assert "energy-nonnegative" in {c["check_id"] for c in report["checks"]}


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_quasi_rejects_samples_below_one(capsys, samples):
    code, out, err = run_cli(capsys, "quasi", "--poly", "[1,0,0]", "--samples", samples)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "--samples" in err


@pytest.mark.parametrize("argv", [
    ["--samples", "1000000000"],  # 536 GiB of draws, a MemoryError traceback before
    ["--samples", "11112"],  # 100008 pairs over the 9 points of the default grid
    ["--samples", "50001", "--eps-grid", "1:1e-4:2"],
    ["--samples", "101", "--eps-grid", "1:1e-4:1000"],
])
def test_quasi_refuses_more_sample_pairs_than_its_bound(capsys, argv):
    # refused before any sample is drawn; none of these requests allocates
    code, out, err = run_cli(capsys, "quasi", "--poly", "[1,0,0]", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: --samples") and "100000 sample pairs" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, argv", [
    ("nuij", ["--eps-grid", "1:1e-4:1001"]),
    ("nuij", ["--eps-grid", "1:1e-4:1000000000"]),  # no tuple of 10^9 floats is built
    ("quasi", ["--eps-grid", "1:1e-4:1001(lin)", "--samples", "1"]),
])
def test_a_grid_past_its_bound_is_refused_before_it_is_built(capsys, monkeypatch, command, argv):
    built = count_calls(monkeypatch, nuij.default_epsilon_grid)
    code, out, err = run_cli(capsys, command, "--poly", "[1,0,-1]", *argv)
    assert (code, out, built) == (2, "", [])
    assert err.startswith("input error: --eps-grid count must be at most 1000")
    assert err.count("\n") == 1
    code, _, _ = run_cli(capsys, "nuij", "--poly", "[1,-1]", "--eps-grid", "1:1e-4:1000")
    assert code == 0


@pytest.mark.parametrize("poly, steps", [
    ("[1,0,-1]", "3125000"),  # 3125001 * 2 states of 16 bytes: just past 10^8
    ("[1,0,-1]", "1000000000"),
    ("[1,0,0,0,0,0,0,0,-1]", "781250"),  # the same bytes at degree 8
    ("[1,0,1]", "1000000000"),  # before the hyperbolicity gate, which exits 3
])
def test_energy_refuses_a_trajectory_past_its_byte_budget(capsys, monkeypatch, poly, steps):
    # refused before propagate builds any array
    runs = count_calls(monkeypatch, energy.propagate)
    code, out, err = run_cli(capsys, "energy", "--poly", poly, "--steps", steps)
    assert (code, out, runs) == (2, "", [])
    assert err.startswith(f"input error: --steps {steps} at degree") and "100000000 bytes" in err
    assert err.count("\n") == 1


def test_nuij_single_eps_csv(capsys):
    code, out, _ = run_cli(capsys, "nuij", "--poly", "[1,0,0]", "--eps", "0.1",
                           "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,min_gap,gap_floor_constant,pass"
    eps, gap, floor, ok = lines[1].split(",")
    assert float(gap) == pytest.approx(0.2, abs=1e-12)
    assert float(floor) == pytest.approx(1.0)
    assert ok == "True"


def test_nuij_grid_json(capsys):
    code, out, _ = run_cli(capsys, "nuij", "--poly", "[1,0,-1]",
                           "--eps-grid", "1:1e-2:3(log)")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    gap_checks = [c for c in data["checks"] if c["check_id"] == "nuij-gap-law"]
    assert len(gap_checks) == 3


@pytest.mark.parametrize("poly", [
    '["1", "51/2", "867/4", "4913/8"]',                 # (x + 17/2)^3
    '["1", "-28", "292", "-1376", "2816", "-2048"]',    # (x - 2)^2 (x - 8)^3
    '["1", "-177/2", "10443/4", "-205379/8"]',          # (x - 59/2)^3
])
def test_nuij_certifies_the_stages_of_tight_clusters(capsys, poly):
    # the float stage cascade failed nuij-interlacing on the first two and its
    # float root extraction exited 3 on the third
    code, out, _ = run_cli(capsys, "nuij", "--poly", poly)
    assert code == 0
    records = [c for c in json.loads(out)["checks"]
               if c["check_id"] in ("nuij-interlacing", "nuij-strictification")]
    assert len(records) == 18 and all(c["verdict"] == "pass" for c in records)


def test_grid_mode_must_be_log_or_lin(capsys):
    code, out, err = run_cli(capsys, "quasi", "--poly", "[1,0,0]", "--eps-grid", "1:1e-2:3(lgo)")
    assert code == 2 and out == "" and "lgo" in err
    code, out, _ = run_cli(capsys, "nuij", "--poly", "[1,0,0]", "--eps-grid", "1:1e-2:3(lin)")
    assert code == 0
    assert json.loads(out)["inputs"]["grid"] == pytest.approx([1.0, 0.505, 0.01])
    # the last point is stop as typed, not start + step, which rounds to 0.0 here
    code, out, err = run_cli(capsys, "nuij", "--poly", "[1,0,-1]", "--eps-grid", "1:1e-20:2(lin)")
    assert (code, err) == (0, "")
    assert json.loads(out)["inputs"]["grid"] == [1.0, 1e-20]


def test_quasi_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "quasi", "--poly", "[1,0,0]",
                           "--eps-grid", "1:1e-2:3(log)", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,min_eig_over_eps2r,commutator_const,cond1,cond2"
    assert len(lines) == 4


def test_quasi_json_pass(capsys):
    code, out, _ = run_cli(capsys, "quasi", "--poly", "[1,0,0]",
                           "--eps-grid", "1:1e-3:4(log)")
    assert code == 0
    data = json.loads(out)
    assert data["inputs"]["r"] == 1
    assert data["all_pass"] is True



@pytest.mark.parametrize("poly", ["[1,0,0,0]", "[1,0,-1,0]"])
def test_quasi_one_sided_bounds_pass(capsys, poly):
    # x^3: the lower constant rises as eps shrinks; x^3 - x: the commutator
    # constant falls.  Neither breaks a bound with one C for every eps.
    checks = {}
    for grid in ("1:1e-4:9(log)", "1e-4:1:9(log)"):
        code, out, _ = run_cli(capsys, "quasi", "--poly", poly, "--eps-grid", grid)
        assert code == 0
        data = json.loads(out)
        assert data["all_pass"] is True
        checks[grid] = {c["check_id"]: c["verdict"] for c in data["checks"]}
    assert checks["1:1e-4:9(log)"] == checks["1e-4:1:9(log)"]


@pytest.mark.parametrize("poly, flag, failing", [
    ("[1,0,0,0]", ("--r", "1"), "quasi-lower-bound"),
    ("[1,0,0]", ("--s", "2"), "quasi-commutator"),
])
def test_quasi_too_strong_bound_fails(capsys, poly, flag, failing):
    code, out, _ = run_cli(capsys, "quasi", "--poly", poly, *flag)
    assert code == 1
    ids = {c["check_id"]: c for c in json.loads(out)["checks"]}
    assert ids[failing]["verdict"] == "fail"
    assert ids[failing]["witness"] >= ids[failing]["tolerance"] == 10.0
    assert ids["quasi-commutator-sampling"]["verdict"] == "pass"

def test_leray_checks(capsys):
    code, out, _ = run_cli(capsys, "leray", "--poly", "[1,0,-1]")
    assert code == 0
    data = json.loads(out)
    ids = {c["check_id"]: c for c in data["checks"]}
    assert ids["leray-determinant"]["witness"] == pytest.approx(4.0)
    assert "leray-bezout-m2" in ids


def test_energy_conservation_and_csv(capsys):
    code, out, _ = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--U0", "1,1",
                           "--T", "10", "--output", "both")
    assert code == 0
    split = out.find("t,value")
    data = json.loads(out[:split])
    csv_part = out[split:]
    cons = next(c for c in data["checks"] if c["check_id"] == "energy-conservation")
    assert cons["verdict"] == "pass"
    lines = csv_part.strip().splitlines()
    assert lines[0] == "t,value"
    assert float(lines[1].split(",")[1]) == pytest.approx(4.0)


def test_seed_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "quasi", "--poly", "[1,0,0]",
                             "--eps-grid", "1:1e-2:3(log)", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "quasi", "--poly", "[1,0,0]",
                             "--eps-grid", "1:1e-2:3(log)", "--seed", "5")
    assert (code1, out1) == (code2, out2)


def test_energy_refuses_a_negative_seed_as_numpy_did(capsys):
    # the test frequencies are numpy's default_rng(seed).uniform(-3, 3, 3),
    # drawn without numpy.random, and a negative seed keeps numpy's message
    code, out, err = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--seed", "-1")
    assert (code, out, err) == (2, "", "input error: expected non-negative integer\n")


def test_poly_file_input(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text('{"coeffs": ["1/1", "0/1", "-1/1"]}')
    code, out, _ = run_cli(capsys, "analyze", "--poly-file", str(path))
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports bezoutian from src."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def fresh_cli(argv, **extra_env) -> tuple:
    # bytes, not text: the csv rows end in CRLF, which text mode would translate
    proc = subprocess.run([sys.executable, "-m", "bezoutian.cli", *argv],
                          capture_output=True, env=fresh_env() | extra_env)
    return proc.returncode, proc.stdout.decode()


def test_parser_built_once_gives_the_output_of_fresh_processes(capsys):
    first = ["quasi", "--poly", "[1,0,0]", "--eps-grid", "1:1e-2:3(log)", "--seed", "11",
             "--output", "both"]
    second = ["analyze", "--poly", "[1,0,-1]", "--q", "[2,0]", "--tol", "1e-6"]
    want = [fresh_cli(first), fresh_cli(second)]
    got = [run_cli(capsys, *first)[:2], run_cli(capsys, *second)[:2]]
    assert got == want
    assert json.loads(want[1][1])["seed"] == 0 and '"seed": 11' in want[0][1]
    assert build_parser() is build_parser()


def test_the_seed_comes_from_the_flag_only():
    code, out = fresh_cli(["quasi", "--poly", "[1,0,0]", "--eps-grid", "1:1e-2:3(log)",
                           "--seed", "5"], SYMM_SEED="11")
    assert code == 0 and json.loads(out)["seed"] == 5


@pytest.mark.parametrize("argv", [["analyze", "--tol", "abc"], ["nosuch"], [],
                                  ["quasi", "--poly", "[1,0]", "--output", "xml"]])
def test_bad_arguments_exit_2_and_leave_the_parser_usable(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "analyze", "--poly", "[1,0,-1]")
    assert code == 0 and json.loads(out)["all_pass"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bezoutian.cli", "analyze", "--poly", "[1,0,-1]"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_pass"] is True


@pytest.mark.parametrize("exact", [True, False])
def test_leray_strict_degree_10_does_not_overflow(capsys, exact):
    # det B = (det S)^9 is about 5.6e382 for the roots 1..10, past the float range;
    # the decimal input is certified at its exact value, like the fraction input
    p = Polynomial.from_roots(list(range(1, 11)))
    coeffs = [f"{c.numerator}/{c.denominator}" if exact else float(c) for c in p.coeffs]
    code, out, _ = run_cli(capsys, "leray", "--poly", json.dumps(coeffs))
    assert code == 0
    report = CertifiedReport.from_json(out)
    assert report.to_json() == out
    assert report.backend == "exact" and report.all_pass
    law = next(c for c in report.checks if c.check_id == "leray-adjugate-determinant")
    assert isinstance(law.witness, str)
    assert law.verdict == "pass"
    assert law.witness.startswith("5.56116") and law.witness.endswith("e+382")
    assert {c.check_id for c in report.checks} >= {"leray-determinant",
                                                    "leray-bezout-relation"}


def test_leray_on_a_discriminant_past_the_float_range(capsys):
    # det S = disc p is about 1.6e312 for the roots 1..21; both are exact, and
    # the witness of leray-determinant turns into a decimal string
    p = Polynomial.from_roots(list(range(1, 22)))
    code, out, err = run_cli(capsys, "leray", "--poly", json.dumps([int(c) for c in p.coeffs]))
    assert (code, err) == (0, "")
    report = CertifiedReport.from_json(out)
    assert report.all_pass and all(c.verdict == "pass" for c in report.checks)
    det_check = next(c for c in report.checks if c.check_id == "leray-determinant")
    assert det_check.witness.startswith("1.62414") and det_check.witness.endswith("e+312")


@pytest.mark.parametrize("argv", [
    ("analyze", "--poly", "[1,-3,0,4]"),   # (x - 2)^2 (x + 1)
    ("leray", "--poly", "[1,-6,11,-6]"),   # (x - 1)(x - 2)(x - 3)
])
def test_exact_requests_eliminate_no_form_twice_and_convert_none(capsys, monkeypatch, argv):
    # det H, det S and det B come from the LDL verdicts and the Faddeev run,
    # and the forms are integer matrices from the start
    bareiss = count_calls(monkeypatch, exactla._bareiss_det)
    cleared = count_calls(monkeypatch, exactla._integer_matrix)
    dets = count_calls(monkeypatch, exactla.det)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert dets and (len(bareiss), len(cleared)) == (0, 0)


def fraction_argv(p: Polynomial) -> str:
    return json.dumps([f"{c.numerator}/{c.denominator}" for c in p.coeffs])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-16, 16), st.sampled_from([1, 2, 4, 8])),
                min_size=1, max_size=6))
def test_decimal_leray_reports_equal_those_of_their_exact_values(root_values):
    # a decimal coefficient is an exact dyadic rational; leray certifies that value
    p = Polynomial.from_roots(root_values)
    decimal = json.dumps([float(c) for c in p.coeffs])
    assert Polynomial.from_coeff_list(json.loads(decimal)).as_exact() == p
    runs = []
    for argv in (decimal, fraction_argv(p)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["leray", "--poly", argv])
        runs.append((code, out.getvalue()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and json.loads(runs[0][1])["backend"] == "exact"


def analyze_report(poly: str) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--poly", poly])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


# roots of size 2^-51 next to roots up to 16 give coefficients that need all
# 53 bits, so the float derivative's k * c rounds and the float roots are
# not the exact ones
ROOTS = st.one_of(st.builds(Fraction, st.integers(-16, 16), st.sampled_from([1, 2, 4, 8])),
                  st.builds(Fraction, st.integers(-4, 4), st.sampled_from([2**50, 2**51])))


@settings(max_examples=60, deadline=None)
@given(st.lists(ROOTS, min_size=1, max_size=6))
def test_decimal_analyze_reports_equal_those_of_their_exact_values(root_values):
    # analyze certifies a decimal p at its exact dyadic value; only the echo
    # of p and of its float derivative q keeps the decimals as typed
    floats = [float(c) for c in Polynomial.from_roots(root_values).coeffs]
    typed = Polynomial.from_coeff_list(floats)
    decimal = json.dumps(floats)
    (code, report), (exact_code, exact_report) = map(
        analyze_report, (decimal, fraction_argv(typed.as_exact())))
    assert code == exact_code
    if report is None:
        assert exact_report is None
        return
    assert report["inputs"].pop("poly") == floats
    assert report["inputs"].pop("q") == [float(c) for c in typed.derivative().coeffs]
    exact_report["inputs"].pop("poly")
    exact_report["inputs"].pop("q")
    assert report == exact_report and report["backend"] == "exact"


@pytest.mark.parametrize("root_values", [
    [1, 1, 1, 1],     # (x - 1)^4: the float route exited 3 on a split root cluster
    [1, 1, 1, 2, 2],  # (x - 1)^3 (x - 2)^2: exited 3 the same way
    [2, 2, 3],        # (x - 2)^2 (x - 3): exited 1, failing separation-interlacing
    # x (x - 2^-51)(x - 1)^2: the float derivative rounds 3 * (2 + 2^-51), so
    # q(1) != 0 and a float-derivative q failed separation-interlacing
    [0, Fraction(1, 2**51), 1, 1],
])
def test_decimal_analyze_certifies_multiple_roots(capsys, root_values):
    decimal = json.dumps([float(c) for c in Polynomial.from_roots(root_values).coeffs])
    code, out, err = run_cli(capsys, "analyze", "--poly", decimal)
    assert (code, err) == (0, "")
    report = strict_json(out)
    assert report["all_pass"] and report["backend"] == "exact"
    assert report["inputs"]["poly"] == json.loads(decimal)


@pytest.mark.parametrize("command", ["nuij", "quasi"])
@pytest.mark.parametrize("root_values", [
    [1, 1, 1],                # (x - 1)^3: both exited 3 on a split root cluster
    [1, 1, -2],               # (x - 1)^2 (x + 2): quasi exited 1
    [Fraction(1, 2), 3],
    [0, 0, Fraction(-3, 4), 2, 2],
])
def test_decimal_nuij_and_quasi_reports_equal_those_of_their_exact_values(
        capsys, command, root_values):
    # nuij and quasi certify a decimal p at its exact dyadic value and echo it as typed
    p = Polynomial.from_roots(root_values)
    floats = [float(c) for c in p.coeffs]
    runs = [run_cli(capsys, command, "--poly", poly)
            for poly in (json.dumps(floats), fraction_argv(p))]
    (code, out, err), (exact_code, exact_out, exact_err) = runs
    assert (code, err) == (exact_code, exact_err) == (0, "")
    report, exact_report = json.loads(out), json.loads(exact_out)
    assert report["inputs"].pop("poly") == floats
    exact_report["inputs"].pop("poly")
    assert report == exact_report and report["backend"] == "exact"


def test_analyze_reports_determinants_past_the_float_range(capsys):
    # 24 distinct rationals 13k/6: disc p is about 8.1e623, and float(disc)
    # raised OverflowError out of main; the roots come back exact from their
    # Sturm brackets
    p = Polynomial.from_roots([Fraction(13 * k, 6) for k in range(-12, 12)])
    code, out, err = run_cli(capsys, "analyze", "--poly", fraction_argv(p))
    assert (code, err) == (0, "")
    checks = {c["check_id"]: c for c in strict_json(out)["checks"]}
    for check_id in ("discriminant-product", "resultant-sign"):
        assert checks[check_id]["verdict"] == "pass"
        assert checks[check_id]["witness"] == "8.148459218e+623"


def test_exact_rational_roots_skip_the_float_residual_check(capsys):
    # (x - 10^11)(x - 1)^28: the float residual bound (10^11)^29 raised
    # OverflowError out of main, although both roots are found exactly
    p = Polynomial.from_roots([10**11] + [1] * 28)
    code, out, err = run_cli(capsys, "analyze", "--poly", fraction_argv(p))
    assert (code, err) == (0, "")
    assert strict_json(out)["all_pass"]


def test_leray_reads_no_root(capsys, monkeypatch):
    calls = count_calls(monkeypatch, roots._factor_roots)
    for poly in ("[1,0,-1]", "[1,0,-2]", "[1,-3,3,-1]", "[1.0,-4.0,6.0,-4.0,1.0]"):
        code, _, _ = run_cli(capsys, "leray", "--poly", poly)
        assert code == 0
    assert calls == []
    run_cli(capsys, "analyze", "--poly", "[1,0,-2]")
    assert calls  # the counter sees the calls analyze makes


@pytest.mark.parametrize("poly", [
    Polynomial.exact([1, -2, 1 - Fraction(1, 10**40)]),  # roots 1 +- 1e-20
    Polynomial([1.0, -4.0, 6.0, -4.0, 1.0], BACKEND_FLOAT),     # (x - 1)^4 as decimals
])
def test_leray_certifies_inputs_its_roots_could_not(capsys, poly):
    argv = fraction_argv(poly) if poly.backend == "exact" else json.dumps(list(poly.coeffs))
    code, out, err = run_cli(capsys, "leray", "--poly", argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["all_pass"] and report["backend"] == "exact"


@pytest.mark.parametrize("argv", [
    ["nuij", "--poly", "[1,0,-1]", "--eps", "1e300"],
    ["quasi", "--poly", "[1,0,-1]", "--eps-grid", "1e200:1e200:1"],
    ["nuij", "--poly", "[1,0,-1,0]", "--eps", "1.3e154"],  # p_eps has an inf coefficient
    ["quasi", "--poly", "[1,-3,3,-1]", "--eps-grid", "1e100:1e100:1"],  # eps**(2r) overflows
    ["quasi", "--poly", "[1,0,-1]", "--eps-grid", "1e100:1e100:1", "--s", "4"],
    ["quasi", "--poly", "[1,0,-1]", "--eps-grid", "1e-200:1e-200:1", "--r", "2"],  # underflow
])
def test_smoothing_family_past_the_float_range_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "float64 range" in err


@pytest.mark.parametrize("command, message", [
    ("analyze", "a coefficient leaves the float64 range"),
    ("energy", "a coefficient leaves the float64 range"),
    ("nuij", "smoothing family at eps=1.0 leaves the float64 range"),
    ("quasi", "smoothing family at eps=1.0 leaves the float64 range"),
])
def test_an_exact_root_past_the_float_range_is_an_input_error(capsys, command, message):
    # energy reads the float rounding of x - 10^400, and both raised
    # OverflowError out of main.  analyze holds that rational root exactly
    # (test_analyze_certifies_a_rational_root_past_the_float_range), so its
    # row takes x^2 - 2 10^800, whose irrational roots no float holds
    poly = [1, 0, str(-2 * 10**800)] if command == "analyze" else [1, str(-10**400)]
    code, out, err = run_cli(capsys, command, "--poly", json.dumps(poly))
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_analyze_certifies_a_rational_root_past_the_float_range(capsys):
    # x - 10^400: a degree-1 factor gives its root as a Fraction, which no
    # check rounds to a float
    code, out, err = run_cli(capsys, "analyze", "--poly", json.dumps([1, str(-10**400)]))
    assert (code, err) == (0, "")
    assert strict_json(out)["all_pass"]


def test_irrational_roots_at_the_top_of_the_float_range_keep_the_residual_check(capsys):
    # +-sqrt(3) 10^308 are floats, but the coefficient 3 10^616 is not: the
    # exact range test on the coefficients, which replaced the residual
    # check on exact input, names the float64 range, where reading the
    # roots with neither failed on a NaN
    code, out, err = run_cli(capsys, "analyze", "--poly", json.dumps([1, 0, str(-3 * 10**616)]))
    assert (code, out) == (2, "")
    assert err == "input error: a coefficient leaves the float64 range\n"


@pytest.mark.parametrize("poly", [
    json.dumps([1, str(-2**1023), -1]),  # roots next to 2^1023 and -2^-1023
    "[1,1e300,-1]",  # roots about -1e300 and 1e-300, certified at the exact dyadic p
], ids=["exact", "decimal"])
def test_analyze_certifies_irrational_roots_at_the_top_of_the_float_range(capsys, poly):
    # the Sturm brackets certify both roots, where the float residual bound
    # overflowed (exit 2); no inf or NaN reaches numpy either
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the request
        code, out, err = run_cli(capsys, "analyze", "--poly", poly)
    assert (code, err) == (0, "")
    assert strict_json(out)["all_pass"]


def test_analyze_on_a_highly_composite_quadratic_takes_bounded_time(capsys):
    # x^2 + x/963761198400 - 1: 6720 divisors at both cleared ends, every
    # divisor pair of which the rational-root search tried (6 s of CPU)
    start = time.process_time()
    code, out, err = run_cli(capsys, "analyze", "--poly", '["1/1","1/963761198400","-1/1"]')
    assert (code, err) == (0, "")
    assert strict_json(out)["all_pass"]
    assert time.process_time() - start < 2.0


def test_analyze_refuses_an_unprintable_echo_before_it_certifies(capsys):
    # (x - 1)(x - 10^4000): the Bezout form's entries have more digits than
    # Python prints, so the echo fails, before the root search (2.4 s of CPU)
    poly = json.dumps([1, -(10 ** 4000 + 1), 10 ** 4000])
    start = time.process_time()
    code, out, err = run_cli(capsys, "analyze", "--poly", poly)
    assert time.process_time() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("input error: Exceeds the limit (4300 digits)"), err


def test_analyze_certifies_roots_one_ulp_apart(capsys):
    # 1 +- 10^-20 round to one float, which made the root profile an input
    # error (exit 2); as Fractions the roots stay distinct
    p = Polynomial.exact([1, -2, 1 - Fraction(1, 10**40)])
    code, out, err = run_cli(capsys, "analyze", "--poly", fraction_argv(p))
    assert (code, err) == (0, "")
    assert strict_json(out)["all_pass"]
    assert roots.real_roots(p).distinct_roots == (1 - Fraction(1, 10**20),
                                                  1 + Fraction(1, 10**20))
    assert all(type(r) is Fraction for r in roots.real_roots(p).distinct_roots)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "exit 2: the irrational pair 1 +- sqrt(2) 10^-20 rounds to one float, and a RootProfile "
    "holds floats; ROADMAP item 2, floats in RootProfile"))
def test_analyze_certifies_irrational_roots_one_ulp_apart(capsys):
    p = Polynomial.exact([1, -2, 1 - Fraction(2, 10**40)])
    code, out, err = run_cli(capsys, "analyze", "--poly", fraction_argv(p))
    assert (code, err) == (0, ""), (code, err)
    assert strict_json(out)["all_pass"]


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())


@pytest.mark.parametrize("name, check_id", [
    ("analyze_d11_quadratic", "separation-lower-bound"),
    ("analyze_d12_multiple_quadratic", "separation-lower-bound"),
    ("leray_d11_strict", "leray-bezout-relation"),
    ("nuij_d8_two_triples", "nuij-inversion"),
])
def test_root_free_and_rescaled_checks_pass_where_they_failed(capsys, name, check_id):
    # irrational roots (x^2 - k factors), a degree-11 strict leray input and
    # a p_eps with coefficients 2e4 times those of p used to exit 1 here
    code, out, _ = run_cli(capsys, *GOLDEN_CASES[name]["argv"])
    assert code == 0
    records = [c for c in json.loads(out)["checks"] if c["check_id"] == check_id]
    assert records and all(c["verdict"] == "pass" for c in records)


def eps_transformed(calls) -> list:
    """The eps of each logged ``nuij_transform(p, eps)`` call, one eps or a grid, in call order."""
    return [eps for _, grid in calls for eps in np.atleast_1d(grid).tolist()]


def test_quasi_builds_one_family_point_per_eps(capsys, monkeypatch):
    # check_conditions and verify_quasi share the points, and the default r
    # of exact p comes from its Yun decomposition, not from its roots
    polished = count_calls(monkeypatch, roots._polish_roots)
    transforms = count_calls(monkeypatch, nuij.nuij_transform, arity=2)
    code, out, _ = run_cli(capsys, "quasi", "--poly", "[1,0,0]")
    assert code == 0
    grid = json.loads(out)["inputs"]["grid"]
    assert eps_transformed(transforms) == grid
    assert len(polished) == len(grid)


def test_nuij_finds_every_family_root_in_one_eigensolver_call(capsys, monkeypatch):
    # the nine companion matrices of the default grid's p_eps go to LAPACK as
    # one stack, not one call each
    shapes = []
    eigvals = np.linalg.eigvals

    def counted(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    code, _, err = run_cli(capsys, "nuij", "--poly", "[1,0,0,0]")
    assert (code, err) == (0, "")
    assert shapes == [(9, 3, 3)]


@pytest.mark.parametrize("tol", [[], ["--tol", "1e-6"]])
def test_analyze_finds_the_float_roots_of_p_once_at_any_tol(capsys, monkeypatch, tol):
    # the irrational roots of (x^2 - 2)^2 (x^2 - 3) serve every tol: p keeps
    # its exact root profile, so each square-free factor is settled once, and
    # only the thresholds that read the roots change
    calls = count_calls(monkeypatch, roots._factor_roots)
    code, _, err = run_cli(capsys, "analyze", "--poly", "[1,0,-7,0,16,0,-12]", *tol)
    assert (code, err) == (0, "")
    assert sorted(f.coeffs for f in calls) == [(1, 0, -3), (1, 0, -2)]


def test_nuij_transforms_p_once_per_eps(capsys, monkeypatch):
    # the family point's p_eps serves the inversion check, and certify_stages
    # runs its stages on integer lists
    p = Polynomial.exact([1, -3, 3, -1])
    calls = count_calls(monkeypatch, nuij.nuij_transform, arity=2)
    code, out, _ = run_cli(capsys, "nuij", "--poly", fraction_argv(p))
    assert code == 0
    assert {q for q, _ in calls} == {p}
    assert eps_transformed(calls) == json.loads(out)["inputs"]["grid"]


def test_nuij_transforms_and_inverts_the_grid_in_one_call_each(capsys, monkeypatch):
    transforms = count_calls(monkeypatch, nuij.nuij_transform, arity=2)
    inversions = count_calls(monkeypatch, nuij.invert_transform, arity=2)
    code, out, _ = run_cli(capsys, "nuij", "--poly", "[1,0,-1]")
    assert code == 0
    grid = json.loads(out)["inputs"]["grid"]
    assert [len(calls) for calls in (transforms, inversions)] == [1, 1]
    assert list(transforms[0][1]) == list(inversions[0][1]) == grid
    assert [q.coeffs for q in inversions[0][0]] == \
        [nuij.nuij_transform(Polynomial([1.0, 0.0, -1.0], BACKEND_FLOAT), eps).coeffs
         for eps in grid]


@pytest.mark.parametrize("ints, stage_chains", [
    ([1, -3, 3, -1], 0),
    ([1.0, -6.0, 11.0, -6.0], 0),
    ([1, 4, 1, -10, -4, 8, 0, 0, 0], 0),  # x^3 (x - 1)^2 (x + 2)^3
    # x^8: stages 1-6 keep a repeated root at 0, so stages 2, 4 and 6 run
    # their chains, whose Cauchy indices certify stages 3, 5 and 7
    ([1, 0, 0, 0, 0, 0, 0, 0, 0], 3),
])
def test_nuij_runs_the_sturm_chain_of_p_once(capsys, monkeypatch, ints, stage_chains):
    # stage 0 is p at every eps, and p keeps its chain; a later stage with
    # distinct roots is certified by sign changes at points from float roots,
    # and one with a repeated root runs its own chain
    chains = count_calls(monkeypatch, roots._int_sturm_chain)
    code, out, _ = run_cli(capsys, "nuij", "--poly", json.dumps(ints))
    assert code == 0
    assert len(chains) == 1 + stage_chains * len(json.loads(out)["inputs"]["grid"])
    assert [list(chain) for chain in chains].count(ints) == 1


def test_quasi_default_r_reads_no_root_of_exact_p(capsys):
    # roots 1 +- 1e-20 meet in float64; the Yun decomposition still says r = 0
    p = Polynomial.exact([1, -2, 1 - Fraction(1, 10**40)])
    code, out, err = run_cli(capsys, "quasi", "--poly", fraction_argv(p))
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["inputs"]["r"] == 0
    failing = {c["check_id"] for c in report["checks"] if c["verdict"] != "pass"}
    assert failing == {"quasi-lower-bound"}


MODULE_PROBE = """
import contextlib, io, json, sys
from bezoutian.cli import main

def loaded():
    return ["numpy" in sys.modules, "numpy.random" in sys.modules, "scipy" in sys.modules]

def run(*argvs):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    return loaded()

states = [loaded()]
states.append(run(["analyze", "--poly", "[1,-3,0,4]"], ["leray", "--poly", "[1,-3,0,4]"],
                  ["leray", "--poly", "[1,-2,1]"], ["analyze", "--poly", "[1.0,-3.0,0.0,4.0]"],
                  ["analyze", "--poly", "[1,-1,-2,2]"],
                  ["analyze", "--poly", "[1.0,-1.0,-2.0,2.0]"]))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["energy", "--poly", "[1.0,-2.0,1.0]"])
states.append(loaded())
states.append(run(["nuij", "--poly", "[1,-3,0,4]"]))
states.append(run(["quasi", "--poly", "[1,-3,0,4]"]))
print(json.dumps([states, code, out.getvalue()]))
"""


def test_no_subcommand_loads_scipy(capsys):
    # this process may have imported numpy and scipy already, so only a fresh
    # interpreter shows what importing the CLI and running its subcommands loads
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE], capture_output=True,
                          text=True, env=fresh_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    states, code, out = json.loads(proc.stdout)
    # ["numpy", "numpy.random", "scipy" loaded]: after the import; after the
    # exact analyze and leray requests on (x-2)^2 (x+1), leray on (x-1)^2
    # (m = 2), the decimal analyze request on (x-2)^2 (x+1), certified at its
    # exact value, and exact and decimal analyze on (x^2-2)(x-1), whose
    # irrational roots come from Sturm brackets; after the energy request on
    # the double root of (x-1)^2, whose step matrix goes through
    # energy._expm and whose test frequencies come from energy._uniform_draws;
    # after nuij, and after quasi, which samples through numpy.random, on
    # (x-2)^2 (x+1)
    assert states == [[False, False, False], [False, False, False], [True, False, False],
                      [True, False, False], [True, True, False]]
    assert (code, out) == run_cli(capsys, "energy", "--poly", "[1.0,-2.0,1.0]")[:2]


def strict_json(out: str):
    """The report on stdout, refusing NaN and Infinity; None when stdout is empty."""
    def refuse(name):
        raise ValueError(f"non-finite number {name} in the report")

    return json.loads(out, parse_constant=refuse) if out else None


def test_quasi_on_a_family_point_with_merged_roots_exits_2(capsys):
    # at eps = 1e-16 the float roots of x^2 + 2 eps x merge and p_eps' vanishes at them
    code, out, err = run_cli(capsys, "quasi", "--poly", "[1,0,0]", "--eps-grid", "1:1e-16:3")
    assert (code, strict_json(out)) == (2, None)
    assert err.startswith("input error:") and "merged roots" in err


@pytest.mark.parametrize("command", ["nuij", "quasi"])
def test_a_family_point_with_complex_float_roots_is_named(capsys, command):
    # (x + 228)^3 passes the exact hyperbolicity gate, but the float64
    # rounding of p_eps at the last default eps has complex roots: an input
    # error that names the family point, not a failed hyperbolicity gate
    code, out, err = run_cli(capsys, command, "--poly", "[1,684,155952,11852352]")
    assert (code, out) == (2, "")
    eps = nuij.default_epsilon_grid()[-1]
    assert err == f"input error: smoothing family at eps={eps} has complex roots in float64\n"


@pytest.mark.parametrize("command", ["analyze", "leray"])
def test_csv_of_a_command_with_no_table_lists_the_checks_of_its_report(capsys, command):
    code, out, _ = run_cli(capsys, command, "--poly", "[1,0,-1]")
    checks = strict_json(out)["checks"]
    code_csv, out_csv, _ = run_cli(capsys, command, "--poly", "[1,0,-1]", "--output", "csv")
    assert code == code_csv == 0
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0] == ["name", "check_id", "witness", "verdict", "tolerance"]
    assert [row[:2] + row[3:4] for row in rows[1:]] == \
        [[c["name"], c["check_id"], c["verdict"]] for c in checks]
    assert [row[4] for row in rows[1:]] == [str(c.get("tolerance", "")) for c in checks]


def test_quasi_where_eps_s_times_the_derivative_underflows_exits_2(capsys):
    # at eps = 1e-125, eps * |p_eps'(root)| of x^3 underflows to 0.0 though
    # neither factor is 0, and the perturbation ratio divided by it
    code, out, err = run_cli(capsys, "quasi", "--poly", "[1,0,0,0]", "--eps-grid",
                             "1e-100:1e-150:3")
    assert (code, strict_json(out)) == (2, None)
    assert err.startswith("input error:") and "float64 range" in err and err.count("\n") == 1


def test_quasi_writes_an_infinite_constant_as_a_string(capsys):
    # a lower constant of 0 makes lower_decay infinite, which JSON cannot hold
    code, out, err = run_cli(capsys, "quasi", "--poly", "[1,0,0,0]", "--eps-grid",
                             "1e-60:1e-80:3")
    assert (code, err) == (1, "")
    checks = {c["check_id"]: c for c in strict_json(out)["checks"]}
    assert checks["quasi-lower-bound"]["witness"] == "inf"


def test_report_writes_a_non_finite_witness_as_a_string():
    rep = CertifiedReport(command="x")
    for value in (math.inf, -math.inf, math.nan, np.float64(math.inf)):
        rep.add("a", "id-a", value, "fail")
    assert [c["witness"] for c in strict_json(rep.to_json())["checks"]] == \
        ["inf", "-inf", "nan", "inf"]


@pytest.mark.parametrize("flag", ["--r", "--s"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_quasi_rejects_a_non_finite_exponent(capsys, flag, value):
    code, out, err = run_cli(capsys, "quasi", "--poly", "[1,0,-1]", flag, value)
    assert (code, strict_json(out)) == (2, None)
    assert err.startswith("input error:") and flag in err


@pytest.mark.parametrize("U0", ["nan,1", "inf,1", "1,-inf", "1+nanj,1"])
def test_energy_rejects_a_non_finite_U0(capsys, U0):
    code, out, err = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--U0", U0)
    assert (code, strict_json(out)) == (2, None)
    assert err.startswith("input error:") and "--U0" in err


@pytest.mark.parametrize("argv", [
    ["energy", "--poly", "[1,1e200,-1]"],
    ["nuij", "--poly", "[1,1e200,-1]"],
])
def test_a_float_form_past_the_float_range_exits_2_without_a_warning(capsys, argv):
    # the float form of (p, p') has inf and NaN entries, which used to reach
    # numpy; both commands decide the exact p by its Sturm chain, and then the
    # float root -1e200 (energy's of p, nuij's of the family point at eps = 1)
    # has a residual bound past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the request
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "input error: the residual bound at root -1e+200 leaves the float64 range\n"


def test_energy_series_past_the_float_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--U0", "1e308,1e308")
    assert (code, strict_json(out)) == (2, None)
    assert err.startswith("input error:") and "energy series" in err


@pytest.mark.parametrize("command, argv, option", [
    ("nuij", ["--eps", "nan"], "--eps"),
    ("nuij", ["--eps", "inf"], "--eps"),
    ("nuij", ["--eps-grid", "nan:1e-4:3"], "--eps-grid"),
    ("quasi", ["--eps-grid", "1:inf:3"], "--eps-grid"),
    ("quasi", ["--eps-grid", "1:nan:2(lin)"], "--eps-grid"),
])
def test_a_non_finite_eps_names_its_option(capsys, command, argv, option):
    code, out, err = run_cli(capsys, command, "--poly", "[1,0,-1]", *argv)
    assert (code, strict_json(out)) == (2, None)
    assert err.startswith("input error:") and option in err


def test_nuij_accepts_degree_one(capsys):
    code, out, err = run_cli(capsys, "nuij", "--poly", "[1,-1]")
    assert (code, err) == (0, "")
    report = strict_json(out)
    assert report["all_pass"] is True
    gaps = [c for c in report["checks"] if c["check_id"] == "nuij-gap-law"]
    assert len(gaps) == 9 and all(c["witness"] == "single root" for c in gaps)


def bench_layers_input(m: int) -> Polynomial:
    """The monic p with the m rational roots of ``tools/bench_layers.exact_input``."""
    from test_bench_layers import load_tool

    return Polynomial.from_roots(load_tool().exact_input(m))


WILKINSON_15 = Polynomial.from_roots(range(1, 16))
WILKINSON_24 = Polynomial.from_roots(range(1, 25))


def standing(reason: str):
    """A defect on hyperbolic input: the request should exit 0 and does not yet."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.mark.parametrize("command, poly", [
    pytest.param("nuij", "bench_layers_16", id="nuij-bench-layers-16", marks=standing(
        "exit 1: nuij-inversion at eps = 1 inverts the float p_eps (witness 1.58e8); "
        "ROADMAP item 7, exact nuij-inversion")),
    # 15! and 24! have too many divisors for a divisor-pair search: the roots
    # come from Sturm brackets
    pytest.param("analyze", WILKINSON_15, id="analyze-wilkinson-15"),
    pytest.param("analyze", WILKINSON_24, id="analyze-wilkinson-24"),
    pytest.param("nuij", WILKINSON_24, id="nuij-wilkinson-24", marks=standing(
        "exit 2: the float family point has complex roots; ROADMAP item 3, family points "
        "from the exact p_eps")),
    # x^2 + 10^308 x + 10^308: p and p' overflow at the root near -10^308, and
    # its Lagrange weight was inf / inf = NaN (exit 2)
    pytest.param("analyze", "[1,1e308,1e308]", id="analyze-weight-past-the-float-range"),
])
def test_standing_defects_exit_zero(capsys, command, poly):
    p = bench_layers_input(16) if poly == "bench_layers_16" else poly
    argv = p if isinstance(p, str) else fraction_argv(p)
    code, out, err = run_cli(capsys, command, "--poly", argv)
    assert (code, err) == (0, ""), (code, err)
    assert strict_json(out)["all_pass"] is True


def one_root_failure(command: str, root: str, k: int):
    """The mark of a request on (x - root)^k that fails today, or None."""
    if k >= 5:
        reason = ("exit 2: the float family point has complex roots; ROADMAP item 3, "
                  "family points from the exact p_eps")
    elif root == "1":
        check = "nuij-gap-law" if command == "nuij" else "quasi-lower-bound"
        reason = f"exit 1: {check} fails; ROADMAP item 3, family points from the exact p_eps"
    else:
        return None
    return standing(reason)


@pytest.mark.parametrize("command, root, k", [
    pytest.param(command, root, k, id=f"{command}-{root}-{k}",
                 marks=[mark] if (mark := one_root_failure(command, root, k)) else [])
    for command in ("nuij", "quasi") for root in ("1", "1/3") for k in range(4, 9)])
def test_one_root_of_multiplicity_four_to_eight(capsys, command, root, k):
    p = Polynomial.from_roots([Fraction(root)] * k)
    code, out, err = run_cli(capsys, command, "--poly", fraction_argv(p))
    assert (code, err) == (0, ""), (code, err)
    assert strict_json(out)["all_pass"] is True
