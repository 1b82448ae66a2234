"""CertifiedReport round-trips and the command-line front end."""

import json
import subprocess
import sys

import pytest

from bezoutian import Polynomial
from bezoutian.cli import main
from bezoutian.report import CertifiedReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_analyze_non_hyperbolic_exits_3(capsys):
    code, out, err = run_cli(capsys, "analyze", "--poly", "[1,0,1]")
    assert code == 3
    assert "hyperbolicity" in err


def test_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--poly", "bad[")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--poly", "[]")
    assert code == 2


def test_wrong_degree_q_exits_2(capsys):
    code, _, err = run_cli(capsys, "energy", "--poly", "[1,0,-1]", "--q", "[1,0,0,0]")
    assert code == 2


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


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("SYMM_SEED", "11")
    code, out, _ = run_cli(capsys, "quasi", "--poly", "[1,0,0]",
                           "--eps-grid", "1:1e-2:3(log)", "--seed", "5")
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_poly_file_input(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text('{"coeffs": ["1/1", "0/1", "-1/1"]}')
    code, out, _ = run_cli(capsys, "analyze", "--poly-file", str(path))
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bezoutian.cli", "analyze", "--poly", "[1,0,-1]"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_pass"] is True


@pytest.mark.parametrize("exact", [True, False])
def test_leray_strict_degree_10_does_not_overflow(capsys, exact):
    # det B = (det S)^9 is about 5.6e382 for the roots 1..10, past the float range
    p = Polynomial.from_roots(list(range(1, 11)))
    coeffs = [f"{c.numerator}/{c.denominator}" if exact else float(c) for c in p.coeffs]
    code, out, _ = run_cli(capsys, "leray", "--poly", json.dumps(coeffs))
    assert code in (0, 1)
    report = CertifiedReport.from_json(out)
    assert report.to_json() == out
    law = next(c for c in report.checks if c.check_id == "leray-adjugate-determinant")
    assert isinstance(law.witness, str)
    if exact:
        assert law.verdict == "pass"
        assert law.witness.startswith("5.56116") and law.witness.endswith("e+382")
        assert {c.check_id for c in report.checks} >= {"leray-determinant",
                                                        "leray-bezout-relation"}
