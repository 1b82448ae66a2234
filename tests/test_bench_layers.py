"""Smoke test: tools/bench_layers.py times every layer and writes its JSON."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {"bezout_matrix", "psd_certificate", "symmetrization_defect", "det",
          "separation_lower_bound_check", "h_b_relation_check", "leray_symmetrizer",
          "leray_symmetrizer_float", "is_hyperbolic", "separates", "real_roots_exact",
          "real_roots_exact_rational",
          "certify_stages", "nuij_family", "nuij_grid", "real_roots_float", "invert_transform",
          "verify_quasi_point", "verify_quasi_grid", "certify_stages_grid_point",
          "propagate_strict",
          "propagate_multiple", "energy_series", "derivative_identity_check",
          "chain_bound_check", "factorization_bundle", "separates_multiple_quadratic",
          "float_roots"}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "tools" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_layers_writes_rows_for_every_layer_and_degree(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "MIN_TIME", 0.0005)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "layers.json"
    out.write_text(json.dumps({"runs": {"earlier": {"rows": []}}}))
    assert tool.main(["--label", "smoke", "--degrees", "2,3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["runs"]) == {"earlier", "smoke"}
    run = doc["runs"]["smoke"]
    assert run["python"] == ".".join(map(str, sys.version_info[:3]))
    assert "commit" in run
    imported = run["import"]
    assert 0 < imported["best_cpu_s"] and 0 < imported["best_wall_s"]
    # the fresh interpreters import the source under test, which leaves numpy
    # to the float routes and scipy to the multiple-root energy branch
    assert imported["numpy_loaded"] is False
    assert imported["scipy_linalg_loaded"] is False
    # timed from a private bytecode cache that an untimed import filled, so a
    # stale __pycache__ in the tree or a compile is never timed
    assert imported["bytecode_cache"] == "private, warmed"
    rows = run["rows"]
    assert {(r["layer"], r["m"]) for r in rows} == \
        {(k, m) for k in LAYERS for m in (2, 3)} | {("energy_draw", None)}
    assert all(r["best_s"] > 0 for r in rows)
    assert rows[-1]["numpy_best_s"] > 0


def test_bench_layers_requires_out(capsys):
    # a default file would be some earlier change's committed record
    with pytest.raises(SystemExit):
        load_tool().main(["--label", "smoke"])
    assert "--out" in capsys.readouterr().err
