"""Tests of the benchmark itself: generator, checker, tracer and runner.

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import run

run.use_source_tree()

from bezoutian import cli, exactla, polynomial, report, roots  # noqa: E402
from checker import check, required_checks  # noqa: E402
from tracing import LAYERS, TARGETS, Tracer, self_times  # noqa: E402
from workloads import WARMUP_SALT, WORKLOADS, Request, argv_digest  # noqa: E402


def _first_cycles(name, seed, n=2):
    gen = WORKLOADS[name].cycles(seed)
    return [req for _ in range(n) for req in next(gen)]


def _call(request):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(request.argv))
    return code, out.getvalue()


def _request(command, roots_, mults, quadratic=0, exact=True):
    req = Request(command, (), exact, tuple(Fraction(r) for r in roots_), tuple(mults), quadratic)
    items = ([f"{c.numerator}/{c.denominator}" for c in req.coefficients()] if exact
             else [float(c) for c in req.coefficients()])
    return Request(command, (command, "--poly", json.dumps(items)), exact, req.roots,
                   req.mults, quadratic)


# -- generator ---------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in WORKLOADS:
        a = argv_digest(r.argv for r in _first_cycles(name, 3))
        assert a == argv_digest(r.argv for r in _first_cycles(name, 3))
        assert a != argv_digest(r.argv for r in _first_cycles(name, 4))
        assert a != argv_digest(r.argv for r in _first_cycles(name, 3 ^ WARMUP_SALT))


def test_no_polynomial_repeats_and_truth_matches_input():
    for name, workload in WORKLOADS.items():
        reqs = _first_cycles(name, 11, n=5)
        polys = [r.argv[2] for r in reqs]
        assert len(set(polys)) == len(polys)
        assert [c for c, _, _ in workload.slots] == [r.command for r in reqs[:len(workload.slots)]]
        for r in reqs:
            items = json.loads(r.argv[2])
            assert len(items) == r.degree + 1
            assert [Fraction(v) for v in items] == r.coefficients()
            assert all(isinstance(v, str) for v in items) == r.exact


# -- checker -----------------------------------------------------------------


def test_checker_passes_honest_reports():
    for req in (_request("analyze", [0, 1, 3], [1, 2, 1]),
                _request("leray", [-1, 2], [1, 1]),
                _request("analyze", [-1, Fraction(1, 2)], [1, 1], exact=False)):
        code, text = _call(req)
        assert not check(req, code, text).failed, check(req, code, text)


def test_checker_accepts_exit_3_only_on_a_complex_pair():
    req = _request("analyze", [1], [1], quadratic=-2)
    code, text = _call(req)
    assert code == 3 and not check(req, code, text).failed
    hyperbolic = _request("analyze", [1, 2], [1, 1])
    assert check(hyperbolic, 3, "").failed


def test_negative_controls_tampered_reports_fail():
    req = _request("analyze", [0, 1, 3], [1, 2, 1])
    code, text = _call(req)
    assert code == 0
    honest = json.loads(text)

    flipped = json.loads(text)
    flipped["checks"][0]["verdict"] = "fail"
    flipped["all_pass"] = False
    flipped_text = json.dumps(flipped, sort_keys=True, indent=2) + "\n"
    assert check(req, 1, flipped_text).failed
    assert check(req, 0, flipped_text).unsound          # exit code contradicts the report

    assert check(req, 1, text).unsound                  # wrong exit code
    assert check(req, 3, text).failed                   # rejects a hyperbolic input
    assert check(req, 2, "").failed
    assert check(req, None, "", ZeroDivisionError()).failed
    assert check(req, 0, text.replace("\n", " ")).unsound    # no round trip

    other = dict(honest, inputs=dict(honest["inputs"], poly=["1/1", "0/1", "-1/1"]))
    assert check(req, 0, json.dumps(other, sort_keys=True, indent=2) + "\n").unsound

    complex_pair = _request("analyze", [1], [1], quadratic=-2)
    assert check(complex_pair, 0, text).unsound


def _without(text, drop):
    """The report ``text`` with the checks for which ``drop(check)`` holds removed."""
    report_ = json.loads(text)
    report_["checks"] = [c for c in report_["checks"] if not drop(c)]
    return json.dumps(report_, sort_keys=True, indent=2) + "\n"


def test_honest_reports_hold_every_required_check():
    for req in (_request("nuij", [0, 1], [2, 1]),
                _request("quasi", [0, 1], [2, 1]),
                _request("leray", [-1, 0, 2], [1, 1, 1]),
                _request("energy", [-1, Fraction(1, 2)], [1, 1], exact=False)):
        code, text = _call(req)
        assert not check(req, code, text).failed, check(req, code, text)
        ids = [c["check_id"] for c in json.loads(text)["checks"]]
        assert all(ids.count(cid) >= n for cid, n in required_checks(req).items())


def test_negative_controls_missing_checks_fail():
    analyze = _request("analyze", [0, 1, 3], [1, 2, 1])
    code, text = _call(analyze)
    for cid in required_checks(analyze):
        verdict = check(analyze, code, _without(text, lambda c: c["check_id"] == cid))
        assert verdict.failed and cid in verdict.reason, (cid, verdict)
    assert check(analyze, 0, _without(text, lambda c: True)).failed     # no checks at all

    strict = _request("leray", [-1, 0, 2], [1, 1, 1])
    code, text = _call(strict)
    assert check(strict, code, _without(
        text, lambda c: c["check_id"] == "leray-bezout-relation")).failed

    nuij = _request("nuij", [0, 1], [2, 1])
    code, text = _call(nuij)
    one_eps = _without(text, lambda c: c["check_id"] == "nuij-interlacing"
                       and c["name"].endswith("eps=0.01"))
    assert "missing: nuij-interlacing" in check(nuij, code, one_eps).reason
    coarse = json.loads(text)
    coarse["inputs"]["grid"] = coarse["inputs"]["grid"][:1]
    assert check(nuij, code, json.dumps(coarse, sort_keys=True, indent=2) + "\n").failed


def test_quasi_uniformity_checks_are_not_theorems():
    req = _request("quasi", [0], [3])
    code, text = _call(req)
    ids = {c["check_id"]: c["verdict"] for c in json.loads(text)["checks"]}
    assert ids["quasi-commutator-sampling"] == "pass"
    assert not check(req, code, text).failed
    sampled = json.loads(text)
    for c in sampled["checks"]:
        if c["check_id"] == "quasi-commutator-sampling":
            c["verdict"] = "fail"
    sampled["all_pass"] = False
    assert check(req, 1, json.dumps(sampled, sort_keys=True, indent=2) + "\n").failed


# -- tracer ------------------------------------------------------------------


def _bindings():
    """Every (module or class, attribute) -> object a traced run may rebind."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "bezoutian"]
    owners += [polynomial.Polynomial, report.CertifiedReport]
    return {(owner.__name__, key): value
            for owner in owners for key, value in list(vars(owner).items())}


def test_untraced_code_sees_the_original_functions():
    before = _bindings()
    original_roots = roots.real_roots
    with Tracer() as tracer:
        assert cli.real_roots is not original_roots
        assert roots.real_roots is cli.real_roots
        assert exactla.adjugate.__wrapped__.__module__ == "bezoutian.exactla"
        _call(_request("analyze", [0, 1, 2], [1, 1, 1]))
        assert len(tracer.start) == 0                  # no spans outside a request
        with tracer.request_span(0, "cli.analyze"):
            _call(_request("analyze", [0, 1, 3], [1, 2, 1]))
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    assert cli.real_roots is original_roots
    spans = len(tracer.start)
    _call(_request("analyze", [0, 2], [1, 1]))
    assert len(tracer.start) == spans > 1


def test_every_target_is_reached_from_the_cli():
    names = {name for name, _, _ in TARGETS}
    with Tracer() as tracer:
        for i, req in enumerate([
            _request("analyze", [0, 1, 3], [1, 2, 1]),
            _request("leray", [-1, 0, 2], [1, 1, 1]),
            _request("nuij", [0, 1], [2, 1]),
            _request("quasi", [0, 1], [2, 1]),
            _request("energy", [-1, Fraction(1, 2)], [1, 1], exact=False),
        ]):
            with tracer.request_span(i, f"cli.{req.command}"):
                _call(req)
    summary = tracer.summary({i: "x" for i in range(5)})
    assert {n for n in names if summary["functions"][n]["calls"] == 0} == set()


def test_self_time_is_duration_minus_covered_child_intervals():
    #   0: [0, 10] root
    #   1: [1, 3]  child of 0, with grandchild 3: [1.5, 2.5]
    #   2: [2, 4]  child of 0, overlapping 1
    #   4: [8, 12] child of 0, sticking out past its parent
    start = [0.0, 1.0, 2.0, 1.5, 8.0]
    end = [10.0, 3.0, 4.0, 2.5, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = self_times(start, end, parent)
    assert got == [10.0 - (3.0 + 2.0), 2.0 - 1.0, 2.0, 1.0, 4.0]


def test_a_layer_without_spans_still_reports():
    with Tracer() as tracer:
        with tracer.request_span(0, "cli.nuij"):
            _call(_request("nuij", [0, 1], [2, 1]))
    summary = tracer.summary({0: "nuij"})
    assert summary["functions"]["exactla.adjugate"]["calls"] == 0
    assert set(summary["layers_self_s"]) == set(LAYERS)
    assert summary["layers_self_s"]["energy"] == 0.0
    rec = run.Record(0, "nuij", 0.1, 5e-4, False, False, "", scaled=0.1)
    table = run.per_layer(summary, [rec], {"numpy": 0.1, "scipy": 0.2, "bezoutian": 0.01}, 1.0)
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= table.keys()


# -- runner ------------------------------------------------------------------


def test_end_to_end_reports_when_requests_fail():
    setup = [(0.5, 0.3)] * 3
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["end_to_end"]}
    ok = run.Record(0, "analyze", 0.01, 5e-4, False, False, "", scaled=0.01)
    bad = run.Record(1, "leray", 0.02, 5e-4, True, False, "exit 2", scaled=0.02)
    one_command_failed = run.end_to_end([ok, bad], setup, ("analyze", "leray"))
    assert wanted <= one_command_failed.keys()
    assert "leray_p50_ms" not in one_command_failed
    assert one_command_failed["leray_fail_ratio"][0] == 1.0
    all_failed = run.end_to_end([bad], setup, ("analyze", "leray"))
    assert wanted <= all_failed.keys()
    assert all_failed["certs_per_s"][0] == 0.0 and "latency_p50_ms" not in all_failed
    assert all(not math.isnan(v) for v, _, _ in all_failed.values())


def test_run_length_is_fixed_by_seconds_not_by_the_clock(monkeypatch):
    for workload in WORKLOADS.values():
        assert workload.cycle_count(30) == round(30 / workload.cycle_s) >= 5
        assert workload.cycle_count(0.01) == 1
    workload = WORKLOADS["float_forms"]
    sent = []
    requests, cut = run.run_cycles(workload.cycles(5), 3, lambda r, i: sent.append(r))
    assert not cut and requests == sent == _first_cycles("float_forms", 5, n=3)
    clock = iter(range(0, 10_000, 100))  # every request takes 100 s
    monkeypatch.setattr(run, "perf_counter", lambda: next(clock))
    requests, cut = run.run_cycles(workload.cycles(5), 3, lambda r, i: None)
    assert cut and len(requests) == 2


def test_parse_importtime_sums_self_time_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:       200 |        200 |     scipy.linalg",
        "import time:        25 |        400 | bezoutian.cli",
    ])
    got = run.parse_importtime(text)
    assert got.keys() == {"numpy", "scipy", "bezoutian"}
    assert [round(got[k] * 1e6) for k in ("numpy", "scipy", "bezoutian")] == [150, 200, 25]


def test_traced_run_reports_overhead_ratio(capsys):
    assert run.main(["--workload", "float_forms", "--seed", "5", "--seconds", "0.5",
                     "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert last["correct"] is True
