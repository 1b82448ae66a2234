"""Layer timings of the exact Bezout-form kernels, swept over degree.

Times ``bezout_matrix``, ``psd_certificate``, ``symmetrization_defect``,
``det``, ``separation_lower_bound_check``, ``h_b_relation_check``,
``leray_symmetrizer``, ``is_hyperbolic``, ``separates`` and
``certify_stages`` on exact inputs: at each degree m, the monic p with m
distinct rational roots drawn from a fixed seed, its Bezout form H of
(p, p') and its companion matrix A.  The two checks get their forms
prebuilt, as requests pass them: the separation bound H - H / 2 >= 0 takes
H twice, and the H-B relation takes H and the power-sum symmetrizer of p.
``separates(p, p')`` gets nothing prebuilt, so every source tree runs the
same call and builds what it needs (the forms, or the roots of p and p').
Six rows run at m <= ``SLOW_MAX_DEGREE`` only, two of them because one
call of each takes seconds beyond it on some source trees (2-core x86_64
machine):
``certify_stages(p, 1e-4)`` builds and certifies the m - 1 Nuij stages of
p at eps = 1/10000, the simplest rational that rounds to 1e-4 (4.2 ms at
m = 12, 21 ms at m = 16, 0.27 s at m = 24; at the dyadic value of 1e-4,
which source trees before that choice certify, 33 ms, 0.23 s and 3.8 s),
and not at all on a source tree without it; ``leray_symmetrizer_float`` times
``leray_symmetrizer`` on the float64 rounding of p, which it certifies at
its exact dyadic value, as a decimal ``leray`` request does (0.59 s at
m = 12, 2.9 s at m = 16, 14.7 s at m = 24: at m = 12 the rounded
coefficients have 48-bit denominators, and the power sums in S carry
1035-bit ones, against 77 bits for the exact p).  The float rows of the
smoothing workload run there too: ``nuij_family`` builds the float family
point ``nuij_family(p, 1e-4, 1e-12)`` (p_eps, its roots and q_eps),
``real_roots_float`` finds the roots of the float64 rounding of p,
``invert_transform`` recovers p from that point's float p_eps, as the
``nuij-inversion`` check of a ``nuij`` request does per eps, and
``verify_quasi_point`` certifies the quasi-symmetrizer constants of p at the
one grid point eps = 1e-4 with r = 0, as a ``quasi`` request does per eps.
Each layer is timed as the best of five batches (stdlib
``time.perf_counter``); a batch repeats the call until it lasts
``MIN_TIME`` seconds, and the per-call time is reported.  The rows go into
``BENCH_11.json`` in the working directory under ``--label``, next to the
rows other labels left there, with the Python version and the commit of
the timed source.

    PYTHONPATH=src python tools/bench_layers.py --label change
    PYTHONPATH=<other checkout>/src python tools/bench_layers.py --label parent
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import bezoutian
from bezoutian import Polynomial, bezout_matrix, companion_matrix, h_b_relation_check
from bezoutian import invert_transform, is_hyperbolic, leray_symmetrizer, nuij_family
from bezoutian import nuij_transform, real_roots, separates
from bezoutian import separation_lower_bound_check, symmetrization_defect, verify_quasi
from bezoutian.exactla import det, psd_certificate

try:
    from bezoutian import certify_stages
except ImportError:  # a source tree from before the exact stage certificate
    certify_stages = None

DEGREES = (4, 8, 12, 16, 24)
SLOW_MAX_DEGREE = 12
REPEATS = 5
MIN_TIME = 0.02  # seconds one timed batch lasts at least
OUT = Path("BENCH_11.json")


def exact_input(m: int) -> list:
    """m distinct rational roots with denominators up to 6, fixed by m."""
    rng = random.Random(f"bench_layers:{m}")
    alphabet = sorted({Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3, 4, 6)})
    return sorted(rng.sample(alphabet, m))


def best_per_call(fn) -> float:
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - start >= MIN_TIME or number >= 10**6:
            break
        number *= 10
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def layer_rows(degrees) -> list:
    rows = []
    for m in degrees:
        p = Polynomial.from_roots(exact_input(m), "exact")
        dp = p.derivative()
        H = bezout_matrix(p, dp).matrix
        A = companion_matrix(p).matrix
        pf = p.as_float()
        sym = leray_symmetrizer(p)
        half = Fraction(1, 2)
        calls = {
            "bezout_matrix": lambda: bezout_matrix(p, dp),
            "psd_certificate": lambda: psd_certificate(H),
            "symmetrization_defect": lambda: symmetrization_defect(H, A),
            "det": lambda: det(H),
            "separation_lower_bound_check":
                lambda: separation_lower_bound_check(p, dp, half, H=H, hermite=H),
            "h_b_relation_check": lambda: h_b_relation_check(p, sym, H),
            "leray_symmetrizer": lambda: leray_symmetrizer(p),
            "is_hyperbolic": lambda: is_hyperbolic(p),
            "separates": lambda: separates(p, dp),
        }
        if m <= SLOW_MAX_DEGREE:
            calls["leray_symmetrizer_float"] = lambda: leray_symmetrizer(pf)
            calls["nuij_family"] = lambda: nuij_family(p, 1e-4, 1e-12)
            calls["real_roots_float"] = lambda: real_roots(pf)
            p_eps = nuij_transform(p, 1e-4)
            calls["invert_transform"] = lambda: invert_transform(p_eps, 1e-4)
            calls["verify_quasi_point"] = lambda: verify_quasi(p, (1e-4,), r=0)
            if certify_stages is not None:
                calls["certify_stages"] = lambda: certify_stages(p, 1e-4)
        for layer, fn in calls.items():
            rows.append({"layer": layer, "m": m, "best_s": best_per_call(fn)})
    return rows


def source_commit() -> str | None:
    """HEAD of the git checkout holding the imported package, if it is one."""
    where = Path(bezoutian.__file__).resolve().parent
    try:
        done = subprocess.run(["git", "-C", str(where), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--degrees", default=",".join(map(str, DEGREES)),
                    help="comma-separated degrees (default %(default)s)")
    args = ap.parse_args(argv)
    degrees = [int(d) for d in args.degrees.split(",")]
    doc = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    doc.setdefault("description", __doc__.splitlines()[0])
    doc.setdefault("runs", {})[args.label] = {
        "commit": source_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "repeats": REPEATS,
        "rows": layer_rows(degrees),
    }
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
