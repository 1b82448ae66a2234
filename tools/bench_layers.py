"""Layer timings of the exact Bezout-form kernels, swept over degree.

Times ``bezout_matrix``, ``psd_certificate``, ``symmetrization_defect``,
``det``, ``separation_lower_bound_check``, ``h_b_relation_check``,
``leray_symmetrizer``, ``is_hyperbolic``, ``separates`` and the Nuij
stage certificate on exact inputs: at each degree m, the monic p with m
distinct rational roots drawn from a fixed seed, its Bezout form H of
(p, p') and its companion matrix A.  A polynomial keeps what is derived
from it (its forms, roots, family points and power-sum symmetrizer), so
every row that builds one of these times a call on a fresh polynomial
equal to p (``fresh``), which builds it again.  ``leray_symmetrizer``
reads deg gcd(p, p') from the Sturm chain that a ``leray`` request has
built in its hyperbolicity gate, so its fresh p holds p's chain
(``with_chain``).  The two checks read the
forms p already holds, as requests do: the separation bound H - H / 2 >= 0
reads H twice, and the H-B relation H and the power-sum symmetrizer of p.
``separates(p, p')`` gets nothing prebuilt, so every source tree runs the
same call and builds what it needs (the forms, or the roots of p and p').
``real_roots_exact`` finds the roots of a fresh exact p of degree m with
the irrational pair +-sqrt(2): x^2 - 2 times the m - 2 rational roots of
degree m - 2, so the rational roots and the irrational pair come from one
square-free factor.  ``real_roots_exact_rational`` finds the m distinct
rational roots of a fresh p, the shape of most exact_certify requests.
``separates_multiple_quadratic`` runs ``separates(p, p')`` on a fresh p
with multiple roots beside the irrational pair: x^2 - 2 times rational
roots of multiplicities 2, 3, 1, 2, ... (``multiple_quadratic_input``), at
m <= ``QUADRATIC_MAX_DEGREE`` only, since at m = 24 source trees that
deflate q at float roots raise ValueError.
Thirteen rows run at m <= ``SLOW_MAX_DEGREE`` only, three of them because
one call of each takes seconds beyond it on some source trees (2-core x86_64
machine):
``certify_stages`` (``certify_grid(p, (1e-4,))[0]``, or
``certify_stages(p, 1e-4)`` on a source tree that exports only that) builds
and certifies the m - 1 Nuij stages of
p at eps = 1/10000, the simplest rational that rounds to 1e-4 (4.2 ms at
m = 12, 21 ms at m = 16, 0.27 s at m = 24; at the dyadic value of 1e-4,
which source trees before that choice certify, 33 ms, 0.23 s and 3.8 s),
with p holding its family point at that eps, as in a ``nuij`` request,
and not at all on a source tree without it; ``leray_symmetrizer_float`` times
``leray_symmetrizer`` on the float64 rounding of p, which it certifies at
its exact dyadic value, as a decimal ``leray`` request does (0.59 s at
m = 12, 2.9 s at m = 16, 14.7 s at m = 24: at m = 12 the rounded
coefficients have 48-bit denominators, and the power sums in S carry
1035-bit ones, against 77 bits for the exact p).  The float rows of the
smoothing workload run there too: ``nuij_family`` builds the float family
point ``nuij_family(p, 1e-4)`` (p_eps, its roots and q_eps), ``nuij_grid``
builds the points of all nine default-grid eps as a ``nuij`` request does
(through ``build_family`` first, on a source tree that has it),
``real_roots_float`` finds the roots of the float64 rounding of p,
``float_roots`` its polished companion eigenvalues alone (all real),
``invert_transform`` recovers p from that point's float p_eps, as the
``nuij-inversion`` check of a ``nuij`` request does per eps, and
``verify_quasi_point`` certifies the quasi-symmetrizer constants of p at the
one grid point eps = 1e-4 with r = 0, and ``verify_quasi_grid`` on the
nine eps of the default grid with r = 0, as a ``quasi`` request does.
``certify_stages_grid_point`` certifies the stages at 0.00010000000000000002,
the last point of the default grid, which lands off the decimal: its
simplest rational has a 52-bit denominator, where 1e-4 has 1/10000; p
holds the family point of that eps too.  The
float rows of the energy layer run there as well, on the float64 rounding
pf of p with q = pf' and T = 10, 400 steps, as an ``energy`` request with
the defaults does: ``propagate_strict`` propagates U0 = (1, ..., 1) through
the eigenbasis of pf, ``propagate_multiple`` through the matrix
exponential for the first m - 1 of those roots with the first one
doubled, ``energy_series`` scores the strict trajectory with the form of
(pf, pf'), ``derivative_identity_check`` checks the identity on a
three-term exponential signal, and ``chain_bound_check`` the chain bound
of stage 0 along the strict trajectory.  These rows get nothing prebuilt,
so every source tree runs the same calls.  ``factorization_bundle`` finds
the exact roots of p, factors the form of (p, p') as G^T diag(w) G on
them and takes its residual against the directly built form.
One row at no degree, ``energy_draw``, times the three test frequencies
an ``energy`` request draws (``energy._uniform_draws`` at seed 0; ``best_s``
is null on a source tree without it) and numpy's
``default_rng(0).uniform(-3, 3, 3)``, which they equal, as
``numpy_best_s``.
Each run also records ``import``: the best of five fresh interpreters
importing ``bezoutian.cli`` from the timed source, in wall and CPU
seconds, and whether that import loaded ``numpy`` and ``scipy.linalg``.
The interpreters keep their bytecode under a private ``PYTHONPYCACHEPREFIX``
in a fresh temporary directory, warmed by one untimed import of the same
source, so no tree is timed against a stale ``__pycache__`` or a compile;
``bytecode_cache`` reads ``"private, warmed"`` when every timed interpreter
ran so.
Each layer is timed as the best of five batches (stdlib
``time.perf_counter``); a batch repeats the call until it lasts
``MIN_TIME`` seconds, and the per-call time is reported.  The rows go into
``--out`` (required, so that no run rewrites an earlier record by default)
under ``--label``, next to the rows other labels left there, with the
Python version and the commit of the timed source.

    PYTHONPATH=src python tools/bench_layers.py --label change --out BENCH_N.json
    PYTHONPATH=<other checkout>/src python tools/bench_layers.py --label parent --out BENCH_N.json
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import bezoutian
from bezoutian import ExponentialSignal, Polynomial, bezout_matrix
from bezoutian import chain_bound_check, companion_matrix, derivative_identity_check, energy_series
from bezoutian import factorization_bundle
from bezoutian import default_epsilon_grid, h_b_relation_check, invert_transform, is_hyperbolic
from bezoutian import leray_symmetrizer
from bezoutian import nuij_family, nuij_transform, propagate, real_roots, separates
from bezoutian import separation_lower_bound_check, symmetrization_defect, verify_quasi
from bezoutian.exactla import det, psd_certificate
from bezoutian.roots import _float_roots, _sturm_ends

try:
    from bezoutian import certify_grid

    def certify_stages(p, eps):
        """The stage certificate at one eps, the one-eps case of the grid kernel."""
        return certify_grid(p, (eps,))[0]
except ImportError:  # a source tree that exports the one-eps certificate alone
    try:
        from bezoutian import certify_stages
    except ImportError:  # a source tree from before the exact stage certificate
        certify_stages = None
try:
    from bezoutian import build_family
except ImportError:  # a source tree from before the grid kernel
    build_family = None
try:
    from bezoutian.energy import _uniform_draws
except ImportError:  # a source tree whose energy draws through numpy.random
    _uniform_draws = None
# propagate takes the polynomial; a source tree from before that takes its companion matrix
PROPAGATE_TAKES_POLY = next(iter(inspect.signature(propagate).parameters)) == "p"

DEGREES = (4, 8, 12, 16, 24)
SLOW_MAX_DEGREE = 12
QUADRATIC_MAX_DEGREE = 16
REPEATS = 5
MIN_TIME = 0.02  # seconds one timed batch lasts at least
GRID_POINT = 0.00010000000000000002  # the default grid's last eps
ENERGY_T, ENERGY_STEPS = 10.0, 400
SIGNAL = ExponentialSignal.of((1.0, -2.1), (0.5, 0.4), (1 / 3, 2.7))
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); c = time.process_time(); "
                "import bezoutian.cli; "
                "print(time.perf_counter() - t, time.process_time() - c, "
                "'numpy' in sys.modules, 'scipy.linalg' in sys.modules, "
                "sys.dont_write_bytecode, sys.pycache_prefix)")


def exact_input(m: int) -> list:
    """m distinct rational roots with denominators up to 6, fixed by m."""
    rng = random.Random(f"bench_layers:{m}")
    alphabet = sorted({Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3, 4, 6)})
    return sorted(rng.sample(alphabet, m))


def quadratic_input(m: int) -> Polynomial:
    """The monic p of degree m >= 2: x^2 - 2 times the m - 2 roots of ``exact_input``."""
    rational = Polynomial.from_roots(exact_input(m - 2)) if m > 2 else Polynomial.exact([1])
    return rational * Polynomial.exact([1, 0, -2])


def multiple_quadratic_input(m: int) -> Polynomial:
    """The monic p of degree m >= 2: x^2 - 2 times roots of ``exact_input`` with
    multiplicities 2, 3, 1, 2, 3, 1, ..., the last cut to make the degree m."""
    p, left = Polynomial.exact([1, 0, -2]), m - 2
    for root, mult in zip(exact_input(m), itertools.cycle((2, 3, 1))):
        if left == 0:
            break
        mult = min(mult, left)
        p = p * Polynomial.from_roots([root] * mult)
        left -= mult
    return p


def fresh(p: Polynomial) -> Polynomial:
    """A polynomial equal to p that holds nothing derived yet, so a call on it builds."""
    return Polynomial(p.coeffs, p.backend)


def with_chain(p: Polynomial) -> Polynomial:
    """``fresh(p)`` holding the Sturm chain of p, as p holds it after a request's gate."""
    q = fresh(p)
    _sturm_ends(p)
    q.memo["sturm"] = p.memo["sturm"]
    return q


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


def family_grid(p: Polynomial) -> list:
    """The family points of every default-grid eps, built as a ``nuij`` request builds them."""
    grid = default_epsilon_grid()
    if build_family is not None:
        build_family(p, grid)
    return [nuij_family(p, eps) for eps in grid]


def energy_calls(m: int) -> dict:
    """The float energy rows at degree m, keyed by layer."""
    roots = exact_input(m)
    pf = Polynomial.from_roots(roots).as_float()
    dpf = pf.derivative()
    double = Polynomial.from_roots(roots[:1] + roots[:-1]).as_float()
    U0 = [1.0] * m

    def propagated(poly):  # a fresh polynomial, whose companion matrix and roots propagate builds
        generator = fresh(poly) if PROPAGATE_TAKES_POLY else companion_matrix(fresh(poly))
        return propagate(generator, U0, ENERGY_T, ENERGY_STEPS)

    traj = propagated(pf)
    return {
        "propagate_strict": lambda: propagated(pf),
        "propagate_multiple": lambda: propagated(double),
        "energy_series": lambda: energy_series(fresh(pf), dpf, traj),
        "derivative_identity_check": lambda: derivative_identity_check(fresh(pf), dpf, SIGNAL),
        "chain_bound_check": lambda: chain_bound_check(fresh(pf), 0, traj, T=ENERGY_T),
    }


def layer_rows(degrees) -> list:
    rows = []
    for m in degrees:
        p = Polynomial.from_roots(exact_input(m))
        dp = p.derivative()
        # the Fraction arrays of the form and the companion matrix, which the
        # array routes clear to integer rows on every call
        H = np.asarray(bezout_matrix(p, dp))
        A = np.asarray(companion_matrix(p))
        pf = p.as_float()
        quadratic = quadratic_input(m)
        leray_symmetrizer(p)  # held by p, as H is, for the H-B relation
        half = Fraction(1, 2)
        calls = {
            "bezout_matrix": lambda: bezout_matrix(fresh(p), dp),
            "psd_certificate": lambda: psd_certificate(H),
            "symmetrization_defect": lambda: symmetrization_defect(H, A),
            "det": lambda: det(H),
            "separation_lower_bound_check": lambda: separation_lower_bound_check(p, dp, half),
            "h_b_relation_check": lambda: h_b_relation_check(p),
            "leray_symmetrizer": lambda: leray_symmetrizer(with_chain(p)),
            "is_hyperbolic": lambda: is_hyperbolic(fresh(p)),
            "separates": lambda: separates(fresh(p), dp),
            "real_roots_exact": lambda: real_roots(fresh(quadratic)),
            "real_roots_exact_rational": lambda: real_roots(fresh(p)),
        }
        if m <= QUADRATIC_MAX_DEGREE:
            multiple = multiple_quadratic_input(m)
            calls["separates_multiple_quadratic"] = \
                lambda: separates(fresh(multiple), multiple.derivative())
        if m <= SLOW_MAX_DEGREE:
            calls["leray_symmetrizer_float"] = lambda: leray_symmetrizer(fresh(pf))
            calls["nuij_family"] = lambda: nuij_family(fresh(p), 1e-4)
            calls["nuij_grid"] = lambda: family_grid(fresh(p))
            calls["real_roots_float"] = lambda: real_roots(fresh(pf))
            calls["float_roots"] = lambda: _float_roots(fresh(pf))
            p_eps = nuij_transform(p, 1e-4)
            calls["invert_transform"] = lambda: invert_transform(p_eps, 1e-4)
            calls["verify_quasi_point"] = lambda: verify_quasi(fresh(p), (1e-4,), r=0)
            grid = default_epsilon_grid()
            calls["verify_quasi_grid"] = lambda: verify_quasi(fresh(p), grid, r=0)
            calls["factorization_bundle"] = lambda: factorization_bundle(fresh(p), dp)
            if certify_stages is not None:
                # p keeps its family points, as in a nuij request, whose last stage reads them
                nuij_family(p, 1e-4)
                nuij_family(p, GRID_POINT)
                calls["certify_stages"] = lambda: certify_stages(p, 1e-4)
                calls["certify_stages_grid_point"] = lambda: certify_stages(p, GRID_POINT)
            calls.update(energy_calls(m))
        for layer, fn in calls.items():
            rows.append({"layer": layer, "m": m, "best_s": best_per_call(fn)})
    return rows


def draw_row() -> dict:
    """The ``energy_draw`` row: energy's three test frequencies at seed 0, and
    numpy's ``default_rng(0).uniform(-3, 3, 3)`` beside them (numpy.random
    already imported)."""
    return {"layer": "energy_draw", "m": None,
            "best_s": (best_per_call(lambda: _uniform_draws(0, 3, -3.0, 3.0))
                       if _uniform_draws is not None else None),
            "numpy_best_s": best_per_call(lambda: np.random.default_rng(0).uniform(-3.0, 3.0, 3))}


def import_row() -> dict:
    """Best of REPEATS fresh interpreters importing bezoutian.cli from the timed source.

    They share a bytecode cache of their own, a fresh temporary directory as
    PYTHONPYCACHEPREFIX, which one untimed import fills first.
    """
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache,
                   PYTHONPATH=str(Path(bezoutian.__file__).resolve().parent.parent))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        runs = []
        for _ in range(REPEATS + 1):
            done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            wall, cpu, numpy, scipy_linalg, no_write, prefix = \
                done.stdout.rstrip("\n").split(" ", 5)
            runs.append((float(wall), float(cpu), numpy == "True", scipy_linalg == "True",
                         no_write == "False" and prefix == cache))
    runs = runs[1:]  # the first import compiled the cache
    return {"best_wall_s": min(r[0] for r in runs), "best_cpu_s": min(r[1] for r in runs),
            "numpy_loaded": any(r[2] for r in runs),
            "scipy_linalg_loaded": any(r[3] for r in runs),
            "bytecode_cache": "private, warmed" if all(r[4] for r in runs) else "other"}


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
    ap.add_argument("--out", type=Path, required=True,
                    help="JSON file the rows go into, next to the runs already there")
    args = ap.parse_args(argv)
    degrees = [int(d) for d in args.degrees.split(",")]
    out = args.out
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("description", __doc__.splitlines()[0])
    doc.setdefault("runs", {})[args.label] = {
        "commit": source_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "repeats": REPEATS,
        "import": import_row(),
        "rows": layer_rows(degrees) + [draw_row()],
    }
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
