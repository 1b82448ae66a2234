"""Benchmark of the bezoutian CLI on three certification workloads.

Usage, from the repository root:

    python3 bench/run.py --workload exact_certify --seed 1 --seconds 25 --trace 0

Each request calls ``bezoutian.cli.main(argv)`` in this process, in a closed
loop with one caller: the next request starts when the previous returns.
Every request is judged by the known-answer checker (``checker.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays the
same requests under span tracing and reports the per-layer metrics.  Times
are calibrated against the host's drifting speed (``calibration.py``); the
raw wall times are printed and saved too.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit and
sample count, and the full result, environment included, is written to
``bench/out/``.  ``NOTES.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibration
from workloads import WARMUP_SALT, WORKLOADS, argv_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
WARMUP_SECONDS = 2.0
# A request still running after this long is stopped and counted as failed.
REQUEST_LIMIT_S = 20.0
# A safety stop, never reached on a host as fast as the defining one: the run
# ends mid-cycle once its requests have taken this long, so it still exits
# within the contract's limit.  A run cut this way says so.
CUT_S = 110.0
# p90 needs ten correct samples beyond it
MIN_SAMPLES = 100

_IMPORT = ("import time; t = time.perf_counter(); c = time.process_time(); import {}; "
           "print(repr(time.perf_counter() - t), repr(time.process_time() - c))")
# The yardstick of setup_s: a fresh interpreter importing the modules that
# bezoutian.cli loads from outside the package.  It is fixed here, so a
# change that imports more or less of them shows in setup_s.
REFERENCE_IMPORT = "numpy, scipy.linalg, argparse, csv, dataclasses, fractions, json, typing"
# CPU seconds of the reference import on the host the benchmark was defined on.
REFERENCE_CPU_S = 0.55


class RequestTimeout(BaseException):
    """Raised into a request that outlives REQUEST_LIMIT_S.

    A BaseException, so no ``except Exception`` in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise RequestTimeout


def use_source_tree() -> None:
    """Import the library from ``src`` of this checkout, never an installed copy."""
    if not (SRC / "bezoutian" / "cli.py").is_file():
        raise SystemExit(f"no library source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _probe(module: str, extra_args=()) -> tuple:
    """(wall s, CPU s, stderr) of ``import module`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SYMM_SEED", None)
    proc = subprocess.run([sys.executable, *extra_args, "-c", _IMPORT.format(module)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    wall, cpu = proc.stdout.split()
    return float(wall), float(cpu), proc.stderr


def probe_setup() -> list:
    """(raw wall s, calibrated s) of importing bezoutian.cli, once per repeat.

    Each repeat imports bezoutian.cli, then REFERENCE_IMPORT, each in a
    fresh interpreter; the calibrated time is the CPU time of the first over
    that of the second, times REFERENCE_CPU_S.
    """
    out = []
    for _ in range(SETUP_REPEATS):
        wall, cpu, _ = _probe("bezoutian.cli")
        reference_cpu = _probe(REFERENCE_IMPORT)[1]
        out.append((wall, cpu / reference_cpu * REFERENCE_CPU_S))
    return out


def parse_importtime(text: str) -> dict:
    """Self seconds per top-level package from ``-X importtime`` output."""
    totals = Counter()
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        totals[name.strip().split(".")[0]] += int(self_us) / 1e6
    return dict(totals)


def probe_imports() -> dict:
    """Import self seconds of numpy, scipy and bezoutian (medians over fresh interpreters)."""
    runs = [parse_importtime(_probe("bezoutian.cli", ["-X", "importtime"])[2])
            for _ in range(IMPORTTIME_REPEATS)]
    return {pkg: statistics.median(r.get(pkg, 0.0) for r in runs)
            for pkg in ("numpy", "scipy", "bezoutian")}


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(traced: bool) -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "bezoutian").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "traced": traced,
    }


@dataclass
class Record:
    request_id: int
    command: str
    seconds: float        # raw wall time of main(argv)
    loop_s: float         # calibration loop timed just before it
    failed: bool
    unsound: bool
    reason: str
    scaled: float = 0.0   # calibrated seconds, set once the pass is over


def run_request(main, check, request, request_id: int, span=nullcontext) -> Record:
    """Time one ``main(argv)`` call, inside ``span()``, and judge its outcome."""
    loop_s = calibration.sample()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        t0 = perf_counter()
        try:
            with span():
                code = main(list(request.argv))
        except SystemExit as exc:
            code = exc.code
        except (Exception, RequestTimeout) as exc:  # a raise out of main is a failed request
            error = exc
        finally:
            seconds = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    verdict = check(request, code, out.getvalue(), error)
    return Record(request_id, request.command, seconds, loop_s, verdict.failed,
                  verdict.unsound, verdict.reason)


def calibrate(records: list) -> None:
    """Scale each request by the loop times taken just before and just after it."""
    before = [r.loop_s for r in records]
    after = before[1:] + [calibration.sample()]
    loops = calibration.smoothed([(a + b) / 2 for a, b in zip(before, after)])
    for r, loop_s in zip(records, loops):
        r.scaled = r.seconds * calibration.REF_S / loop_s


def run_cycles(cycles, count: int, step) -> tuple:
    """(requests sent, cut) for the first ``count`` cycles.

    The number of cycles is fixed before the run, so one seed always sends
    the same requests and gets the same failures, however fast the host is.
    ``cut`` is true when CUT_S stopped the run early.
    """
    done = []
    t0 = perf_counter()
    for _, cycle in zip(range(count), cycles):
        for request in cycle:
            step(request, len(done))
            done.append(request)
            if perf_counter() - t0 > CUT_S:
                return done, True
    return done, False


def warm_up(cycles, seconds: float, step) -> None:
    """Untimed requests for ``seconds``, stopping mid-cycle."""
    t_end = perf_counter() + seconds
    for cycle in cycles:
        for request in cycle:
            step(request, 0)
            if perf_counter() >= t_end:
                return


def _percentiles(values: list) -> tuple:
    """(p50, p90) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def end_to_end(records: list, setup: list, commands: tuple) -> dict:
    """name -> (value, unit, samples); times calibrated, raw ones under ``wall.``."""
    out = {"peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
           "fail_ratio": (sum(r.failed for r in records) / len(records), "1", len(records)),
           "calibration.loop_ms": (statistics.median(r.loop_s for r in records) * 1e3, "ms",
                                   len(records))}
    for prefix, attr, index in (("", "scaled", 1), ("wall.", "seconds", 0)):
        ok = [getattr(r, attr) for r in records if not r.failed]
        out[prefix + "setup_s"] = (statistics.median(s[index] for s in setup), "s", len(setup))
        out[prefix + "certs_per_s"] = (len(ok) / sum(getattr(r, attr) for r in records), "1/s",
                                       len(records))
        if ok:  # latencies are left out when no request completed correctly
            p50, p90 = _percentiles(ok)
            out[prefix + "latency_p50_ms"] = (p50 * 1e3, "ms", len(ok))
            out[prefix + "latency_p90_ms"] = (p90 * 1e3, "ms", len(ok))
    for command in commands:
        mine = [r for r in records if r.command == command]
        if not mine:
            continue
        times = [r.scaled for r in mine if not r.failed]
        if times:
            out[f"{command}_p50_ms"] = (statistics.median(times) * 1e3, "ms", len(times))
        out[f"{command}_fail_ratio"] = (sum(r.failed for r in mine) / len(mine), "1", len(mine))
    return out


def per_layer(summary: dict, records: list, imports: dict, overhead: float) -> dict:
    """name -> (value, unit, samples); counts and times are per traced request."""
    n = len(records)
    out = {}
    for name, row in summary["functions"].items():
        if name.startswith("cli."):
            out[f"{name}.time_s"] = (row["total_s"] / n, "s", n)
            command = name[len("cli."):]
            out[f"{name}.errors"] = (
                sum(r.failed for r in records if r.command == command) / n, "count", n)
            continue
        out[f"{name}.calls"] = (row["calls"] / n, "count", n)
        out[f"{name}.self_s"] = (row["self_s"] / n, "s", n)
        out[f"{name}.total_s"] = (row["total_s"] / n, "s", n)
    for layer, value in summary["layers_self_s"].items():
        out[f"{layer}.self_s"] = (value / n, "s", n)
    out["roots.real_roots.errors"] = (
        summary["functions"]["roots.real_roots"]["errors"] / n, "count", n)
    for name, value in summary["repeat_ratio"].items():
        out[f"{name}.repeat_ratio"] = (value, "1", n)
    out["polynomial.divmod.coeff_bits_max"] = (
        summary["coeff_bits_max"].get("polynomial.divmod", 0), "bits", n)
    for pkg, value in imports.items():
        out[f"import.{pkg}.self_s"] = (value, "s", IMPORTTIME_REPEATS)
    out["trace.overhead_ratio"] = (overhead, "1", n)
    return out


def _print_table(title: str, table: dict) -> None:
    print(f"# {title}")
    for name in sorted(table):
        value, unit, samples = table[name]
        print(f"{name:48s} {value:16.6g} {unit:6s} n={samples}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_source_tree()
    os.environ.pop("SYMM_SEED", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [] if args.trace else probe_setup()
    imports = probe_imports() if args.trace else {}

    from bezoutian.cli import main as cli_main

    from checker import check

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload]
    records = []

    def untraced(request, request_id):
        records.append(run_request(cli_main, check, request, request_id))

    warm_up(workload.cycles(args.seed ^ WARMUP_SALT), WARMUP_SECONDS,
            lambda r, i: run_request(cli_main, check, r, i))
    count = workload.cycle_count(args.seconds / 2 if args.trace else args.seconds)
    requests, cut = run_cycles(workload.cycles(args.seed), count, untraced)
    if cut:
        print(f"# warning: stopped after {CUT_S:g} s, {len(requests)} requests sent")
    calibrate(records)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "argv_sha256": argv_digest(r.argv for r in requests),
        "environment": environment(bool(args.trace)),
        "requests": len(requests),
        "cycles": count,
        "cut": cut,
        "failures": dict(Counter(f"{r.command}: {r.reason}" for r in records if r.failed)),
    }
    if args.trace:
        from tracing import Tracer

        untraced_records, records = records, []
        with Tracer() as tracer:
            for i, request in enumerate(requests):
                label = f"cli.{request.command}"
                records.append(run_request(cli_main, check, request, i,
                                           lambda: tracer.request_span(i, label)))
        calibrate(records)
        overhead = sum(r.scaled for r in records) / sum(r.scaled for r in untraced_records)
        summary = tracer.summary({r.request_id: r.command for r in records},
                                 {r.request_id: r.scaled / r.seconds for r in records})
        table = per_layer(summary, records, imports, overhead)
        wanted = [m["name"] for m in spec["per_layer"]]
        result["command_layers_self_s"] = summary["command_layers_self_s"]
        result["spans"] = summary["spans"]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.csv.gz")
        records = untraced_records + records
        _print_table("per-layer metrics (per traced request, calibrated)", table)
    else:
        table = end_to_end(records, setup, workload.commands)
        wanted = [m["name"] for m in spec["end_to_end"]]
        _print_table("end-to-end metrics", table)
        ok = sum(not r.failed for r in records)
        if ok < MIN_SAMPLES:
            print(f"# warning: {ok} correct requests leave fewer than ten beyond p90")
    signal.signal(signal.SIGALRM, previous_handler)
    for reason, count in sorted(result["failures"].items()):
        print(f"# failed x{count}: {reason}")
    print(f"# argv_sha256 {result['argv_sha256']} over {len(requests)} requests")
    print("# environment " + json.dumps(result["environment"], sort_keys=True))

    attempted = len(records)
    failed = sum(r.failed for r in records)
    correct = not any(r.unsound for r in records)
    result.update(metrics={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in table.items()},
                  correct=correct, attempted=attempted, failed=failed)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": table[name][0], "unit": table[name][1]}
                                  for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
