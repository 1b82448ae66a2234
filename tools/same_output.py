"""Byte-identity check of the CLI between two commits on every benchmark request.

Usage, from the repository root:

    python3 tools/same_output.py --parent HEAD~1 --change HEAD

Each commit is unpacked with ``unpack`` from ``tools/ab.py``.  For each
tree, one fresh interpreter runs every request of every workload in that
tree's ``bench/workloads.py``, at the seeds in ``SEEDS``, through that
tree's ``bezoutian.cli.main``, one request after another as
``bench/run.py`` sends them.  A workload sends ``cycle_count`` of the
``run_seconds`` in that tree's ``BENCHMARK.json`` cycles; warm-up requests
are left out.  A request's record is its exit code (or the type name of the
exception raised out of ``main``) and the sha256 of its stdout and of its
stderr.  The two trees' records are compared request by request; the tool
prints how many requests differ and the first few differing argvs, and
exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (21, 7919)
SHOWN = 5  # differing requests printed in full
RUN_TIMEOUT_S = 1800

# Runs in a fresh interpreter inside one tree, with that tree's src/ and
# bench/ on the path; prints one JSON record per request.
WORKER = """
import contextlib, hashlib, io, json, sys
from bezoutian.cli import main
from workloads import WORKLOADS

seconds, seeds = json.loads(sys.argv[1])
for name, workload in WORKLOADS.items():
    for seed in seeds:
        cycles = zip(range(workload.cycle_count(seconds)), workload.cycles(seed))
        for index, request in enumerate(r for _, cycle in cycles for r in cycle):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    outcome = main(list(request.argv))
                except SystemExit as exc:
                    outcome = exc.code
                except Exception as exc:
                    outcome = type(exc).__name__
            print(json.dumps({
                "workload": name, "seed": seed, "index": index, "argv": list(request.argv),
                "outcome": outcome,
                "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            }))
"""

FIELDS = ("argv", "outcome", "stdout", "stderr")


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", Path(__file__).with_name("ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tree(tree: Path, seeds=SEEDS) -> list:
    """The records of every benchmark request, run by the tree's own code."""
    seconds = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "bench")]))
    done = subprocess.run([sys.executable, "-c", WORKER, json.dumps([seconds, list(seeds)])],
                          cwd=tree, env=env, capture_output=True, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    return [json.loads(line) for line in done.stdout.splitlines() if line.strip()]


def compare(parent: list, change: list) -> list:
    """(key, argv, differing fields) of each request whose records differ.

    Records pair by (workload, seed, index); a request that only one side
    sent differs in every field.
    """
    def keyed(records):
        return {(r["workload"], r["seed"], r["index"]): r for r in records}

    old, new = keyed(parent), keyed(change)
    out = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            out.append((key, (a or b)["argv"], list(FIELDS)))
            continue
        fields = [f for f in FIELDS if a[f] != b[f]]
        if fields:
            out.append((key, a["argv"], fields))
    return out


def report(differences: list, total: int) -> str:
    lines = [f"{len(differences)} of {total} requests differ"]
    for (workload, seed, index), argv, fields in differences[:SHOWN]:
        lines.append(f"  {workload} seed {seed} #{index} ({', '.join(fields)}): "
                     + json.dumps(argv))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit whose output is the reference")
    ap.add_argument("--change", required=True, help="commit compared against it")
    args = ap.parse_args(argv)
    ab = load_ab()
    records = {}
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        for side, ref in (("parent", args.parent), ("change", args.change)):
            commit = ab.git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
            tree = Path(tmp) / side
            ab.unpack(commit, tree)
            records[side] = run_tree(tree)
            print(f"{side} {commit}: {len(records[side])} requests", flush=True)
    differences = compare(records["parent"], records["change"])
    total = len({(r["workload"], r["seed"], r["index"]) for rs in records.values() for r in rs})
    print(report(differences, total))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
