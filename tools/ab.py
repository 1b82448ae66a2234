"""A/B benchmark of two commits by alternating ``bench/run.py`` runs.

It reports the medians, quartiles and win counts of every end-to-end
metric.

Usage, from the repository root:

    python3 tools/ab.py --parent e1d423f --change HEAD --workload exact_certify \\
        --seed 21 --pairs 10 --out BENCH_N.json

Each commit is unpacked with ``git archive`` into a temporary directory, so
no worktree is made and nothing is written under ``.git``.  Every run is a
fresh ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
inside one of the two trees, one at a time, where T is the ``run_seconds``
that the change's ``BENCHMARK.json`` declares.  Pair i runs the parent first
when i is even and the change first when it is odd.  The last stdout line
of a run is its JSON result, and the end-to-end metrics that the change's
``BENCHMARK.json`` declares are read from it.  For each metric the output
holds every run, each side's median and quartiles, and the number of pairs
the change won: better in the metric's declared direction, ties counting
for neither side.  The runs' failure counts are kept beside them, and
``same_bench`` says whether the two trees' ``bench/`` files are identical.
The entry ``<workload>-seed<seed>`` of ``--out`` (required, so that no
run rewrites an earlier record by default) is rewritten after every pair,
next to the entries other workloads and seeds left there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 600


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True, check=True, timeout=120).stdout


def unpack(commit: str, dest: Path) -> None:
    """Extract the tree of ``commit`` into ``dest`` from ``git archive``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        # the "data" filter refuses links and paths that leave dest, where it exists
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def tree_digest(directory: Path) -> str:
    """sha256 over the relative paths and contents of every file below ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_result(stdout: str) -> dict:
    """The JSON object on the last nonempty line of a ``bench/run.py`` run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("bench/run.py printed nothing")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    return parse_result(done.stdout)


def spread(values: list) -> dict:
    """Runs, median and quartiles (inclusive method) of one side."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: both sides' spreads, the change's wins, and the ratio of medians.

    ``pairs`` holds (parent result, change result) in ``parse_result`` form;
    ``metrics`` holds the ``end_to_end`` entries of ``BENCHMARK.json``.
    """
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent = [a["metrics"][name] for a, _ in pairs]
        change = [b["metrics"][name] for _, b in pairs]
        row = {"better": metric["better"], "bound": metric["bound"],
               "parent": spread(parent), "change": spread(change),
               "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
               "parent_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change))}
        base = row["parent"]["median"]
        row["ratio"] = row["change"]["median"] / base if base else None
        out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit measured as the baseline")
    ap.add_argument("--change", required=True, help="commit measured against it")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True,
                    help="JSON file the entry goes into, next to the entries already there")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
               for side, ref in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        for side, tree in trees.items():
            unpack(commits[side], tree)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
        entry = {
            **commits, "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "same_bench": tree_digest(trees["parent"] / "bench")
            == tree_digest(trees["change"] / "bench"),
            "python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count(),
        }
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            result = {side: run_once(trees[side], args.workload, args.seed, seconds)
                      for side in order}
            pairs.append((result["parent"], result["change"]))
            entry.update(
                pairs=len(pairs),
                metrics=summarize(pairs, spec["end_to_end"]),
                failed={side: [r[k]["failed"] for r in pairs] for k, side in enumerate(commits)},
                attempted={side: [r[k]["attempted"] for r in pairs]
                           for k, side in enumerate(commits)},
                correct=all(r["correct"] for pair in pairs for r in pair),
            )
            doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
            doc.setdefault("description", __doc__.splitlines()[0])
            doc.setdefault("runs", {})[f"{args.workload}-seed{args.seed}"] = entry
            args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {result[side]['metrics'].get('certs_per_s', float('nan')):.1f}"
                for side in order) + " certs/s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
