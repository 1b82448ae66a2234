"""List the functions of ``src/bezoutian`` that no request reaches.

Usage, from the repository root:

    python3 tools/reach.py

Under ``sys.setprofile``, one interpreter runs, through ``bezoutian.cli.main``
and the package itself:

- every benchmark request at seed 21: each workload of ``bench/workloads.py``
  sends ``cycle_count`` of the ``run_seconds`` in ``BENCHMARK.json`` cycles,
  as ``tools/same_output.py`` sends them;
- the golden cases of ``tests/golden/cases.json``;
- the scripts in ``demos/``.

A function is every ``def`` under ``src/bezoutian``, nested ones included,
named ``module.qualname``.  It is reached when a code object with its file
and its exact first line is called.  The first line of a code object is
that of its first decorator, if it has one, so a property or a cached
function is matched on its decorator line, not on its ``def`` line.  The
tool prints each unreached function with the reason ``KEPT`` records for
it, then the count, and exits 1 unless the unreached functions are
exactly the keys of ``KEPT``.  A change that leaves a function unreached
deletes it or records why it stays.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bezoutian"
SEED = 21

KEPT = {
    "nuij._range_message": "an input past the float64 range reaches it; "
                           "test_an_exact_root_past_the_float_range_is_an_input_error pins it",
    "quasi._merged_roots": "a family point whose float roots merge reaches it; "
                           "test_quasi_on_a_family_point_with_merged_roots_exits_2 pins it",
    "report.CertifiedReport.from_json": "bench/checker.py reads every report through it",
    "report.CheckRecord.from_dict": "bench/checker.py reads every check through it",
    "report.CertifiedReport.csv_rows": "--output csv of analyze and leray, which have no table; "
                                       "test_csv_of_a_command_with_no_table_lists_the_checks_"
                                       "of_its_report pins it",
}


def functions(src: Path) -> dict:
    """{(resolved path, first line): module.qualname} of every def under ``src``.

    The first line is that of the code object: the first decorator's line
    for a decorated function, the ``def`` line otherwise.
    """
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[path, line] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).with_suffix("").as_posix().replace("/", ".")
        prefix = "" if module == "__init__" else f"{module}."
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, path.resolve(), prefix)
    return found


@contextlib.contextmanager
def reaching():
    """Collect (resolved path, first line) of every Python code object called inside."""
    seen = set()
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and (code := frame.f_code) not in codes:
            codes.add(code)
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(None)
        resolved = {(Path(name).resolve(), line) for name, line in seen}
        seen.clear()
        seen.update(resolved)


def unreached(src: Path, seen: set) -> list:
    """Names of the functions under ``src`` whose code objects ``seen`` lacks, sorted."""
    return sorted(name for key, name in functions(src).items() if key not in seen)


def _quietly(run) -> None:
    """run(), its output dropped; what a failing request or demo reached counts."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            contextlib.suppress(SystemExit, Exception):
        run()


def run_everything() -> None:
    """Every benchmark request at ``SEED``, every golden case and every demo."""
    from bezoutian.cli import main
    from workloads import WORKLOADS

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    for workload in WORKLOADS.values():
        cycles = zip(range(workload.cycle_count(seconds)), workload.cycles(SEED))
        for request in (r for _, cycle in cycles for r in cycle):
            _quietly(lambda: main(list(request.argv)))
    cases = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text(encoding="utf-8"))
    for case in cases.values():
        _quietly(lambda: main(list(case["argv"])))
    for script in sorted((ROOT / "demos").glob("*.py")):
        _quietly(lambda: runpy.run_path(str(script), run_name="__main__"))


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    with reaching() as seen:
        run_everything()
    names = unreached(SRC, seen)
    for name in names:
        print(f"{name}: {KEPT.get(name, 'NOT RECORDED in KEPT')}")
    for name in sorted(set(KEPT) - set(names)):
        print(f"{name}: recorded in KEPT but reached")
    print(len(names))
    return 0 if set(names) == set(KEPT) else 1


if __name__ == "__main__":
    sys.exit(main())
