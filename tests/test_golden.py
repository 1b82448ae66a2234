"""Golden CLI reports: each case must reproduce its stdout and exit code byte for byte.

``golden/cases.json`` maps a case name to its argv and exit code; the
stdout of the case is ``golden/<name>.out``.  The corpus pins the default
output of every subcommand on both backends, so a refactor or a kernel swap
that changes a report shows up here.  After a deliberate output change
(one that bumps ``report_version`` or is recorded in CHANGES.md),
regenerate with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bezoutian.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "cases.json"
CASES = json.loads(MANIFEST.read_text(encoding="utf-8"))


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    case = CASES[name]
    code, stdout = run(case["argv"])
    assert code == case["exit"]
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


def regenerate() -> None:
    for name, case in CASES.items():
        code, stdout = run(case["argv"])
        case["exit"] = code
        (GOLDEN / f"{name}.out").write_bytes(stdout.encode())
    MANIFEST.write_text(json.dumps(CASES, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    regenerate()
