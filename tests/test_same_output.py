"""tools/same_output.py on canned records and on a stub tree: no benchmark runs here."""

import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_tool():
    spec = importlib.util.spec_from_file_location("same_output",
                                                  ROOT / "tools" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(index, outcome=0, stdout="a", stderr="e", workload="exact_certify", seed=21):
    return {"workload": workload, "seed": seed, "index": index,
            "argv": ["analyze", "--poly", f"[1,0,-{index + 1}]"],
            "outcome": outcome, "stdout": stdout, "stderr": stderr}


def test_compare_names_each_differing_field():
    tool = load_tool()
    parent = [record(0), record(1), record(2), record(3, seed=7919)]
    change = [record(0), record(1, outcome="ZeroDivisionError", stdout="b"),
              record(2, stderr="f"), record(3, seed=7919)]
    got = tool.compare(parent, change)
    assert [(key, fields) for key, _, fields in got] == [
        (("exact_certify", 21, 1), ["outcome", "stdout"]),
        (("exact_certify", 21, 2), ["stderr"])]
    assert got[0][1] == ["analyze", "--poly", "[1,0,-2]"]
    assert tool.compare(parent, parent) == []


def test_compare_counts_a_request_one_side_never_sent():
    tool = load_tool()
    parent = [record(0), record(1)]
    got = tool.compare(parent, parent[:1])
    assert got == [(("exact_certify", 21, 1), ["analyze", "--poly", "[1,0,-2]"],
                    list(tool.FIELDS))]
    moved = dict(record(1), argv=["leray", "--poly", "[1,0,-2]"])
    assert [f for _, _, f in tool.compare(parent, [record(0), moved])] == [["argv"]]


def test_report_prints_the_count_and_the_first_argvs():
    tool = load_tool()
    parent = [record(i) for i in range(8)]
    change = [record(i, stdout="b") for i in range(8)]
    text = tool.report(tool.compare(parent, change), 8)
    lines = text.splitlines()
    assert lines[0] == "8 of 8 requests differ"
    assert len(lines) == 1 + tool.SHOWN
    assert lines[1] == '  exact_certify seed 21 #0 (stdout): ["analyze", "--poly", "[1,0,-1]"]'
    assert tool.report([], 8) == "0 of 8 requests differ"


STUB_CLI = """
import sys

def main(argv):
    if argv[0] == "raise":
        raise ZeroDivisionError
    print(" ".join(argv))
    print("note", file=sys.stderr)
    return len(argv)
"""

STUB_WORKLOADS = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Request:
    argv: tuple

class Stub:
    def cycle_count(self, seconds):
        return int(seconds)

    def cycles(self, seed):
        while True:
            yield [Request(("echo", str(seed))), Request(("raise",))]

WORKLOADS = {"stub": Stub()}
"""


def test_run_tree_runs_every_request_of_the_trees_own_workloads(tmp_path):
    tool = load_tool()
    (tmp_path / "src" / "bezoutian").mkdir(parents=True)
    (tmp_path / "src" / "bezoutian" / "__init__.py").write_text("")
    (tmp_path / "src" / "bezoutian" / "cli.py").write_text(STUB_CLI)
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text(STUB_WORKLOADS)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 2}))
    got = tool.run_tree(tmp_path, seeds=(21, 7919))
    # two cycles of two requests at each seed
    assert [(r["seed"], r["index"], r["outcome"]) for r in got] == [
        (21, 0, 2), (21, 1, "ZeroDivisionError"), (21, 2, 2), (21, 3, "ZeroDivisionError"),
        (7919, 0, 2), (7919, 1, "ZeroDivisionError"), (7919, 2, 2),
        (7919, 3, "ZeroDivisionError")]
    assert got[0]["argv"] == ["echo", "21"] and got[0]["stdout"] == sha256("echo 21\n")
    assert got[0]["stderr"] == sha256("note\n") and got[1]["stdout"] == sha256("")
