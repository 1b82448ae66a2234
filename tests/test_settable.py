"""tools/settable.py: the count of settable values in src/bezoutian, and its rule.

The count is recorded here, so a change that adds or removes a parameter
default, a dataclass field default or a CLI option has to update the
number, and say why in CHANGES.md.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# 60 before nuij_transform lost applications and Polynomial.zero and
# Polynomial.one (each with a backend default) went; 65 before psd_check and
# psd_certificate lost tol and PsdVerdict lost min_eigenvalue and the
# defaults of pivots and rank
RECORDED = 57


def load_tool():
    spec = importlib.util.spec_from_file_location("settable", ROOT / "tools" / "settable.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_settable_count_is_the_recorded_one():
    values = load_tool().settable(ROOT / "src" / "bezoutian")
    listing = "\n".join(f"{path}:{line}: {kind} {name}" for path, line, kind, name in values)
    assert len(values) == RECORDED, listing


def test_the_rule_counts_defaults_fields_and_parser_options(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "core.py").write_text(
        "from dataclasses import dataclass, field\n"
        "LIMIT = 3\n"
        "def f(a, b=1, *args, c, d=2, **kw):\n"
        "    return lambda x, y=0: x + y\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    size: int\n"
        "    label: str = ''\n"
        "    items: list = field(default_factory=list)\n"
        "class Plain:\n"
        "    colour: str = 'red'\n"
        "    def paint(self, coat=1):\n"
        "        return coat\n")
    (pkg / "cli.py").write_text(
        "def build_parser(parser):\n"
        "    def common(sp):\n"
        "        sp.add_argument('--tol')\n"
        "    parser.add_argument('--seed')\n"
        "    common(parser)\n"
        "def other(parser):\n"
        "    parser.add_argument('--ignored')\n")
    got = {(kind, name) for _, _, kind, name in load_tool().settable(pkg)}
    assert got == {("parameter", "f(b)"), ("parameter", "f(d)"), ("parameter", "<lambda>(y)"),
                   ("field", "Box.label"), ("field", "Box.items"),
                   ("parameter", "paint(coat)"), ("option", "--tol"), ("option", "--seed")}
