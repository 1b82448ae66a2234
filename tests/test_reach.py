"""tools/reach.py: the rule that matches a called code object to a function.

The tool itself is a CI step of its own (about 14 s on a 2-core host, too
long for tier-1); these tests pin its matching rule on a small package and
check that every name it records is a function of the package.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_code_object_is_matched_on_its_first_line_the_first_decorators(tmp_path, monkeypatch):
    pkg = tmp_path / "reachpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "core.py").write_text(
        "import functools\n"
        "def logged(fn):\n"
        "    return fn\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    @logged\n"
        "    @functools.cache\n"
        "    def unused(self):\n"
        "        return 2\n"
        "def outer():\n"
        "    def inner():\n"
        "        return 3\n"
        "    return inner()\n"
        "def never():\n"
        "    return 4\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tool = load_tool()
    with tool.reaching() as seen:
        core = importlib.import_module("reachpkg.core")  # applies logged
        assert core.Box().size == 1 and core.outer() == 3
    # the property was read and the nested function called; a rule that
    # matched on the def line would list the property too
    assert tool.unreached(pkg, seen) == ["core.Box.unused", "core.never"]
    found = tool.functions(pkg)
    core_py = (pkg / "core.py").resolve()
    assert found[core_py, 5] == "core.Box.size"  # the line of @property, not of its def
    assert found[core_py, 8] == "core.Box.unused"
    assert found[core_py, 13] == "core.outer.<locals>.inner"


def test_every_kept_function_is_a_function_of_the_package():
    tool = load_tool()
    assert set(tool.KEPT) <= set(tool.functions(ROOT / "src" / "bezoutian").values())
