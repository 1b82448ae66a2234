"""Every module-level import in src/, tests/ and tools/ is read somewhere in its file.

An AST scan, so nothing beyond the standard library is needed.  A name
counts as read when the file loads it (``ast.Name``) or lists it in
``__all__``.  ``__future__`` imports and the re-exports of ``__init__.py``
are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "tools")


def _module_imports(tree: ast.Module):
    """(line, bound name) of each import outside function and class bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name
        else:
            stack.extend(ast.iter_child_nodes(node))


def _read_names(tree: ast.Module) -> set:
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in ast.walk(node.value)
                      if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return names


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read_names(tree)
    return sorted((line, name) for line, name in _module_imports(tree) if name not in read)


def test_no_module_level_import_goes_unread():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(path)]
    assert found == []


def test_the_scan_sees_an_unread_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport json as j\nfrom math import pi, tau\n"
                    "try:\n    import csv\nexcept ImportError:\n    csv = None\n"
                    "def f():\n    import sys\n    return tau, csv\n"
                    "__all__ = ['pi']\n")
    assert unused_imports(path) == [(2, "os"), (3, "j")]
