"""Count the settable values of ``src/bezoutian``, read from the AST.

Usage, from the repository root:

    python3 tools/settable.py

A value is settable when a caller can choose it.  Three kinds count:

- a parameter with a default, of a function, method or lambda (positional
  or keyword-only);
- a field with a default, in a class decorated with ``dataclass``;
- an ``add_argument`` call in ``cli.build_parser``, counted once where it
  is written (the options of the shared ``common`` helper count once, not
  once per subcommand).

A parameter without a default is an input, not a setting, and a module
constant is not settable.  The tool prints each value, as
``path:line: kind name``, then the count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass") or \
        (isinstance(target, ast.Attribute) and target.attr == "dataclass")


def _parameters(node) -> list:
    """(line, name) of each parameter of a function or lambda node that has a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    owner = getattr(node, "name", "<lambda>")
    return [(arg.lineno, f"{owner}({arg.arg})") for arg in defaulted]


def _options(tree: ast.Module) -> list:
    """(line, flag) of each ``add_argument`` call inside ``build_parser``."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "build_parser":
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) \
                        and call.func.attr == "add_argument":
                    flag = call.args[0].value if call.args and \
                        isinstance(call.args[0], ast.Constant) else "?"
                    out.append((call.lineno, flag))
    return out


def settable(src: Path) -> list:
    """(path, line, kind, name) of every settable value under ``src``, in file order."""
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = path.relative_to(src.parent).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [(rel, line, "parameter", name) for line, name in _parameters(node)]
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                found += [(rel, stmt.lineno, "field", f"{node.name}.{stmt.target.id}")
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                          and isinstance(stmt.target, ast.Name)]
        if path.name == "cli.py":
            found += [(rel, line, "option", flag) for line, flag in _options(tree)]
    return sorted(found)


def main() -> int:
    values = settable(ROOT / "src" / "bezoutian")
    for path, line, kind, name in values:
        print(f"{path}:{line}: {kind} {name}")
    print(len(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
