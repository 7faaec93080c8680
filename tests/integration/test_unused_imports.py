"""No module under ``src/repro`` keeps an import it never uses.

A stdlib-``ast`` scan (the repo has no lint step): every name bound by a
module-level ``import`` must be referenced somewhere in that module, in
code, in a string annotation or in ``__all__``.  Package
``__init__.py`` files are exempt (their imports are the re-exports), as
is a line marked ``# noqa: F401`` (an import kept for its side effect).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _module_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of every import outside functions/classes."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, ()))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in
                            args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg]
                            if a is not None and a.annotation is not None]
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    for annotation in annotations:  # "asyncio.Future[Any]" and friends
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> List[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _used_names(tree)
    return [
        f"{path}:{line}: {name}"
        for name, line in _module_imports(tree)
        if name not in used and "noqa: F401" not in lines[line - 1]
    ]


def test_no_unused_module_level_imports():
    found = [entry
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for entry in unused_imports(path)]
    assert found == [], "unused imports:\n" + "\n".join(found)


def test_scan_catches_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom typing import List, Tuple\n"
                     "x: 'List[int]' = []\n", encoding="utf-8")
    found = sorted(entry.rsplit(": ", 1)[1]
                   for entry in unused_imports(probe))
    assert found == ["Tuple", "os"]
