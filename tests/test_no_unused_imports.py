"""Every module-level import in ``src/repro`` is used.

A stdlib :mod:`ast` scan stands in for a linter's unused-import rule so
the check runs wherever the test suite does.  Package ``__init__.py``
files are exempt (their imports are the re-export surface), as is any
import line marked ``# noqa: F401`` — a deliberate import kept for its
side effect or for a tool that patches the name.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements at module level, including under if/try blocks."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)
            pending.extend(getattr(node, "finalbody", []))


def _used_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, including inside string annotations."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations ("OrderedDict[tuple, Any]") and __all__
            # entries name imports without an ast.Name node.
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                inner.id
                for inner in ast.walk(expression)
                if isinstance(inner, ast.Name)
            )
    return used


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of every unused module-level import in *path*."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _used_names(tree)
    unused: List[Tuple[int, str]] = []
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "# noqa: F401" in statement:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_scanner_flags_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Any, List\n"
        "def f(x: 'List[int]') -> Any:\n"
        "    return x\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(1, "os")]


def test_no_unused_module_imports():
    modules = [
        path for path in PACKAGE_ROOT.rglob("*.py") if path.name != "__init__.py"
    ]
    assert len(modules) > 20
    unused = {
        str(path.relative_to(PACKAGE_ROOT)): names
        for path in sorted(modules)
        if (names := unused_imports(path))
    }
    assert unused == {}
