"""Every module under ``src/repro`` uses what it imports.

The repository runs no linter, so this is the guard against dead imports:
each non-``__init__`` module is parsed with :mod:`ast`, and an imported name
that the module never references (as a name, an attribute base, a string
annotation or an ``__all__`` entry) fails the test.  Package ``__init__``
files are skipped: importing to re-export is their job.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SOURCE.rglob("*.py") if p.name != "__init__.py")


def _imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _references(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("QueryResult") and __all__ entries.
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def test_modules_found():
    assert len(MODULES) > 40


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SOURCE)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _references(tree)
    unused: Dict[str, int] = {
        name: line for name, line in _imports(tree) if name not in used
    }
    assert not unused, f"{path.name}: unused imports {sorted(unused.items(), key=lambda kv: kv[1])}"
