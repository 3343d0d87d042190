"""Every module under ``src/repro`` uses what it imports and what it defines.

The repository runs no linter, so this is the guard against dead code:

* each non-``__init__`` module is parsed with :mod:`ast`, and an imported
  name that the module never references (as a name, an attribute base, a
  string annotation or an ``__all__`` entry) fails the test.  Package
  ``__init__`` files are skipped: importing to re-export is their job.
* a top-level function or class, or a non-dunder method, under
  ``src/repro`` fails when its name is referenced nowhere outside its own
  definition in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``.  A
  reference is a name, an attribute, an imported name, or a string constant
  that is a (dotted) identifier (``__all__`` entries, ``getattr`` and
  ``monkeypatch.setattr`` targets).  Comments and docstrings do not count.
  The check is by name, so a method shares its name with every other
  definition of that name; a name that only tests use still counts as used.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
MODULES = sorted(p for p in SOURCE.rglob("*.py") if p.name != "__init__.py")
#: Where a definition under ``src/repro`` may be referenced from.
REFERENCE_ROOTS = ("src", "tests", "benchmarks", "examples")
_DOTTED_IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*")


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


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str, int, int]]:
    """``(label, name, first_line, last_line)`` of every checked definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    label = f"{node.name}.{member.name}"
                    yield label, member.name, member.lineno, member.end_lineno


def _name_uses(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every reference a definition can be used by."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED_IDENTIFIER.fullmatch(node.value)
        ):
            for part in node.value.split("."):
                yield part, node.lineno


def _unreferenced_definitions() -> List[str]:
    uses: Dict[str, List[Tuple[Path, int]]] = {}
    definitions = []
    for root in REFERENCE_ROOTS:
        for path in sorted((ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for name, line in _name_uses(tree):
                uses.setdefault(name, []).append((path, line))
            if path.is_relative_to(SOURCE):
                definitions.extend((path, *d) for d in _definitions(tree))
    assert len(definitions) > 500
    dead = []
    for path, label, name, first, last in definitions:
        if not any(
            use_path != path or not first <= line <= last
            for use_path, line in uses.get(name, ())
        ):
            dead.append(f"{path.relative_to(SOURCE)}:{first} {label}")
    return dead


def test_every_definition_is_referenced():
    dead = _unreferenced_definitions()
    assert not dead, "definitions referenced nowhere: " + ", ".join(dead)
