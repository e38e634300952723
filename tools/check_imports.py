#!/usr/bin/env python
"""Unused-import gate.

Walks the given Python files/packages and reports every name a module
binds with a module-level ``import`` / ``from ... import`` statement and
then never reads.  A name counts as read when it appears as an
identifier anywhere in the module (function bodies and annotations
included, string annotations parsed), is listed in the module's
``__all__``, or is imported *from* that module by another checked module
(``from repro.a import name`` keeps ``name`` alive in ``repro.a``).
Package ``__init__.py`` files are exempt: their imports are the
package's re-exports.  ``from __future__`` and star imports are skipped.

Usage:
    python tools/check_imports.py PATH [PATH ...]

Exits 1 and lists offenders if any are found.  Uses only the standard
library (``ast``), so it runs before any dependency is installed.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple


def iter_python_files(paths: List[str]) -> Iterator[Path]:
    """Expand files and directories into .py files, sorted for stable output."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def module_name(path: Path) -> str:
    """Dotted module name, found by climbing ``__init__.py`` packages."""
    path = path.resolve()
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts)


def _module_level(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements at module level, descending into ``if``/``try`` blocks."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _module_level(stmt.body)
            yield from _module_level(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _module_level(stmt.body)
            for handler in stmt.handlers:
                yield from _module_level(handler.body)
            yield from _module_level(stmt.orelse)
            yield from _module_level(stmt.finalbody)


def imported_names(tree: ast.Module) -> List[Tuple[int, str]]:
    """(line, bound name) for every module-level import binding."""
    bound: List[Tuple[int, str]] = []
    for stmt in _module_level(tree.body):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((stmt.lineno, name))
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name != "*":
                    bound.append((stmt.lineno, alias.asname or alias.name))
    return bound


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """Identifiers inside string annotations such as ``"MappedNode"``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    yield name.id


def used_names(tree: ast.Module) -> Set[str]:
    """Every identifier the module reads, plus its ``__all__`` entries."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
    for stmt in tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets) and stmt.value is not None:
            for elt in ast.walk(stmt.value):
                if isinstance(elt, ast.Constant) and isinstance(elt.value,
                                                                 str):
                    used.add(elt.value)
    return used


def imports_from(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """(module, name) for every ``from module import name`` anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield node.module, alias.name


def unused_imports(paths: List[str]) -> List[Tuple[Path, int, str]]:
    """(file, line, name) for every unused module-level import binding."""
    trees: Dict[Path, ast.Module] = {}
    for path in iter_python_files(paths):
        trees[path] = ast.parse(path.read_text(), filename=str(path))
    reexported: Dict[str, Set[str]] = {}
    for tree in trees.values():
        for module, name in imports_from(tree):
            reexported.setdefault(module, set()).add(name)
    offenders: List[Tuple[Path, int, str]] = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        used = used_names(tree) | reexported.get(module_name(path), set())
        for lineno, name in imported_names(tree):
            if name not in used:
                offenders.append((path, lineno, name))
    return offenders


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="fail when a module-level import is never used")
    parser.add_argument("paths", nargs="+",
                        help="python files or package directories")
    args = parser.parse_args(argv)

    files = list(iter_python_files(args.paths))
    if not files:
        print("check_imports: no python files found", file=sys.stderr)
        return 2
    offenders = unused_imports(args.paths)
    for path, lineno, name in offenders:
        print(f"{path}:{lineno}: unused import: {name}")
    if offenders:
        modules = len({path for path, _line, _name in offenders})
        print(f"\n{len(offenders)} unused imported names in {modules} "
              f"modules ({len(files)} files checked)")
        return 1
    print(f"imports ok ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
