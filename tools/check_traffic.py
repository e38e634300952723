#!/usr/bin/env python
"""Dead-code gate: every definition in ``src/repro`` needs a production caller.

Lists every top-level function, top-level class and method of a
top-level class in ``src/repro`` whose name is referenced nowhere outside
its own body in the production callers:

* ``src/repro`` itself, ``perfbench/``, ``tools/``, ``examples/`` and
  ``benchmarks/`` (``tests/`` is not a caller);
* a reference is an identifier, an attribute name or a string constant
  that spells a (dotted) identifier, such as the patch targets
  ``"set_input_arrival"`` that perfbench names as strings;
* docstrings, ``__all__`` lists and ``import`` statements are not
  references: a re-export alone keeps nothing alive.

Matching is by bare name, so a call ``x.update()`` keeps every method
called ``update`` alive.  Dunder methods are exempt (the runtime calls
them).  The allowlist (``tools/traffic_allowlist.txt`` by default) names
exempt packages, modules and documented definitions by dotted path, one
per line, each followed by its reason; an entry that matches no
definition is itself an error, so the list cannot rot.

Usage:
    python tools/check_traffic.py [--root REPO] [--allowlist FILE]

Exits 1 and lists offenders if any are found.  Uses only the standard
library (``ast``).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_imports import iter_python_files, module_name  # noqa: E402

#: Directories (relative to the repository root) whose code is a caller.
CALLER_DIRS = ("src/repro", "perfbench", "tools", "examples", "benchmarks")
#: The package whose definitions are checked.
PACKAGE_DIR = "src/repro"
DEFAULT_ALLOWLIST = Path(__file__).resolve().parent / "traffic_allowlist.txt"

DOTTED_RE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

#: (file, first line, last line) of a definition.
Span = Tuple[Path, int, int]


def definitions(tree: ast.Module, module: str,
                path: Path) -> Iterator[Tuple[str, str, Span]]:
    """(qualified name, bare name, span) of every checked definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield (f"{module}.{node.name}", node.name,
               (path, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds[:2]) and not (
                        sub.name.startswith("__")
                        and sub.name.endswith("__")):
                    yield (f"{module}.{node.name}.{sub.name}", sub.name,
                           (path, sub.lineno, sub.end_lineno))


def _skipped_strings(tree: ast.Module) -> Set[int]:
    """ids of the docstring and ``__all__`` constants of a module."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)):
            skipped.add(id(body[0].value))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    return skipped


def references(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(name, line) of every reference the module makes."""
    skipped = _skipped_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped
              and DOTTED_RE.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def read_allowlist(path: Path) -> Dict[str, str]:
    """Entry -> reason; a line without a reason raises ``ValueError``."""
    entries: Dict[str, str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry, _, reason = line.partition(" ")
        if not reason.strip():
            raise ValueError(f"{path}:{number}: {entry} has no reason")
        entries[entry] = reason.strip()
    return entries


def _allowed(qualname: str, allow: Dict[str, str]) -> str:
    """The allowlist entry covering ``qualname``, or ``""``."""
    parts = qualname.split(".")
    for i in range(len(parts), 0, -1):
        prefix = ".".join(parts[:i])
        if prefix in allow:
            return prefix
    return ""


def unreferenced(root: Path, allow: Dict[str, str]
                 ) -> Tuple[List[Tuple[str, Span]], List[str]]:
    """(offending definitions, allowlist entries that match nothing)."""
    seen: Dict[str, List[Tuple[Path, int]]] = {}
    defs: List[Tuple[str, str, Span]] = []
    for directory in CALLER_DIRS:
        if not (root / directory).is_dir():
            continue
        for path in iter_python_files([str(root / directory)]):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, line in references(tree):
                seen.setdefault(name, []).append((path, line))
            if directory == PACKAGE_DIR:
                defs.extend(definitions(tree, module_name(path), path))
    used_entries: Set[str] = set()
    offenders: List[Tuple[str, Span]] = []
    for qualname, name, (path, first, last) in defs:
        entry = _allowed(qualname, allow)
        if entry:
            used_entries.add(entry)
            continue
        if not any(p != path or not first <= line <= last
                   for p, line in seen.get(name, ())):
            offenders.append((qualname, (path, first, last)))
    stale = sorted(set(allow) - used_entries)
    return offenders, stale


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="fail when a src/repro definition has no production "
                    "caller")
    parser.add_argument("--root", default=str(Path(__file__).resolve()
                                              .parent.parent),
                        help="repository root (default: this checkout)")
    parser.add_argument("--allowlist", default=str(DEFAULT_ALLOWLIST),
                        help="exempt names, one per line with a reason")
    args = parser.parse_args(argv)

    root = Path(args.root)
    allow_path = Path(args.allowlist)
    allow = read_allowlist(allow_path) if allow_path.is_file() else {}
    offenders, stale = unreferenced(root, allow)
    for qualname, (path, first, last) in offenders:
        lines = last - first + 1
        print(f"{path.relative_to(root)}:{first}: no production caller: "
              f"{qualname} ({lines} lines)")
    for entry in stale:
        print(f"{allow_path}: allowlist entry matches nothing: {entry}")
    if offenders or stale:
        print(f"\n{len(offenders)} unreferenced definitions, "
              f"{len(stale)} stale allowlist entries")
        return 1
    print("traffic ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
