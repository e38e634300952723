#!/usr/bin/env python
"""Markdown link checker for the repository docs.

Validates, for every given markdown file:

* **relative links** ``[text](target)`` — the target file (or directory)
  must exist, resolved against the markdown file's own directory;
  external (``http://``, ``https://``, ``mailto:``) and pure-anchor
  (``#...``) targets are skipped;
* **line fragments** ``(path#L42)`` — the target file must have at least
  42 lines;
* **file:line pointers** like ``src/repro/map/lifecycle.py:29`` appearing
  anywhere in the text — the file must exist and be at least that long.

Both kinds of line pointer must also land on a definition: the line must
be the ``def``, ``class`` or ``NAME =`` / ``NAME:`` line of a name
written in backticks in the same paragraph (for a dotted name such as
``BaseMapper._instantiate``, the last part counts).  A pointer whose code
moved therefore fails even while the file is still long enough.

Usage:
    python tools/check_links.py README.md docs/*.md

Exits 1 and lists every broken reference if any are found.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Optional, Set

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FILE_LINE_RE = re.compile(r"(?<![\w/.-])((?:src|tests|docs|examples|tools|"
                          r"benchmarks)/[\w./-]+\.\w+):(\d+)")
EXTERNAL = ("http://", "https://", "mailto:")
#: A backticked name: an identifier, optionally dotted or called.
NAME_RE = re.compile(r"`([A-Za-z_][\w.]*)(?:\(\))?`")
#: The name a ``def``, ``class`` or ``NAME =`` / ``NAME:`` line defines.
DEFINES_RE = re.compile(r"\s*(?:(?:async\s+)?def|class)\s+(\w+)"
                        r"|\s*([A-Za-z_]\w*)\s*(?::|=(?!=))")
PARAGRAPH_BREAK_RE = re.compile(r"\n[ \t]*\n")


def _paragraph_names(text: str, pos: int) -> Set[str]:
    """Last parts of the backticked names in the paragraph around ``pos``."""
    starts = [m.end() for m in PARAGRAPH_BREAK_RE.finditer(text, 0, pos)]
    start = starts[-1] if starts else 0
    end_m = PARAGRAPH_BREAK_RE.search(text, pos)
    end = end_m.start() if end_m else len(text)
    return {m.group(1).rsplit(".", 1)[-1]
            for m in NAME_RE.finditer(text, start, end)}


def _pointer_problem(path: Path, label: str, want: int,
                     names: Set[str]) -> Optional[str]:
    """Why line ``want`` of ``path`` is a bad target, or ``None``."""
    lines = path.read_text(errors="replace").split("\n")
    if not 1 <= want <= len(lines):
        return f"{label} names no line of the file ({len(lines)} lines)"
    m = DEFINES_RE.match(lines[want - 1])
    if m is None or (m.group(1) or m.group(2)) not in names:
        named = ", ".join(sorted(names)) or "none"
        return (f"{label} is not the definition of a backticked name in "
                f"its paragraph (names: {named})")
    return None


def check_file(md_path: Path, repo_root: Path) -> List[str]:
    """Return human-readable problem strings for one markdown file."""
    text = md_path.read_text()
    problems: List[str] = []

    for m in LINK_RE.finditer(text):
        target = m.group(1)
        lineno = text.count("\n", 0, m.start()) + 1
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        target, _, fragment = target.partition("#")
        resolved = (md_path.parent / target).resolve()
        if not resolved.exists():
            problems.append(
                f"{md_path}:{lineno}: broken link -> {target}")
            continue
        frag_line = re.fullmatch(r"L(\d+)", fragment)
        if frag_line and resolved.is_file():
            want = int(frag_line.group(1))
            problem = _pointer_problem(
                resolved, f"{target}#L{want}", want,
                _paragraph_names(text, m.start()))
            if problem:
                problems.append(f"{md_path}:{lineno}: {problem}")

    for m in FILE_LINE_RE.finditer(text):
        target, line_s = m.group(1), m.group(2)
        lineno = text.count("\n", 0, m.start()) + 1
        resolved = repo_root / target
        if not resolved.is_file():
            problems.append(
                f"{md_path}:{lineno}: pointer to missing file {target}")
            continue
        want = int(line_s)
        problem = _pointer_problem(
            resolved, f"pointer {target}:{want}", want,
            _paragraph_names(text, m.start()))
        if problem:
            problems.append(f"{md_path}:{lineno}: {problem}")
    return problems


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="fail on broken relative links / file:line pointers")
    parser.add_argument("files", nargs="+", help="markdown files to check")
    parser.add_argument("--root", default=".",
                        help="repository root for file:line pointers "
                             "(default: cwd)")
    args = parser.parse_args(argv)

    repo_root = Path(args.root).resolve()
    total = 0
    for name in args.files:
        md_path = Path(name)
        if not md_path.is_file():
            print(f"{name}: no such markdown file", file=sys.stderr)
            return 2
        for problem in check_file(md_path, repo_root):
            print(problem)
            total += 1
    if total:
        print(f"\n{total} broken references in {len(args.files)} files")
        return 1
    print(f"links ok ({len(args.files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
