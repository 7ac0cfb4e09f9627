#!/usr/bin/env python3
"""List the statements of src/planar_rook that no test executes, with the standard library alone.

Runs pytest in this process under a ``sys.settrace`` line tracer that follows
only code in src/planar_rook, then finds each module's statements with
``ast`` and prints every one that never ran as ``path:line: source``,
followed by a count.  Docstrings are not statements here, nor are
``global`` and ``nonlocal``, which run no code.  A statement counts as run
when a line of its header (decorators included, body excluded) ran.  The
exit status is pytest's.

Usage:
    python3 scripts/uncovered.py [pytest arguments ...]    # default: -q tests
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "planar_rook"


def _statements(tree: ast.AST):
    """Every statement of the module that runs code, with the lines of its header."""
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and _is_docstring(body[0]):
            body = body[1:]
        # An except or case clause is a node of its own, walked with its body.
        for block in (body, getattr(node, "orelse", None), getattr(node, "finalbody", None)):
            for stmt in block if isinstance(block, list) else ():
                if isinstance(stmt, ast.stmt) and not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                    yield stmt, _header(stmt)


def _is_docstring(stmt: ast.AST) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def _header(stmt: ast.stmt) -> range:
    """The lines of a statement up to its first nested statement: a compound statement's body is not its own."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    nested = [child.lineno for child in ast.iter_child_nodes(stmt) if isinstance(child, ast.stmt)]
    last = min(nested) - 1 if nested else stmt.end_lineno
    return range(first, max(last, stmt.lineno) + 1)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # import the package from this checkout, traced from its first line
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    traced: dict[object, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in traced:
            traced[code] = code.co_filename.startswith(prefix)
            if traced[code]:
                ran.setdefault(code.co_filename, set())
        return local if traced[code] else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        for stmt, header in sorted(_statements(ast.parse(source)), key=lambda item: item[0].lineno):
            total += 1
            if hit.isdisjoint(header):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print(f"{missed} of {total} statements in {PACKAGE.relative_to(ROOT)} never ran")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
