#!/usr/bin/env python3
"""List the statements of src/planar_rook that no test executes, with the standard library alone.

Runs pytest in this process under a ``sys.settrace`` line tracer that follows
only code in src/planar_rook, then finds each module's statements with
``ast`` and prints every one that never ran as ``path:line: source``,
followed by a count.  Docstrings are not statements here, nor are
``global`` and ``nonlocal``, which run no code.  A statement counts as run
when a line of its header (decorators included, body excluded) ran.

With ``--expect FILE`` the run is also a ratchet.  FILE is a JSON list of the
statements allowed to stay unrun, each an object with its ``file``, its
enclosing ``function`` (``Class.method``; ``<module>`` at the top level), the
``statement``'s header text (its lines stripped and joined by one space, not
its line number) and a one-line ``reason``.  The script then exits 1 when a
statement outside the list never runs, or a listed one now runs or no longer
exists.  Otherwise the exit status is pytest's.

Usage:
    python3 scripts/uncovered.py [--expect FILE] [pytest arguments ...]    # default: -q tests
"""

from __future__ import annotations

import ast
import json
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "planar_rook"
FIELDS = ("file", "function", "statement", "reason")


def _statements(node: ast.AST, function: str = "<module>"):
    """Every statement under ``node`` that runs code, with the lines of its header and its enclosing function."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and _is_docstring(body[0]):
        body = body[1:]
    # An except or case clause is a node of its own, visited with its body.
    for block in (body, getattr(node, "orelse", None), getattr(node, "finalbody", None)):
        for stmt in block if isinstance(block, list) else ():
            if isinstance(stmt, ast.stmt) and not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                yield stmt, _header(stmt), function
    for child in ast.iter_child_nodes(node):
        inner = function
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if function == "<module>" else f"{function}.{child.name}"
        yield from _statements(child, inner)


def _is_docstring(stmt: ast.AST) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def _header(stmt: ast.stmt) -> range:
    """The lines of a statement up to its first nested statement: a compound statement's body is not its own."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    nested = [child.lineno for child in ast.iter_child_nodes(stmt) if isinstance(child, ast.stmt)]
    last = min(nested) - 1 if nested else stmt.end_lineno
    return range(first, max(last, stmt.lineno) + 1)


def module_statements(path: Path):
    """(line, key, header) of each statement of one source file, in line order; key is (file, function, text)."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    name = str(path.relative_to(ROOT))
    for stmt, header, function in sorted(_statements(ast.parse(source)), key=lambda item: item[0].lineno):
        yield stmt.lineno, (name, function, " ".join(lines[i - 1].strip() for i in header)), header


def load_expected(path: Path) -> list[dict]:
    """The entries of an expect file; a ValueError names the first entry that is not four one-line strings."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected a JSON list of entries")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and tuple(entry) == FIELDS
                and all(isinstance(v, str) and v.strip() == v and v and "\n" not in v for v in entry.values())):
            raise ValueError(f"{path}: entry {i} must map {', '.join(FIELDS)}, in that order, to one-line strings")
    return entries


def ratchet(entries: list[dict], unrun: list[tuple], present: Counter) -> list[str]:
    """The faults of a run against the expect list: new unrun statements, listed ones that run or are gone."""
    listed = {tuple(entry[f] for f in FIELDS[:3]) for entry in entries}
    faults = [f"never ran and is not listed: {' | '.join(key)}" for key in unrun if key not in listed]
    for key in sorted(listed):
        if not present[key]:
            faults.append(f"listed but no longer exists: {' | '.join(key)}")
        elif key not in unrun:
            faults.append(f"listed but now runs: {' | '.join(key)}")
    return faults


def main(argv: list[str]) -> int:
    expect = None
    if argv[:1] == ["--expect"]:
        expect, argv = load_expected(Path(argv[1])), argv[2:]
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

    unrun, present = [], Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        hit = ran.get(str(path), set())
        for line, key, header in module_statements(path):
            present[key] += 1
            if hit.isdisjoint(header):
                unrun.append(key)
                print(f"{key[0]}:{line}: {lines[line - 1].strip()}")
    print(f"{len(unrun)} of {sum(present.values())} statements in {PACKAGE.relative_to(ROOT)} never ran")
    if expect is None:
        return int(status)
    faults = ratchet(expect, unrun, present)
    for fault in faults:
        print(fault)
    print(f"{len(faults)} differences from the {len(expect)} listed statements")
    return int(status) or int(bool(faults))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
