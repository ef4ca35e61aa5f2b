"""Statements of src/byzgrad that the tests never execute.

    python tests/uncovered.py [pytest argument ...]

runs pytest in this process, on tests/ or on the given arguments, under a
sys.settrace line tracer, then prints each statement of src/byzgrad that
never ran, as path:line: source, and their count. Docstrings and def and
class lines are left out: they run when a module is imported. Code run in
other processes, such as a sweep's worker pool or a CLI subprocess, is not
seen. The exit status is pytest's. Stdlib only; the whole tier-1 suite takes
about two minutes under the tracer.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "byzgrad"

# Statements left out: definitions run at import, and global and nonlocal compile to nothing.
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


def statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement's own lines in source, in order.

    A compound statement's own lines end before its body, so a loop counts as
    run when its header did. Docstrings and def, class, global and nonlocal
    statements are left out.
    """
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or a bare constant, which compiles to nothing
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans.append((node.lineno, max(last, node.lineno)))
    return sorted(spans)


def _tracer(prefix: str, executed: set[tuple[str, int]]):
    """A sys.settrace function recording (file, line) for code in files under prefix."""

    def lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    return calls


def main(argv: list[str]) -> int:
    import pytest

    executed: set[tuple[str, int]] = set()
    tracer = _tracer(str(PACKAGE), executed)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = {line for name, line in executed if name == str(path)}
        for first, last in statements(source):
            if ran.isdisjoint(range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
                missed += 1
    print(f"{missed} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
