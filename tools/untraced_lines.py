"""List the statements of src/topocode that a pytest run never executes.

Runs pytest in this process under a ``sys.settrace`` line tracer and prints
one line per statement none of whose own lines ran, ``path:line: source``,
then a total per file.  A statement's own lines are those of its header (a
compound statement's lines before its first body statement) that hold
bytecode; docstrings and other lines without bytecode never count.  Code
that runs only in a child interpreter (the tests that start
``python -m topocode`` or a fresh import) is not traced, so it is listed.

Standard library only, besides pytest.  From the repository root:

    python tools/untraced_lines.py            # the whole suite, quietly
    python tools/untraced_lines.py tests/test_cli.py -x

Arguments go to pytest unchanged.  The exit code is pytest's.  Tracing makes
the suite several times slower, so a test that bounds its own wall time may
fail here and pass untraced.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "topocode"


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in a code object and all it nests."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.AST) -> list[tuple[ast.stmt, range]]:
    """Each statement with its own lines: up to its first body statement, or all of it."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            end = body[0].lineno if isinstance(body, list) and body else node.end_lineno + 1
            out.append((node, range(node.lineno, end)))
    return out


def untraced(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    """(line, source) of each statement in the file with code on its own lines and none of them hit."""
    source = path.read_text(encoding="utf-8")
    code_lines = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    missed = []
    for node, own in _statements(ast.parse(source, str(path))):
        runnable = code_lines.intersection(own)
        if runnable and not runnable & hit:
            missed.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(set(missed))


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = untraced(path, hits.get(str(path), set()))
        total += len(missed)
        for line, text in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{total} statements in {PACKAGE.relative_to(ROOT)} never executed; pytest exit code {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
