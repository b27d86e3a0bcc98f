"""List the statements of src/cfcolor that the Tier-1 tests never run.

Usage, from anywhere: ``python3 tools/unreached.py``.

A line tracer is installed before ``cfcolor`` is imported; pytest then runs
``tests/`` in this process without ``tests/test_acceptance.py``, which is
too slow under the tracer. Each statement of ``src/cfcolor/*.py`` that
never ran is printed to stdout as ``path:line: text``; pytest's own report
goes to stderr. The body of ``if __name__ == "__main__":`` is skipped: it
runs only in a separate process. The exit status is always 0, because the
list is a report, not a gate.

Uses only the standard library and pytest (``coverage`` is not assumed).
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path
from types import CodeType, FrameType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cfcolor"


def _tracer(prefix: str, hit: dict[str, set[int]]):
    """A sys.settrace hook that adds to hit[file] every line run in a file
    whose path starts with prefix. Each frame's hook holds its file's set,
    which is faster than adding (file, line) pairs to one set."""
    def tracer(frame: FrameType, _event: str, _arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = hit.setdefault(path, set())

        def local(frame: FrameType, event: str, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return tracer


def _code_lines(code: CodeType) -> set[int]:
    """Every line that some instruction of code, or of a code object nested
    in it, is attributed to: the lines a tracer can ever see."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _is_main_guard(node: ast.stmt) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in node.test.comparators))


def _statements(tree: ast.Module):
    """Yield (statement, its own lines): a compound statement owns its
    header lines, up to its first nested statement; a simple one owns all
    its lines."""
    todo: list[ast.stmt] = list(tree.body)
    while todo:
        node = todo.pop()
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
        blocks += [part.body for part in getattr(node, "handlers", []) + getattr(node, "cases", [])]
        nested = [child for block in blocks for child in block]
        end = min([child.lineno - 1 for child in nested] or [node.end_lineno])
        yield node, range(start, max(start, end) + 1)
        if _is_main_guard(node):
            todo.extend(node.orelse)
        else:
            todo.extend(nested)


def unreached(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    text = path.read_text()
    executable = _code_lines(compile(text, str(path), "exec"))
    source = text.splitlines()
    found = []
    for node, lines in _statements(ast.parse(text)):
        own = executable.intersection(lines)
        if own and not own & hit:
            found.append((node.lineno, source[node.lineno - 1].strip()))
    return sorted(found)


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    hit: dict[str, set[int]] = {}
    tracer = _tracer(str(SRC) + os.sep, hit)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                                  "--ignore", str(ROOT / "tests" / "test_acceptance.py")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"pytest exited {int(status)}; the list below may be incomplete",
              file=sys.stderr)
    for path in sorted(SRC.glob("*.py")):
        for line, text in unreached(path, hit.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
