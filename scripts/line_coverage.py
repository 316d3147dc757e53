#!/usr/bin/env python3
"""Line coverage of ``src/flextri`` under the tier-1 tests, with the standard
library only.

Runs pytest in this process (by default on ``tests/``, the tier-1 suite)
under a ``sys.settrace`` hook that records every line executed in a file of
``src/flextri``, then prints, per module, the executable lines that never
ran and a total.  A line is executable when some code object compiled from
the module maps an instruction to it (``co_lines``).  Code run by a
subprocess that a test starts is not seen.

Run it as ``python3 scripts/line_coverage.py [PYTEST ARG ...]`` from the
repository root; the arguments replace the default ``tests``, so
``python3 scripts/line_coverage.py tests/test_verify.py`` measures one
file.  pytest's own exit code is printed but does not change the listing;
the script exits 0.  Under the hook the tier-1 suite takes a few times its
usual wall time.

``python3 scripts/line_coverage.py --count`` runs no tests: it prints each
module's code lines, the lines that hold a token other than a comment or
a docstring, and their total.  That count measures the size of
``src/flextri``; editing a comment or a docstring does not move it.
"""

import ast
import io
import sys
import threading
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flextri"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of ``path`` that some instruction of its compiled
    code maps to."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


# tokens that hold no code: layout, comments, and the file's bounds
NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a token other than a
    comment or a docstring, the string that opens a module, class or
    function body; a token over several lines counts on each."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NO_CODE and (tok.type != tokenize.STRING or tok.start not in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.relative_to(ROOT)}: {n} code lines")
    print(f"total: {total} code lines")
    return 0


def spans(numbers) -> str:
    """Sorted line numbers as comma-separated runs, e.g. ``3-5, 9``."""
    out, numbers = [], sorted(numbers)
    start = prev = numbers[0]
    for n in numbers[1:] + [None]:
        if n != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = n
        prev = n
    return ", ".join(out)


def main(argv) -> int:
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        # only frames of the package get line events
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(scope)
    sys.settrace(scope)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    print(f"pytest exit code {int(code)}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missing = lines - seen.get(str(path), set())
        total += len(lines)
        missed += len(missing)
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(lines) - len(missing)}/{len(lines)} lines run"
              + (f"; never run: {spans(missing)}" if missing else ""))
    print(f"total: {total - missed}/{total} executable lines run, {missed} never")
    return 0


if __name__ == "__main__":
    sys.exit(count() if sys.argv[1:] == ["--count"] else main(sys.argv[1:]))
