"""List the lines of `src/effc` that the test suite never executes.

    python tools/linetrace.py [pytest arguments]

Runs pytest in-process (by default on `tests`, quietly) with a `sys.settrace`
line tracer, then prints the executable lines of `src/effc` that no test ran,
one line per function, except the lines that `ALLOWED` below expects to stay
unexecuted.  Only the standard library and pytest are needed.

The tracer is armed before pytest imports anything and re-armed before each
test phase: CPython switches tracing off when the trace function itself
fails, as it does when a test runs into the recursion limit.  Lines that run
only after a `RecursionError`, or only in a subprocess, are therefore never
seen; `ALLOWED` names them.

Exit status: 0 when every unexecuted line is allowed and every `ALLOWED`
entry still matches an unexecuted line, 1 otherwise.
"""

from __future__ import annotations

import ast
import collections
import dis
import fnmatch
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "effc"

# (file, function, line pattern, reason): an unexecuted line is allowed when
# the file and the name of its innermost enclosing function (`<module>` at
# top level) match the first two as `fnmatch` globs and the stripped text of
# the line, or of the first line of a statement or `except` clause around it,
# matches the third as a regular expression.
AFTER_RECURSION = "runs only after a RecursionError in its test, which switches the tracer off"
ALLOWED = [
    ("*", "*", r"raise TypeError\(", "fall-through for a class the function does not handle"),
    ("cli.py", "_internal", r"", AFTER_RECURSION),
    ("cli.py", "<module>", r"sys\.exit\(main\(\)\)", "runs only in `python -m effc.cli` subprocesses"),
]


def executable_lines(path: pathlib.Path) -> set:
    """The lines at which some instruction of the file's code starts."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # a module starts at 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def enclosing(path: pathlib.Path) -> tuple:
    """(line -> name of the innermost function around it, line -> first lines
    of the statements and `except` clauses around it, outermost first)."""
    funcs, heads = {}, {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
                for line in range(child.lineno, child.end_lineno + 1):
                    funcs[line] = inner
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                for line in range(child.lineno, child.end_lineno + 1):
                    heads.setdefault(line, []).append(child.lineno)
            visit(child, inner)

    visit(ast.parse(path.read_text()), "<module>")
    return funcs, heads


class LineTracer:
    """A pytest plugin that records the lines executed in `src/effc`."""

    def __init__(self):
        self.prefix = str(SRC) + "/"
        self.hits = collections.defaultdict(set)  # file name -> executed lines

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(self.prefix) else None

    def arm(self):
        sys.settrace(self._global)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self.arm()


def allowed(file: str, func: str, texts: list):
    """The index of the first `ALLOWED` entry that covers a line, given the
    texts of the line and of the statement heads around it, or None."""
    for i, (file_glob, func_glob, pattern, _) in enumerate(ALLOWED):
        if fnmatch.fnmatch(file, file_glob) and fnmatch.fnmatch(func, func_glob):
            if any(re.match(pattern, text) for text in texts):
                return i
    return None


def ranges(lines: list) -> str:
    """`[3, 4, 5, 9]` as `3-5 9`."""
    out, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
    return " ".join(out)


def report(hits: dict) -> int:
    unlisted: dict = {}  # (file, function) -> unexecuted lines
    raises = 0
    used = set()
    for path in sorted(SRC.glob("*.py")):
        ran = hits[str(path)]
        funcs, heads = enclosing(path)
        source = [text.strip() for text in path.read_text().splitlines()]
        for line in sorted(executable_lines(path) - ran):
            around = heads.get(line, [])
            texts = [source[line - 1]] + [source[head - 1] for head in around]
            func = funcs.get(line, "<module>")
            i = allowed(path.name, func, texts)
            if i is None:
                unlisted.setdefault((path.name, func), []).append(line)
                raises += any(source[head - 1].startswith("raise ") for head in around)
            else:
                used.add(i)
    for (name, func), lines in unlisted.items():
        print(f"{name}:{func}  {ranges(lines)}")
    total = sum(map(len, unlisted.values()))
    print(
        f"{total} unexecuted lines in {len(unlisted)} functions outside the allowlist,"
        f" {raises} of them in `raise` statements"
    )
    stale = [entry for i, entry in enumerate(ALLOWED) if i not in used]
    for entry in stale:
        print(f"allowlist entry matches no unexecuted line: {entry[:3]}")
    return 1 if unlisted or stale else 0


def main(argv: list) -> int:
    tracer = LineTracer()
    tracer.arm()
    try:
        args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
        code = pytest.main(args, plugins=[tracer])
    finally:
        sys.settrace(None)
    print(f"pytest exit status {int(code)}")
    return report(tracer.hits)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
