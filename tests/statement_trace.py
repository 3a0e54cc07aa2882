"""Run pytest with a statement trace of the package and fail on a statement
that never runs.

Usage, from the repository root with the package on PYTHONPATH:

    python tests/statement_trace.py [PYTEST_ARGS...]

The arguments go to ``pytest.main`` unchanged. Line events are recorded with
``sys.settrace`` and ``threading.settrace``, only in frames whose code lies
under ``src/hyperscores``; nothing else is traced, so only the package pays
for the trace. The statements of each package file are found with ``ast``,
docstrings and ``global``/``nonlocal`` declarations left out, as they
compile to no code. A simple statement ran when some line it spans had a
line event; a compound one (``if``, ``for``, ``def``, ``try`` and so on)
when a line of its header did, from its first decorator to the line before
its body. A statement only a subprocess runs may stay unrun when ``ALLOWED``
names its source text; an allowance that names no statement fails the run.

Exit status: pytest's when it is not 0, else 1 if a statement never ran,
else 0. Every missed statement is printed as ``file:line`` followed by its
first source line.
"""

import ast
import os
import sys
import threading

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src", "hyperscores")

# Statements that may stay unrun, by source text: the body of cli.py's
# ``if __name__ == "__main__"``, which only runs as ``python cli.py``.
ALLOWED = {"cli.py": {"sys.exit(main())"}}


def statements(path):
    """(first line, last line, source text) of each statement of the file at
    path: the whole of a simple statement, the header of a compound one."""
    source = open(path, encoding="utf-8").read()
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if isinstance(getattr(node, "body", None), list):
            last = max(node.lineno, node.body[0].lineno - 1)
        else:
            last = node.end_lineno
        out.append((first, last, ast.get_source_segment(source, node)))
    return out


def main(argv):
    import pytest

    hits = {}  # real path of a package file -> the lines with a line event
    wanted = {}  # code object -> its file's hit set, or None outside the package

    def local(frame, event, arg):
        if event == "line":
            wanted[frame.f_code].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        code = frame.f_code
        if code not in wanted:
            path = os.path.realpath(code.co_filename)
            wanted[code] = hits.setdefault(path, set()) if path.startswith(PACKAGE + os.sep) else None
        return local if wanted[code] is not None else None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed, total, count, excused = [], 0, 0, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        ran, allowed, found = hits.get(os.path.realpath(path), set()), ALLOWED.get(name, set()), statements(path)
        total += len(found)
        for first, last, text in sorted(found):
            if ran.intersection(range(first, last + 1)):
                count += 1
            elif text in allowed:
                excused += 1
            else:
                missed.append(f"src/hyperscores/{name}:{first}: {text.splitlines()[0]}")
        stale = allowed - {text for *_, text in found}
        missed += [f"src/hyperscores/{name}: the allowance {t!r} names no statement" for t in sorted(stale)]
    print(f"statement trace: {count} of {total} statements ran, {excused} allowed unrun")
    for line in missed:
        print(line)
    if status:
        return int(status)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
