"""List the statements of the package that a pytest run never executes.

    python3 tools/unreached.py [PYTEST ARGS]

Runs pytest in this process, with ``-p no:cacheprovider`` and the given
arguments, under a line tracer (``sys.settrace`` and ``threading.settrace``)
that records only the modules ``src/artifact/*.py``.  A statement is an
``ast`` statement other than a def, a class, an import or a docstring, and it
ran when any of its lines ran.  Prints the first line of each statement that
never ran, module by module, then the total, and exits with pytest's status.

Code run in a subprocess, such as ``cli.main`` under ``python -m
artifact.cli``, is not seen, so its statements are listed even when a test
runs them there.  Tracing every line is slow: the whole tier-1 suite takes
about three minutes this way on a 2-CPU machine, against 40 s untraced, so
run it by hand.  Stdlib and pytest only.
"""

import ast
from pathlib import Path
import sys
import threading

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "artifact"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIP = (*_DEFS, ast.Import, ast.ImportFrom)


def statement_lines(path):
    """The set of (first line, last line) of each statement of the Python
    source file at path, other than a def, a class, an import or a
    docstring."""
    tree = ast.parse(Path(path).read_bytes())
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *_DEFS))
            and ast.get_docstring(node, False) is not None}
    return {(node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, _SKIP)
            and id(node) not in docs}


def main(args):
    ran = {str(p): set() for p in sorted(_SRC.glob("*.py"))}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path, lines in ran.items():
        missed = sorted({first for first, last in statement_lines(path)
                         if lines.isdisjoint(range(first, last + 1))})
        total += len(missed)
        print("%s: %d" % (Path(path).name, len(missed)))
        text = Path(path).read_text().splitlines()
        for first in missed:
            print("  %d: %s" % (first, text[first - 1].strip()))
    print("total: %d" % total)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
