"""Count the code lines of each module of the package.

    python3 tools/code_lines.py [DIR]

A code line is a line that holds a token of code: blank lines, lines that
hold only a comment and the lines of a module, class or function docstring
do not count.  Prints one line per module of DIR (by default src/artifact),
the largest first, then the total.  Stdlib only.
"""

import ast
from pathlib import Path
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path):
    """The number of code lines of the Python source file at path."""
    with open(path, "rb") as f:
        lines = set()
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(Path(path).read_bytes())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "artifact"
    counts = {p.stem: code_lines(p) for p in sorted(root.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print("%-12s %5d" % (name, n))
    print("%-12s %5d" % ("total", sum(counts.values())))


if __name__ == "__main__":
    main(sys.argv)
