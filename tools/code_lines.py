"""Code lines per module: the lines of a Python file that hold code, not
counting docstrings, comments or blank lines.

    python3 tools/code_lines.py src/porism_lab [more files or directories]

Prints one line per module, `<count> <path>`, and then the total.  A
docstring is the string that opens a module, class or function body; a line
counts as code if a token other than a comment or a docstring covers it, so
a statement continued over several lines counts each of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of every docstring: the string that opens a module,
    class or function body."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    files = sorted(f for arg in map(Path, argv)
                   for f in (arg.rglob("*.py") if arg.is_dir() else [arg]))
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
