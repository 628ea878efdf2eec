"""Code lines per module: the lines of a Python file that hold code, not
counting docstrings, comments or blank lines, and its parser tokens.

    python3 tools/code_lines.py src/porism_lab [more files or directories]

Prints one line per module, `<lines> <tokens> <path>`, and then the totals.
A docstring is the string that opens a module, class or function body; a
line counts as code if a token other than a comment or a docstring covers
it, so a statement continued over several lines counts each of them.  The
parser tokens are the ``tokenize`` tokens other than comments, NL and the
encoding, docstrings included: CPython's compiler of a module of more than
about 8,192 of them peaks about 0.46 MB higher (README).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_NOT_PARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


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


def parser_tokens(source: str) -> int:
    """The number of parser tokens of one module's source."""
    return sum(tok.type not in _NOT_PARSED
               for tok in tokenize.generate_tokens(io.StringIO(source).readline))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    files = sorted(f for arg in map(Path, argv)
                   for f in (arg.rglob("*.py") if arg.is_dir() else [arg]))
    total = tokens = 0
    for path in files:
        source = path.read_text()
        n, t = code_lines(source), parser_tokens(source)
        total, tokens = total + n, tokens + t
        print(f"{n:6d} {t:6d} {path}")
    print(f"{total:6d} {tokens:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
