"""Count the code lines of Python sources: the lines that hold a token,
leaving out comments, blank lines and docstrings.

A docstring is the string expression that opens a module, class or
function body (``ast.get_docstring``'s rule).  A token that spans lines,
such as a multi-line string that is not a docstring, counts on each line
it covers.

Usage: ``python tools/code_lines.py [PATH ...]`` prints the count of each
file (every ``*.py`` under a directory) and the total; with no path it
counts ``src/modmax``.  A path that does not exist is named on stderr,
and nothing is counted (exit status 2).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _sources(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src/modmax"]
    missing = [path for path in paths if not Path(path).exists()]
    for path in missing:
        print(f"code_lines: no such file or directory: {path}", file=sys.stderr)
    if missing:
        return 2
    total = 0
    for path in _sources(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
