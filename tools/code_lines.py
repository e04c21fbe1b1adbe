"""Count the lines of Python modules, all of them and the code alone.

Usage: python tools/code_lines.py PATH...

Each PATH is a module or a directory, whose ``*.py`` files are read in
sorted order.  One line per module gives its ``wc -l`` line count and its
code lines, then one line gives the totals.  A code line is a line that
holds a token other than a comment, a line break, an indent or dedent,
and that lies outside every docstring: the string that opens a module,
class or function body.  A token spanning several lines, such as a
triple-quoted string that is not a docstring, counts each of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(lines, code_lines)`` of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return source.count("\n"), len(code)


def modules(paths: list[str]) -> list[Path]:
    found = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  module")
    for path in modules(paths):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:7d} {code:7d}  {path}")
    print(f"{total_lines:7d} {total_code:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
