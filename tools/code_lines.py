"""Count code lines per module of ``src/citenet/``.

A code line holds at least one token that is not a comment and not
part of a docstring (the first statement of a module, class or
function when it is a string literal). Blank lines do not count. A
token that spans lines, such as a triple-quoted string that is not a
docstring, counts every line it covers.

Usage: python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "citenet"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<20} {count:>5}")
    print(f"{'total':<20} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
