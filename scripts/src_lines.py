#!/usr/bin/env python
"""Count the python lines of a source tree two ways: raw and code.

    python scripts/src_lines.py [ROOT]        # ROOT defaults to src

*Raw* lines are every line of every ``*.py`` file.  *Code* lines are the
lines that carry a token of a statement: blank lines, comment lines and
docstrings (a string literal that is the first statement of a module,
class or function) are not counted.  A statement spread over several
lines counts each of them.  Prints one line per count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that carry no code of their own
_LAYOUT = frozenset((
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
))


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring of ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(raw lines, code lines)`` of one python source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or (
            tok.type == tokenize.STRING and tok.start[0] in docstrings
        ):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src")
    raw = code = 0
    for path in sorted(root.rglob("*.py")):
        r, c = count(path.read_text(encoding="utf-8"))
        raw += r
        code += c
    print(f"{root}/ python lines: {raw}")
    print(f"{root}/ code lines (no docstrings, comments or blank lines): {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
