"""Count the code lines of each module of src/scqkd, and their total.

    cd <tree root> && python <path to>/scripts/size.py

A code line is a line that holds a token outside comments and docstrings:
blank lines, comment-only lines and the lines of a module, class or
function docstring do not count, and a line that continues a bracketed
expression or a multi-line string does. It prints one line per module,
"<lines> <file>", then "<lines> total". It reads src/scqkd under the
current directory, so the same script sizes any checkout.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """The (line, column) where each module, class and function docstring begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token outside comments and docstrings."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted((Path.cwd() / "src" / "scqkd").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
