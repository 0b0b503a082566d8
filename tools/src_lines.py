"""Count the lines and code lines of Python source files.

A code line is a line that holds a token of code: not blank, not only a
comment, and not part of a docstring (a string literal that opens a
module, class or function body).  Uses only the standard library.

    python3 tools/src_lines.py                 # every module of src/collimcal
    python3 tools/src_lines.py path [path ...] # the given files and directories

Prints one row per module, `lines code_lines name`, and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent / "src" / "collimcal"
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers covered by the docstrings of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(lines, code lines) of one source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def python_files(paths) -> list:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [DEFAULT_ROOT]
    total_lines = total_code = 0
    for path in python_files(paths):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:7d} {code:7d}  {path.stem if path.parent == DEFAULT_ROOT else path}")
    print(f"{total_lines:7d} {total_code:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
