"""Count the lines and code lines of Python source files.

A code line is a line that holds a token of code: not blank, not only a
comment, and not part of a docstring (a string literal that opens a
module, class or function body).  Uses only the standard library.

    python3 tools/src_lines.py                 # every module of src/collimcal
    python3 tools/src_lines.py path [path ...] # the given files and directories
    python3 tools/src_lines.py --against REV   # and the change since git revision REV

Prints one row per module, `lines code_lines name`, and the total.  With
`--against REV` each row reads the module at REV through `git show`, then
gives its lines and code lines at REV, in the working tree, and their
difference; a module missing on one side counts as empty there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_ROOT = REPO / "src" / "collimcal"
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


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          encoding="utf-8").stdout


def sources_at(rev: str, paths) -> dict:
    """{repo-relative name: text} of the Python files under `paths` at git revision `rev`."""
    names = git("ls-tree", "-r", "--name-only", rev, "--",
                *(Path(path).resolve().relative_to(REPO).as_posix() for path in paths))
    return {name: git("show", f"{rev}:{name}") for name in names.splitlines()
            if name.endswith(".py")}


def label(path: Path, shown) -> str:
    """A module's stem if it is in src/collimcal, else `shown`."""
    return path.stem if path.resolve().parent == DEFAULT_ROOT else str(shown)


def print_table(rows, columns: int, signed: int = 0) -> None:
    """Print each (name, counts) row, then the column totals; the last `signed`
    columns carry a sign."""
    totals = [sum(counts[i] for _, counts in rows) for i in range(columns)]
    for name, counts in [*rows, ("total", totals)]:
        print(" ".join(f"{n:+7d}" if i >= columns - signed else f"{n:7d}"
                       for i, n in enumerate(counts)) + f"  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", default=[DEFAULT_ROOT])
    parser.add_argument("--against", metavar="REV",
                        help="also count each module at git revision REV and print the change")
    args = parser.parse_args(argv)
    files = {path: count(path.read_text(encoding="utf-8")) for path in python_files(args.paths)}
    if args.against is None:
        print_table([(label(path, path), counts) for path, counts in files.items()], 2)
        return 0

    try:
        before = {name: count(text) for name, text in sources_at(args.against, args.paths).items()}
        after = {path.resolve().relative_to(REPO).as_posix(): counts
                 for path, counts in files.items()}
    except subprocess.CalledProcessError as exc:
        parser.error(exc.stderr.strip())
    except ValueError:
        parser.error(f"--against counts files inside {REPO} only")
    rows = []
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, (0, 0)), after.get(name, (0, 0))
        rows.append((label(REPO / name, name), old + new + (new[0] - old[0], new[1] - old[1])))
    print(f"{args.against[:15]:>15s} {'working tree':>15s} {'difference':>15s}")
    print(f"{'lines':>7s} {'code':>7s} " * 3 + " module")
    print_table(rows, 6, signed=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
