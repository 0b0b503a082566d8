"""Operator mutation probe: which operator swaps in a module does the test suite miss?

Each mutant swaps one binary or comparison operator of one module of
src/collimcal for its partner: + and -, * and /, < and <=, > and >=, == and
!=.  The swap is made in the source text, so every other line keeps its
bytes.  Every mutant runs the module's tests (`pytest -x`) on a copy of the
repository; a mutant is killed when they fail or run past the timeout, and
survives when they pass.  Uses only the standard library, and never writes
under the repository it reads.

    python3 tools/mutants.py multi_solver                  # every site
    python3 tools/mutants.py multi_solver --sample 25 --seed 1
    python3 tools/mutants.py refine --tests tests/test_refine.py --timeout 120

The tests are run once unmutated first, and must pass.  Prints one line per
mutant, then the score and every survivor with its line and source.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "collimcal"

SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
         ast.Div: ("/", "*"), ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
         ast.Gt: (">", ">="), ast.GtE: (">=", ">"), ast.Eq: ("==", "!="),
         ast.NotEq: ("!=", "==")}
# An operator's text in the gap between its operands: not part of a longer
# operator such as **, //, << or ->.
_OPERATOR_TEXT = r"(?<![<>=!*/+\-]){}(?![<>=*/])"

# The tests that exercise each module, by default.
DEFAULT_TESTS = {
    "core_geom": ("tests/test_core_geom.py",),
    "multi_solver": ("tests/test_multi_solver.py", "tests/test_metamorphic.py"),
    "refine": ("tests/test_refine.py",),
    "single_calib": ("tests/test_single_calib.py",),
    "synth": ("tests/test_synth.py",),
    "fileio": ("tests/test_cli.py",),
    "cli": ("tests/test_cli.py",),
}


def operator_sites(source: str):
    """Every swappable operator of `source`: (start, end, line, old, new).

    start and end are character offsets of the operator's text.
    """
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno, col):
        # ast columns count UTF-8 bytes.
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:col].decode())

    def site(left, right, op):
        if type(op) not in SWAPS:
            return None
        old, new = SWAPS[type(op)]
        gap_start = offset(left.end_lineno, left.end_col_offset)
        gap = source[gap_start:offset(right.lineno, right.col_offset)]
        match = re.search(_OPERATOR_TEXT.format(re.escape(old)), gap)
        if match is None:
            return None
        start = gap_start + match.start()
        return start, start + len(old), source.count("\n", 0, start) + 1, old, new

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            found.append(site(node.left, node.right, node.op))
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            gap_start = offset(node.target.end_lineno, node.target.end_col_offset)
            gap = source[gap_start:offset(node.value.lineno, node.value.col_offset)]
            index = gap.find(old + "=")
            if index >= 0:
                start = gap_start + index
                found.append((start, start + 2, node.lineno, old + "=", new + "="))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                found.append(site(left, right, op))
    return sorted(site for site in found if site is not None)


def mutate(source: str, site) -> str:
    """`source` with the operator of `site` swapped."""
    start, end, _, old, new = site
    assert source[start:end] == old
    return source[:start] + new + source[end:]


def run_tests(workdir: Path, tests, timeout: float):
    """("passed" | "failed" | "timeout", seconds) of the tests on the copy."""
    # No bytecode cache: a swap that keeps the file size and mtime second
    # would otherwise run the previous mutant's cached code.
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    began = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=workdir, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - began
    return ("passed" if done.returncode == 0 else "failed"), time.perf_counter() - began


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", choices=sorted(DEFAULT_TESTS),
                        help="module of src/collimcal to mutate")
    parser.add_argument("--tests", nargs="+", default=None,
                        help="test files or node ids to run (default: the module's own)")
    parser.add_argument("--sample", type=int, default=None,
                        help="mutate this many sites drawn at random (default: every site)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the site draw")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds per mutant before it counts as killed")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="directory for the repository copy (default: a new temporary one)")
    args = parser.parse_args(argv)
    if args.sample is not None and args.sample < 1:
        parser.error("--sample must be at least 1")
    if args.timeout <= 0:
        parser.error("--timeout must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    tests = args.tests or list(DEFAULT_TESTS[args.module])
    relative = PACKAGE / f"{args.module}.py"
    source = (REPO / relative).read_text(encoding="utf-8")
    sites = operator_sites(source)
    if args.sample is not None and args.sample < len(sites):
        sites = sorted(random.Random(args.seed).sample(sites, args.sample))
    lines = source.splitlines()

    workdir = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.workdir))
    try:
        for name in ("src", "tests"):
            shutil.copytree(REPO / name, workdir / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(REPO / "pyproject.toml", workdir)
        outcome, seconds = run_tests(workdir, tests, args.timeout)
        if outcome != "passed":
            print(f"the unmutated tests did not pass ({outcome}): {' '.join(tests)}",
                  file=sys.stderr)
            return 2
        print(f"{relative}: {len(sites)} mutants; unmutated tests pass in {seconds:.1f} s")
        target = workdir / relative
        survivors = []
        for site in sites:
            target.write_text(mutate(source, site), encoding="utf-8")
            outcome, seconds = run_tests(workdir, tests, args.timeout)
            _, _, line, old, new = site
            status = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"  {relative}:{line} {old} -> {new}: {status} in {seconds:.1f} s",
                  flush=True)
            if outcome == "passed":
                survivors.append(site)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    killed = len(sites) - len(survivors)
    print(f"score: {killed} of {len(sites)} killed"
          + (f" ({killed / len(sites):.0%})" if sites else ""))
    for _, _, line, old, new in survivors:
        print(f"survivor {relative}:{line} {old} -> {new}: {lines[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
