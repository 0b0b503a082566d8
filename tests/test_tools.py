import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def in_git_checkout() -> bool:
    return shutil.which("git") is not None and subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True).returncode == 0


@pytest.mark.skipif(not in_git_checkout(), reason="needs git and a checkout with a HEAD")
def test_ab_tool_compares_the_working_tree_with_head():
    # One round of two units: the tool exports HEAD, imports both sides and
    # prints a row of figures per unit.
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--rounds", "1",
                          "--units", "single", "mc_ba2"],
                         capture_output=True, text=True, timeout=120, check=True)
    rows = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines()[2:]}
    assert set(rows) == {"single", "mc_ba2"}
    for figures in rows.values():
        ratio = float(figures[0])
        assert 0.2 < ratio < 5.0


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A module docstring, a comment, a function docstring, a blank line and 4 code lines.
COUNTED_SOURCE = '''"""A module docstring
over two lines."""
# a comment
def f(x):
    """A function docstring."""

    y = (x +
         1)
    return y
'''


def test_src_lines_counts_only_the_code_lines(tmp_path, capsys):
    src_lines = load_tool("src_lines")
    assert src_lines.count(COUNTED_SOURCE) == (9, 4)
    path = tmp_path / "counted.py"
    path.write_text(COUNTED_SOURCE)
    assert src_lines.main([str(path)]) == 0
    assert [line.split()[:2] for line in capsys.readouterr().out.splitlines()] == \
        [["9", "4"], ["9", "4"]]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_src_lines_counts_a_module_missing_at_the_revision_as_empty(tmp_path, capsys,
                                                                     monkeypatch):
    # A throwaway repository: old.py is committed, new.py is not.
    src_lines = load_tool("src_lines")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    (tmp_path / "old.py").write_text("a = 1\n")
    subprocess.run(git + ["add", "old.py"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "old"], check=True)
    (tmp_path / "old.py").write_text("a = 1\nb = 2\n")
    (tmp_path / "new.py").write_text(COUNTED_SOURCE)
    monkeypatch.setattr(src_lines, "REPO", tmp_path)
    assert src_lines.main(["--against", "HEAD", str(tmp_path)]) == 0
    rows = {line.split()[-1]: [int(n) for n in line.split()[:-1]]
            for line in capsys.readouterr().out.splitlines()[2:]}
    assert rows == {"new.py": [0, 0, 9, 4, 9, 4], "old.py": [1, 1, 2, 2, 1, 1],
                    "total": [1, 1, 11, 6, 10, 5]}
