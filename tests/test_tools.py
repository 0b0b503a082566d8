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
