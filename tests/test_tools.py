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
    # One round of four units: the tool exports HEAD, imports both sides and
    # prints a row of figures per unit; the serial units run in a forked
    # child per side, and the pooled unit runs on each side's pool and adds
    # its workers' peak RSS (a number on Linux, "-" elsewhere).  Every row
    # counts the faults of a run of each side.
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--rounds", "1",
                          "--units", "single", "mc_ba2", "mc_starts", "mc_ba_pool"],
                         capture_output=True, text=True, timeout=120, check=True)
    rows = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines()[2:]}
    assert set(rows) == {"single", "mc_ba2", "mc_starts", "mc_ba_pool"}
    for figures in rows.values():
        ratio = float(figures[0])
        assert 0.2 < ratio < 5.0
        assert all(float(faults) >= 0 for faults in figures[-4:-2])
    assert rows["single"][-2:] == rows["mc_starts"][-2:] == ["-", "-"]
    for peak in rows["mc_ba_pool"][-2:]:
        assert peak == "-" if sys.platform != "linux" else float(peak) > 0


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_tool_gives_each_run_of_a_side_a_new_seed_and_both_sides_the_same_pairs():
    ab = load_tool("ab")
    seeds = {"a": [], "b": []}

    def timer(side):
        def run(seed):
            seeds[side].append(seed)
            return 1.0 + seed % 3, 0
        return run

    stats = ab.alternated({"unit": [timer("a"), timer("b")]}, rounds=3)
    assert len(stats["unit"]["ab"]) == 3
    for side_seeds in seeds.values():
        assert len(set(side_seeds)) == len(side_seeds)
    # After the warm-up, A runs s, s + 1 (ABBA) and s + 2 to s + 5 (AAAA) and
    # B runs s and s + 1, so each round's B/A compares the same two seeds.
    assert seeds["a"] == list(range(19))
    assert seeds["b"] == [0, 1, 2, 7, 8, 13, 14]
    assert stats["unit"]["a"] == stats["unit"]["b"]


def test_ab_tool_seeds_its_monte_carlo_units(monkeypatch, tmp_path):
    # The seeded units put their seed into their config; mc_sweep runs the
    # mc_init sweep as one pooled run_monte_carlo call per point.
    import collimcal
    from collimcal import synth

    ab = load_tool("ab")
    calls = []
    monkeypatch.setattr(synth, "run_monte_carlo", lambda config, kind, values, arms, workers:
                        calls.append((config, kind, list(values), arms, workers)))
    monkeypatch.setattr(synth, "_run_chunk", lambda config, trials, arms:
                        calls.append((config, trials, arms)))
    for unit in ("mc_ba2", "mc_ba5", "mc_init", "mc_ba_pool", "mc_init_pool", "mc_sweep"):
        calls.clear()
        ab.unit_call(unit, collimcal, {}, tmp_path)(17)
        assert calls and all(call[0].rng_seed == 17 for call in calls), unit
    values = synth.SWEEPS["spherical"][1]
    assert [call[1:] for call in calls] == [("spherical", [v], ("ours", "zhang"), 2)
                                            for v in values]
    assert {(c.pixel_noise_sigma, c.trial_count) for c, *_ in calls} == {(0.5, 100)}
    assert "mc_sweep" in ab.UNITS and "mc_sweep" in ab.POOLED


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
