"""tools/code_lines.py: its default path and its error for a missing one;
tools/checked_verify.py and the checked mode it shares with the tests."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_default_path_from_another_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert code_lines.main(["src/heisaut"]) == 0
    from_root = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert code_lines.main([]) == 0
    assert capsys.readouterr().out == from_root
    rows = [line.split() for line in from_root.splitlines()]
    assert "src/heisaut/verify.py" in {name for name, _ in rows}
    assert rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(n) for _, n in rows[:-1])


def test_missing_path_is_one_line_and_exit_1(tmp_path, capsys):
    missing = tmp_path / "nowhere.py"
    assert code_lines.main([str(tmp_path), str(missing)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"code_lines.py: no such file or directory: {missing}\n"


def run_python(*args):
    # a fresh interpreter, so that the wrap stays out of this process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT)


def test_checked_mode_makes_an_invalid_build_raise():
    done = run_python("-c", "from heisaut import gl2; import checked_of; "
                      "checked_of.check_every_of(); gl2.Gl2Matrix._of(2, 0, 0, 3)")
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "ValueError: matrix must have determinant +1 or -1, got 6")


def test_checked_verify_runs_every_suite():
    from heisaut import verify

    done = run_python(str(ROOT / "tools" / "checked_verify.py"), "--samples", "2",
                      "--seed", "3")
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"PASS {name}" for name in verify.available_suites()]
    assert all(" samples=2 seed=3 " in line or " samples=1 seed=3 " in line
               for line in lines)
