"""tools/code_lines.py: its default path and its error for a missing one."""

import importlib.util
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
