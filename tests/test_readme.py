"""The README's console session, replayed through heis-aut's main."""

import shlex
from pathlib import Path

import pytest

from heisaut import cli

README = Path(__file__).parents[1] / "README.md"


def _session():
    # (argv, expected stdout) for each "$ heis-aut ..." line of the
    # console block; the lines up to the next prompt are its output
    block = README.read_text().split("```console\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("$ "):
            words = shlex.split(line[2:])
            assert words[0] == "heis-aut", line
            commands.append((words[1:], []))
        else:
            commands[-1][1].append(line)
    return [(argv, "".join(out + "\n" for out in lines))
            for argv, lines in commands]


SESSION = _session()


def test_session_is_found():
    assert len(SESSION) == 8


@pytest.mark.parametrize("argv, expected", SESSION,
                         ids=[" ".join(argv[:2]) for argv, _ in SESSION])
def test_console_line(capsys, argv, expected):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")
