"""The README's console session, replayed through heis-aut's main, and
its table of the modules each command family loads."""

import re
import shlex
from pathlib import Path

import pytest

import test_cli
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


def _family_table():
    # {family cell: loaded modules} of the CLI section's table, read as the
    # README states it: heisaut and heisaut.cli load for every family,
    # "all of the above" is every row before, and the footnote's private
    # modules come along with the module it names
    rows, rest = README.read_text().split(
        "| family | modules loaded |\n|---|---|\n", 1)[1].split("\n\n", 1)
    footnote = re.fullmatch(r"`(\w+)` brings the private (.+) along\.",
                            rest.split("\n", 1)[0])
    private = re.findall(r"`(\w+)`", footnote[2])
    table, above = {}, set()
    for row in rows.splitlines():
        family, cell = (c.strip() for c in row.strip("|").split("|"))
        names = set(re.findall(r"`(\w+)`", cell))
        if cell.startswith("all of the above"):
            names |= above
        above |= names
        if footnote[1] in names:
            names |= set(private)
        table[family] = {"heisaut", "heisaut.cli"} | {f"heisaut.{n}" for n in names}
    return table


def test_family_table_matches_the_loaded_modules():
    # the sets test_command_loads_only_its_modules checks in a subprocess
    assert _family_table() == {
        "`elem`, `--help`, a usage error": test_cli._HEIS,
        "`gl2`": test_cli._GL2,
        "`aut`": test_cli._AUT,
        "`cocycle`": test_cli._COCYCLE,
        "`verify` (and its `--help`)": test_cli._VERIFY,
    }
