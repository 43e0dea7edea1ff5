"""README's examples run as written: the library example executes, and each
`ztop ...` line of its shell blocks exits as documented. The full
`ztop verify-paper` is left to the golden `verify-paper-seed0.stdout`."""

import re
import shlex
from pathlib import Path

import pytest

from ztop import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


LINES = [shlex.split(line, comments=True) for block in fenced_blocks("sh") for line in block.splitlines()]
COMMANDS = [argv for argv in LINES if argv[:1] == ["ztop"] and argv != ["ztop", "verify-paper"]]
FALSIFIED = {"converge --pivots square --sequence pow2 --m 1 --horizon 50"}


def test_readme_has_one_library_example_and_its_commands():
    assert len(fenced_blocks("python")) == 1
    assert len(COMMANDS) == 9


def test_library_example_runs():
    exec(compile(fenced_blocks("python")[0], "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[1:]))
def test_command_line_example_exits_as_documented(argv, capsys):
    line = " ".join(argv[1:])
    assert cli.main(argv[1:]) == (1 if line in FALSIFIED else 0)
    out, err = capsys.readouterr()
    assert out and not err
