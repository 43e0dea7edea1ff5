"""README's examples run as written: the library example executes, and each
`ztop ...` line of its shell blocks exits as documented. The full
`ztop verify-paper` is left to the golden `verify-paper-seed0.stdout`.
The module table names every module of the package, and each Python name
in backticks in a row's contents exists: in that row's module, as a chain
form or sequence family, or as the `ztop` command."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import ztop
from ztop import cli
from ztop.convergence import FAMILIES
from ztop.pivots import EXPONENT_FORMS

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


MODULE_ROWS = dict(re.findall(r"^\| `(ztop\.\w+)` \| (.*) \|$", README, flags=re.M))


def test_module_table_names_every_module():
    assert set(MODULE_ROWS) == {f"ztop.{m.name}" for m in pkgutil.iter_modules(ztop.__path__)}


@pytest.mark.parametrize("module", sorted(MODULE_ROWS))
def test_module_table_names_only_what_exists(module):
    mod = importlib.import_module(module)
    names = [name for name in re.findall(r"`([^`]*)`", MODULE_ROWS[module]) if name.isidentifier()]
    missing = [
        name for name in names
        if not (hasattr(mod, name) or name in EXPONENT_FORMS or name in FAMILIES or name == "ztop")
    ]
    assert not missing
