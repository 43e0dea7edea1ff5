"""Fuzz the CLI: every argv or config file ends in exit 0, 1 or 2, never in
a traceback.

Values are drawn from integers in [-3, 10**4], strings that are not numbers
and, for the options that take them, well-formed descriptors and rationals;
config files also get booleans, floats and null. Integers stay at or below
10**4, so every window scan stays small.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ztop.cli import main

INTEGERS = st.integers(min_value=-3, max_value=10**4)
NOT_NUMBERS = st.text(alphabet="abxyz/:,.-+ e", max_size=8).filter(
    lambda s: not s.strip().lstrip("+-").isdigit()
)
PIVOTS = st.sampled_from(
    ["linear", "square", "factorial", "pow2", "poly:1,1", "poly:0", "poly:-1,2",
     "chain:2,3", "chain:1", "chain:", "fibonacci"]
)
RATIONAL = st.builds(
    lambda p, q: f"{p}/{q}", st.integers(min_value=-3, max_value=50), st.integers(min_value=-3, max_value=200)
)
RATIONALS = st.lists(RATIONAL, min_size=1, max_size=6).map(",".join)

TEXT_VALUES = {"pivots": PIVOTS, "chi": RATIONAL, "x": RATIONALS}
COMMANDS = {
    "decompose": ("pivots", "l"),
    "member": ("pivots", "m", "k"),
    "discrete": ("x", "ratio-bound", "window"),
    "dual": ("pivots", "chi", "m", "n", "window"),
}
DESTS = {"l": "l_value", "x": "xs"}


def value_for(option):
    """A value for one option: well-formed for it, an integer, or junk."""
    good = TEXT_VALUES.get(option, INTEGERS.map(str))
    return st.one_of(good, INTEGERS.map(str), NOT_NUMBERS)


def config_value_for(option):
    return st.one_of(
        value_for(option), INTEGERS, st.booleans(), st.none(),
        st.floats(min_value=-3, max_value=10**4, allow_nan=False),
    )


@st.composite
def invocations(draw):
    """(argv, config or None) for one subcommand."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    argv, config = [command], None
    for option in options:
        if draw(st.booleans()):
            argv += [f"--{option}", draw(value_for(option))]
    if draw(st.booleans()):
        config = {}
        for option in options:
            if draw(st.booleans()):
                key = DESTS.get(option, option.replace("-", "_"))
                config[key] = draw(config_value_for(option))
    return argv, config


def run(argv, config):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = ["--config", path] + argv
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse refusals
                status = exc.code
    return status, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_cli_never_tracebacks(invocation):
    argv, config = invocation
    status, err = run(argv, config)
    assert status in (0, 1, 2), (argv, config, status, err)
    assert "Traceback" not in err
