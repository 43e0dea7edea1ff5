"""Fuzz the CLI: every argv or config file ends in exit 0, 1 or 2, never in
a traceback.

Values are drawn from integers in [-3, 10**4], strings that are not numbers
and, for the options that take them, well-formed descriptors, rationals,
sequence families, threshold lists and formats; config files also get
booleans, floats and null. Integers stay at or below 10**4, so every window
scan stays small; horizons stay at or below 300, since a prefix test over
the linear chain takes seconds at 10**4. ``verify-paper`` always runs with
``--quick`` and a fuzzed ``--seed``.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ztop.cli import main
from ztop.convergence import FAMILIES

INTEGERS = st.integers(min_value=-3, max_value=10**4)
NOT_NUMBERS = st.text(alphabet="abxyz/:,.-+ e", max_size=8).filter(
    lambda s: not s.strip().lstrip("+-").isdigit()
)
GOOD_PIVOTS = ["linear", "square", "factorial", "pow2", "poly:1,1", "chain:2,3"]
PIVOTS = st.sampled_from(GOOD_PIVOTS + ["poly:0", "poly:-1,2", "chain:1", "chain:", "fibonacci"])
RATIONAL = st.builds(
    lambda p, q: f"{p}/{q}", st.integers(min_value=-3, max_value=50), st.integers(min_value=-3, max_value=200)
)
RATIONALS = st.lists(RATIONAL, min_size=1, max_size=6).map(",".join)
SEQUENCES = st.sampled_from(FAMILIES + ("custom", "fibonacci"))
MAX_HORIZON = 300  # a prefix test over the linear chain takes seconds at 10**4
THRESHOLDS = st.lists(st.one_of(INTEGERS.map(str), NOT_NUMBERS), min_size=1, max_size=4).map(",".join)
FORMATS = st.sampled_from(["json", "csv", "xml"])

TEXT_VALUES = {
    "pivots": PIVOTS, "chi": RATIONAL, "x": RATIONALS, "sequence": SEQUENCES,
    "thresholds": THRESHOLDS, "format": FORMATS,
}
# for the invocations that give every option: values the option accepts
POSITIVE = st.integers(min_value=1, max_value=10**4).map(str)
GOOD_VALUES = dict(
    TEXT_VALUES,
    pivots=st.sampled_from(GOOD_PIVOTS),
    sequence=st.sampled_from(FAMILIES),
    horizon=st.integers(min_value=1, max_value=MAX_HORIZON).map(str),
    thresholds=st.lists(POSITIVE, min_size=1, max_size=4).map(",".join),
    format=st.sampled_from(["json", "csv"]),
)
COMMANDS = {
    "decompose": ("pivots", "l"),
    "member": ("pivots", "m", "k"),
    "converge": ("pivots", "sequence", "m", "n", "horizon"),
    "blocks": ("pivots", "sequence", "horizon", "levels", "thresholds", "format"),
    "discrete": ("x", "ratio-bound", "window"),
    "dual": ("pivots", "chi", "m", "n", "window"),
}
DESTS = {"l": "l_value", "x": "xs"}


def integers_for(option):
    """Integers in [-3, 10**4], or in [-3, MAX_HORIZON] for --horizon."""
    return st.integers(min_value=-3, max_value=MAX_HORIZON if option == "horizon" else 10**4)


def value_for(option):
    """A value for one option: well-formed for it, an integer, or junk."""
    numbers = integers_for(option).map(str)
    return st.one_of(TEXT_VALUES.get(option, numbers), numbers, NOT_NUMBERS)


def config_value_for(option):
    return st.one_of(
        value_for(option), integers_for(option), st.booleans(), st.none(),
        st.floats(min_value=-3, max_value=10**4, allow_nan=False),
    )


@st.composite
def invocations(draw):
    """(argv, config or None) for one subcommand: half of them give every
    option a value it accepts (one of --m and --n), so that they reach the
    library; the rest pick options and values at random."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    if draw(st.booleans()):
        dropped = draw(st.sampled_from(["m", "n"]))
        argv = [command]
        for option in options:
            if option != dropped:
                argv += [f"--{option}", draw(GOOD_VALUES.get(option, POSITIVE))]
        return argv, None
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


@settings(max_examples=8, deadline=None)
@given(
    st.one_of(st.none(), INTEGERS.map(str), NOT_NUMBERS),
    st.one_of(st.none(), st.fixed_dictionaries({"seed": config_value_for("seed")})),
)
def test_verify_paper_quick_never_tracebacks(seed, config):
    argv = ["verify-paper", "--quick"] + ([] if seed is None else ["--seed", seed])
    status, err = run(argv, config)
    assert status in (0, 1, 2), (seed, config, status, err)
    assert "Traceback" not in err
