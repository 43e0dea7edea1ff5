"""Every saved run of test_golden.py but ``verify-paper``'s, and the runs
that exit 0 or 1 among a seeded sample of test_cli_fuzz.py's invocations,
re-checked by certcheck.py, which imports nothing from ztop; and records
made wrong on purpose, which it must refuse.

The fuzzed runs reach inputs that no golden pins. Their sample is drawn
with a fixed seed and no example database, so it is the same on every
run."""

import json

import pytest
from hypothesis import Phase, given, seed, settings

from certcheck import DEFAULT_BUDGET, CheckFailed, check_output
from test_cli_fuzz import COMMANDS, invocations, run
from test_golden import CASES, GOLDEN

# a run refused before its result prints no record
CHECKED = sorted(
    n for n in CASES
    if not n.startswith("verify-paper") and (GOLDEN / f"{n}.stdout").stat().st_size
)


def saved(name):
    """(lines of the saved run, the run's bit budget)."""
    budget = CASES[name][1]
    return (GOLDEN / f"{name}.stdout").read_text().splitlines(), int(budget) if budget else DEFAULT_BUDGET


def record_count(lines):
    """The result records of a run's output lines: all but the header, and
    the column line of a CSV table."""
    return len(lines) - (2 if lines[0].startswith("# ") else 1)


@pytest.mark.parametrize("name", CHECKED)
def test_the_checker_certifies_the_saved_run(name):
    lines, budget = saved(name)
    assert len(check_output("\n".join(lines), budget)) == record_count(lines)


def test_the_checker_says_how_it_certified_a_window():
    how = {name: check_output("\n".join(saved(name)[0]), saved(name)[1]) for name in CHECKED}
    assert how["dual-budget-exceeded"] == ["window by containment"]  # 4 | b_2 and 4m = 8 > b_2
    assert how["dual-square-passes"] == ["window by brute force"]
    assert how["dual-square-second-segment"] == ["window on a seeded sample"]
    assert how["converge-budget-witnesses"] == ["converge up to j = 48"]


def refuses(name, change, line=1):
    """The message with which the checker refuses the saved run with
    ``change`` applied to the result record on ``line``."""
    lines, budget = saved(name)
    record = json.loads(lines[line])
    change(record)
    lines[line] = json.dumps(record)
    with pytest.raises(CheckFailed) as exc:
        check_output("\n".join(lines), budget)
    return str(exc.value)


@pytest.mark.parametrize("name", [n for n in CHECKED if n.startswith("member-")])
def test_a_flipped_direct_answer_is_refused(name):
    assert refuses(name, lambda r: r.update(direct=not r["direct"])).startswith("direct should be")


@pytest.mark.parametrize("name", ["converge-budget-witnesses", "converge-square-blockexample"])
def test_a_witness_index_off_by_one_is_refused(name):
    def shift(record):
        record["witnesses"][-1]["n"] += 1

    assert refuses(name, shift).startswith("witnesses should be")


@pytest.mark.parametrize("name", ["converge-factorial-pivothalf", "converge-budget-uniform-mid-chunk"])
def test_a_dropped_witness_is_refused(name):
    # the last witness is the one the level-free bound added before the refusal
    assert refuses(name, lambda r: r["witnesses"].pop()).startswith("witnesses should be")


def test_wrong_verdicts_and_windows_are_refused():
    assert "verdict should be" in refuses(
        "converge-linear-pow2", lambda r: r.update(stabilized_at=r["stabilized_at"] + 1))
    assert "value at j = 8" in refuses(
        "converge-square-blockexample", lambda r: r["witnesses"][1].update(value="1/4"))
    # k = 60 is a member of U_2 that 1/7 maps off the quarter arc, but k = 4 is one too
    assert "fails chi before" in refuses("dual-factorial-fails", lambda r: r.update(window_failing_k=60))
    assert "kernel check should be" in refuses(
        "dual-square-passes", lambda r: r.update(kernel_witness_index=3))


def test_a_changed_digit_is_refused():
    def change(record):
        digits = record["coefficients"].split(",")
        digits[1] = str(int(digits[1]) + 1)
        record["coefficients"] = ",".join(digits)

    assert refuses("decompose-chain-2-3-minus-1000", change).startswith("the digits should be")


@pytest.mark.parametrize("name", ["discrete-halving-past-2-16", "discrete-mixed-numerators"])
def test_a_dropped_survivor_is_refused(name):
    def drop(record):
        record["survivors"].pop(-1)
        record["verified"] = record["survivors"] == [0]

    assert refuses(name, drop).startswith("survivors differ from the brute force: missing [")


@pytest.mark.parametrize("name", ["blocks-square-pivotsucc", "blocks-budget-square-pivotsucc"])
def test_a_settle_index_off_by_one_is_refused(name):
    # line 4 is block n = 3, which settles at j = 2
    assert refuses(name, lambda r: r.update(settle_index=r["settle_index"] + 1), line=4) == (
        "block at n = 3: settle_index should be 2")


@pytest.mark.parametrize("name", ["blocks-square-pivotsucc", "blocks-pow2-pivotsucc-long-peaks"])
def test_a_wrong_peak_is_refused(name):
    def double(record):
        p, q = record["peak"].split("/")
        record["peak"] = f"{p}/{int(q) // 2}"

    assert refuses(name, double, line=4) == "block at n = 3: the peak is not max |l_j| / b_4"


# Settle indices on a two-power chain, where the checker compares a_n with
# the trailing zeros of l_j, over 282 values of up to about 80,000 bits, and
# on a multiplier chain, where it divides
LONG_BLOCKS = {
    "poly:1,1": ["blocks", "--pivots", "poly:1,1", "--sequence", "geomdiff", "--horizon", "282",
                 "--levels", "466", "--format", "json"],
    "chain:2,3": ["blocks", "--pivots", "chain:2,3", "--sequence", "pivotsucc", "--horizon", "40",
                  "--format", "json"],
}


@pytest.mark.parametrize("pivots", sorted(LONG_BLOCKS))
def test_the_checker_finds_settle_indices_on_either_kind_of_chain(pivots):
    status, out, _ = run(LONG_BLOCKS[pivots], None)
    assert status == 0
    lines = out.splitlines()
    assert len(check_output(out)) == record_count(lines)
    record = json.loads(lines[4])  # block n = 3
    record["settle_index"] += 1
    lines[4] = json.dumps(record)
    with pytest.raises(CheckFailed, match="block at n = 3: settle_index should be"):
        check_output("\n".join(lines))


def test_a_wrong_peak_decay_entry_is_refused():
    assert refuses("blocks-square-pivotsucc", lambda r: r.update(crosscheck_ok=False), line=-1) == (
        "peak-decay at m = 2: crosscheck_ok should be True")
    assert refuses("blocks-budget-square-pivotsucc", lambda r: r.update(crosscheck_ok=True), line=-2) == (
        "peak-decay at m = 1: crosscheck_ok should be None")
    assert refuses("blocks-square-pivotsucc", lambda r: r.update(settled_level=3), line=-1) == (
        "peak-decay at m = 2: settled_level should be 2")


# -- a seeded sample of the CLI fuzz's runs ---------------------------------------

FUZZ_SEED, FUZZ_EXAMPLES = 0, 80  # 29 runs exit 0 or 1, and every command has one


@pytest.fixture(scope="module")
def fuzzed_runs():
    """(argv, config, stdout) of every run that exits 0 or 1 among the
    seeded sample of invocations, under the default bit budget."""
    sample = []

    @seed(FUZZ_SEED)
    @settings(max_examples=FUZZ_EXAMPLES, database=None, phases=[Phase.generate], derandomize=False)
    @given(invocations())
    def draw(invocation):
        sample.append(invocation)

    draw()
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ZTOP_BIT_BUDGET", raising=False)
        for argv, config in sample:
            status, out, _ = run(argv, config)
            if status in (0, 1):
                runs.append((argv, config, out))
    return runs


def test_the_checker_certifies_the_fuzzed_runs(fuzzed_runs):
    assert {argv[0] for argv, _, _ in fuzzed_runs} == set(COMMANDS)
    for argv, config, out in fuzzed_runs:
        assert len(check_output(out)) == record_count(out.splitlines()), (argv, config)


# command -> (a change that makes its first result record wrong, how the
# checker refuses the run)
WRONG = {
    "member": (lambda r: r.update(direct=not r["direct"]), "direct should be"),
    "decompose": (lambda r: r.update(ok=not r["ok"]), "ok should be"),
    "discrete": (lambda r: r.update(verified=not r["verified"]), "verified should be"),
    "dual": (lambda r: r.update(kernel_continuous=not r["kernel_continuous"]), "kernel check should be"),
    "converge": (lambda r: r["witnesses"].append({"j": r["horizon"] + 1, "n": 1, "value": None}),
                 "witnesses should be"),
    "blocks": (lambda r: r.update(kind="wrong"), "kind should be"),
}


@pytest.mark.parametrize("command", sorted(WRONG))
def test_a_wrong_record_among_the_fuzzed_runs_is_refused(fuzzed_runs, command):
    change, refusal = WRONG[command]
    out = next(out for argv, _, out in fuzzed_runs if argv[0] == command and out.startswith("{"))
    lines = out.splitlines()
    record = json.loads(lines[1])
    change(record)
    lines[1] = json.dumps(record)
    with pytest.raises(CheckFailed, match=refusal):
        check_output("\n".join(lines))
