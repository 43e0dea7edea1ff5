"""Every saved run of test_golden.py but ``verify-paper``'s, re-checked by
certcheck.py, which imports nothing from ztop; and records made wrong on
purpose, which it must refuse."""

import json

import pytest

from certcheck import DEFAULT_BUDGET, CheckFailed, check_output
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


@pytest.mark.parametrize("name", CHECKED)
def test_the_checker_certifies_the_saved_run(name):
    lines, budget = saved(name)
    records = len(lines) - (2 if lines[0].startswith("# ") else 1)  # CSV has a column line
    assert len(check_output("\n".join(lines), budget)) == records


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


def test_a_wrong_peak_decay_entry_is_refused():
    assert refuses("blocks-square-pivotsucc", lambda r: r.update(crosscheck_ok=False), line=-1) == (
        "peak-decay at m = 2: crosscheck_ok should be True")
    assert refuses("blocks-budget-square-pivotsucc", lambda r: r.update(crosscheck_ok=True), line=-2) == (
        "peak-decay at m = 1: crosscheck_ok should be None")
    assert refuses("blocks-square-pivotsucc", lambda r: r.update(settled_level=3), line=-1) == (
        "peak-decay at m = 2: settled_level should be 2")
