"""CLI output byte for byte against saved runs.

``tests/data/golden/<name>.stdout`` holds what each case below printed
before the window scans moved to the arc sieve (the ``dual``, ``discrete``
and ``verify-paper`` cases), before the sequence queries shared one witness
scan (the other ``converge`` and ``blocks`` cases), before ``pivothalf``
lost its long division (the ``pivothalf`` cases) or before the arc sieve
tiled the chain's conditions (the ``square-second-segment`` and
``past-2-16`` cases) or before ``continuity_window_check`` found the
failing k by comparing two sieve masks (``pow2-second-segment``) or
before linear windows moved onto the same sieve, with b_n as the step
between members (``square-linear-second-segment``, ``square-linear-passes``).
The two ``mid-chunk`` cases were saved before the witness scan evaluated
l_j a chunk at a time off the chain memo. The
``verify-paper-quick-budget-64`` error was saved when a budget refusal in
``verify-paper`` learnt to name its check. The ``converge-budget-witnesses``,
``converge-factorial-pivothalf``, ``converge-budget-uniform-mid-chunk`` and
``dual-budget-exceeded`` runs were saved again, and the two cases
``member-budget-factorial-large-level`` and ``dual-budget-exceeded-past-2-23``
added, when every uniform answer learnt to grow the chain only to the first
term >= 2|k|, whatever the level: a refusal moved past the terms that
decide the answer, or went away. The long-peaks case was
saved when the CLI learnt to print past the interpreter's int -> str digit
limit; before that it exited 2. The ``blocks-budget-square-pivotsucc`` case
was saved when the peak-decay cross-check learnt to report a refused scan as
null rather than as a pass. The ``member-square-128``, ``member-square-6``
and ``decompose`` cases were saved before the partial-sum route and both
digit tests moved onto one pair of exact maxima per k; the other three
``member`` cases, before the direct route did. ``<name>.stderr``, when
present, holds its error output (absent means none). Each header's ``config``, fed back through
``--config``, must print the same bytes. Any change to a verdict, a survivor list,
a failing k or a budget refusal shows here.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ztop.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

# name -> (argv, ZTOP_BIT_BUDGET or None, exit status)
CASES = {
    "verify-paper-quick-seed0": (["verify-paper", "--quick", "--seed", "0"], None, 0),
    "verify-paper-quick-seed1": (["verify-paper", "--quick", "--seed", "1"], None, 0),
    # the first row to ask for a term past 64 bits, square's b_8, is named
    "verify-paper-quick-budget-64": (["verify-paper", "--quick", "--seed", "0"], "64", 2),
    "discrete-halving": (
        ["discrete", "--x", "1/2,1/4,1/8,1/16,1/32,1/64,1/128,1/256,1/512,1/1024",
         "--ratio-bound", "2"], None, 0),
    # the survivors run past the first sieve segment's end, 2^16
    "discrete-halving-past-2-16": (
        ["discrete", "--x", "1/2,1/4,1/8,1/16,1/32,1/64,1/128,1/256,1/512",
         "--ratio-bound", "2", "--window", "70000"], None, 1),
    "discrete-mixed-numerators": (
        ["discrete", "--x", "2/5,1/7,1/20,1/61", "--ratio-bound", "4", "--window", "3000"], None, 1),
    "discrete-unverified": (
        ["discrete", "--x", "1/3,1/9", "--ratio-bound", "3", "--window", "500"], None, 1),
    "dual-factorial-fails": (
        ["dual", "--pivots", "factorial", "--chi", "1/7", "--m", "2", "--window", "10000"], None, 0),
    # chi fails at k = 114,690, in the second sieve segment
    "dual-square-second-segment": (
        ["dual", "--pivots", "square", "--chi", "1/458752", "--m", "1", "--window", "200000"],
        None, 0),
    # chi fails at k = 114,688, past the first sieve segment on a dense chain
    "dual-pow2-second-segment": (
        ["dual", "--pivots", "pow2", "--chi", "1/327680", "--m", "1", "--window", "200000"],
        None, 0),
    # chi fails at k = 1,120,016 = 70,001 b_2, past the first segment of indices
    "dual-square-linear-second-segment": (
        ["dual", "--pivots", "square", "--chi", "1/4480000", "--n", "2", "--window", "1200000"],
        None, 0),
    # 16 divides b_2, so chi is trivial on every multiple of b_2
    "dual-square-linear-passes": (
        ["dual", "--pivots", "square", "--chi", "1/16", "--n", "2", "--window", "200000"],
        None, 0),
    "dual-square-passes": (
        ["dual", "--pivots", "square", "--chi", "1/16", "--m", "1", "--window", "5000"], None, 0),
    # the window reaches past b_5, which the budget refuses: chi fails at
    # k = 4 first, so the refusal never shows
    "dual-budget-early-exit": (
        ["dual", "--pivots", "factorial", "--chi", "1/7", "--m", "2", "--window", "10000000"], "64", 0),
    # b_4 = 2^24 decides every k <= 2^23 at every level, so the budget
    # refuses no term the window needs, and chi passes every member
    "dual-budget-exceeded": (
        ["dual", "--pivots", "factorial", "--chi", "1/4", "--m", "2", "--window", "3000000"], "64", 0),
    # chi passes every member up to 2^23, then k = 2^23 + 1 needs b_5
    "dual-budget-exceeded-past-2-23": (
        ["dual", "--pivots", "factorial", "--chi", "1/4", "--m", "2", "--window", "10000000"], "64", 2),
    "converge-square-blockexample": (
        ["converge", "--pivots", "square", "--sequence", "blockexample", "--m", "1",
         "--horizon", "50"], None, 1),
    "converge-linear-pow2": (
        ["converge", "--pivots", "linear", "--sequence", "pow2", "--n", "4", "--horizon", "20"],
        None, 0),
    # l_j = b_{j+1}; l_1 and l_2 pass, then the scan of l_3 = b_4 = 2^24
    # needs b_5, 121 bits, so the verdict is inconclusive with no witnesses
    "converge-budget-inconclusive": (
        ["converge", "--pivots", "factorial", "--sequence", "pivotsucc", "--m", "1",
         "--horizon", "10"], "64", 0),
    # witnesses up to j = 48, then the scan of l_49 needs b_8, which is refused
    "converge-budget-witnesses": (
        ["converge", "--pivots", "square", "--sequence", "pow2", "--m", "2", "--horizon", "80"],
        "64", 0),
    # the odd-ratio branch of pivothalf: b_{j+1}/b_j alternates 3 and 2
    "converge-chain-3-2-pivothalf": (
        ["converge", "--pivots", "chain:3,2", "--sequence", "pivothalf", "--m", "2",
         "--horizon", "40"], None, 1),
    # witnesses for j = 1..8; l_8 = 2^362879 is decided by b_9, and l_9 needs
    # b_10 (3,628,801 bits), which is refused
    "converge-factorial-pivothalf": (
        ["converge", "--pivots", "factorial", "--sequence", "pivothalf", "--m", "1",
         "--horizon", "21"], None, 0),
    # witnesses j = 1..3, then l_199 needs b_200, which is refused in the
    # fourth run of l_j the scan evaluates together
    "converge-budget-linear-mid-chunk": (
        ["converge", "--pivots", "linear", "--sequence", "geomdiff", "--n", "4",
         "--horizon", "300"], "200", 0),
    # witnesses j = 1..189; l_190 is evaluated in the third run, and its
    # scan needs b_200, which is refused before l_199 is
    "converge-budget-uniform-mid-chunk": (
        ["converge", "--pivots", "linear", "--sequence", "wgeomdiff", "--m", "2",
         "--horizon", "300"], "200", 0),
    "blocks-square-pivotsucc": (
        ["blocks", "--pivots", "square", "--sequence", "pivotsucc", "--horizon", "20",
         "--thresholds", "1,2"], None, 0),
    # the peak of block 14 is 1/2^16384, past the default int -> str limit
    "blocks-pow2-pivotsucc-long-peaks": (
        ["blocks", "--pivots", "pow2", "--sequence", "pivotsucc", "--horizon", "14"], None, 0),
    "blocks-square-blockexample-csv": (
        ["blocks", "--pivots", "square", "--sequence", "blockexample", "--horizon", "40",
         "--thresholds", "1,4", "--format", "csv"], None, 0),
    "blocks-budget-factorial-zero": (
        ["blocks", "--pivots", "factorial", "--sequence", "zero", "--horizon", "10",
         "--thresholds", "1,2"], "64", 0),
    # a member that fails the sufficient test: its digit ratio 1/4 exceeds 1/8
    "member-square-128": (["member", "--pivots", "square", "--m", "1", "--k", "128"], None, 0),
    # a non-member that passes the necessary test
    "member-square-6": (["member", "--pivots", "square", "--m", "1", "--k", "6"], None, 0),
    # k = 2^118 + 2^6 over 2^(n!): the residue ladder masks at b_5 = 2^120,
    # where k exits at 1/4 + 2^-114
    "member-factorial-past-2-30": (
        ["member", "--pivots", "factorial", "--m", "1", "--k", str(2**118 + 2**6)], None, 0),
    # k = b_60/4 + b_30: the ladder divides between terms of 2^a 3^b
    "member-chain-2-3-past-2-30": (
        ["member", "--pivots", "chain:2,3", "--m", "1", "--k", "55268479930653524459520"], None, 0),
    # k = 2^20 + 1 at m = 2^40: b_4 = 2^24 >= 2|k| decides every level, so
    # the 64-bit budget refuses no term the query needs
    "member-budget-factorial-large-level": (
        ["member", "--pivots", "factorial", "--k", "1048577", "--m", "1099511627776"], "64", 0),
    # k = b_12/8 = 2^141 at m = 2, exactly on the arc's end
    "member-square-arc-end": (["member", "--pivots", "square", "--m", "2", "--k", str(2**141)], None, 0),
    "decompose-chain-2-3-minus-1000": (
        ["decompose", "--pivots", "chain:2,3", "--l", "-1000"], None, 0),
    # the cross-check scans l_1..l_8 for both levels; l_8 = b_9 = 2^81 needs
    # b_10 = 2^100, which takes 101 bits, so neither check is a pass
    "blocks-budget-square-pivotsucc": (
        ["blocks", "--pivots", "square", "--sequence", "pivotsucc", "--horizon", "8",
         "--thresholds", "1,2"], "100", 0),
}


def assert_prints_saved_run(name, argv, monkeypatch):
    _, budget, status = CASES[name]
    if budget is None:
        monkeypatch.delenv("ZTOP_BIT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("ZTOP_BIT_BUDGET", budget)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == status
    assert out.getvalue().encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    stderr = GOLDEN / f"{name}.stderr"
    assert err.getvalue().encode() == (stderr.read_bytes() if stderr.exists() else b"")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_saved_run(name, monkeypatch):
    assert_prints_saved_run(name, CASES[name][0], monkeypatch)


@pytest.mark.parametrize("name", sorted(n for n in CASES if (GOLDEN / f"{n}.stdout").stat().st_size))
def test_header_config_repeats_the_saved_run(name, monkeypatch, tmp_path):
    # the header's config, fed back through --config, is the whole run but
    # for --format, which the header leaves out
    argv = CASES[name][0]
    header = (GOLDEN / f"{name}.stdout").read_text().splitlines()[0].removeprefix("# ")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(json.loads(header)["config"]))
    fmt = argv[argv.index("--format"):][:2] if "--format" in argv else []
    assert_prints_saved_run(name, ["--config", str(config), argv[0], *fmt], monkeypatch)
