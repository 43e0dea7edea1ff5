import collections
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ztop import acceptance, cli, duality, regressions
from ztop.cli import main
from ztop.duality import WindowCheck


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def parse_ndjson(text):
    records = [json.loads(line) for line in text.strip().splitlines()]
    header, rows = records[0], records[1:]
    assert header["record"] == "header"
    return header, rows


def test_member_report(capsys):
    status, out, _ = run_cli(capsys, "member", "--pivots", "square", "--m", "1", "--k", "128")
    assert status == 0
    header, rows = parse_ndjson(out)
    assert header["command"] == "member"
    assert header["version"]
    row = rows[0]
    assert row["direct"] and row["partial_sums"]
    assert not row["sufficient"] and row["necessary"]


def test_decompose_report(capsys):
    status, out, _ = run_cli(capsys, "decompose", "--pivots", "linear", "--l", "5")
    assert status == 0
    _, rows = parse_ndjson(out)
    assert rows[0]["coefficients"] == "1,0,-1,1"
    assert rows[0]["ok"]


def test_converge_falsified_exit_code(capsys):
    status, out, _ = run_cli(
        capsys, "converge", "--pivots", "square", "--sequence", "pow2", "--m", "1", "--horizon", "50"
    )
    assert status == 1
    _, rows = parse_ndjson(out)
    assert rows[0]["outcome"] == "falsified"
    assert [w["j"] for w in rows[0]["witnesses"]] == [3, 8, 15, 24, 35, 48]
    assert all(w["value"] == "-1/2" for w in rows[0]["witnesses"])


def test_converge_stabilized(capsys):
    status, out, _ = run_cli(
        capsys, "converge", "--pivots", "linear", "--sequence", "pow2", "--n", "4", "--horizon", "100"
    )
    assert status == 0
    _, rows = parse_ndjson(out)
    assert rows[0]["outcome"] == "stabilized"
    assert rows[0]["stabilized_at"] == 4


def test_converge_requires_exactly_one_family(capsys):
    status, _, err = run_cli(
        capsys, "converge", "--pivots", "square", "--sequence", "pow2", "--horizon", "10"
    )
    assert status == 2
    assert "exactly one" in err


def test_blocks_json_and_csv(capsys):
    args = ("blocks", "--pivots", "square", "--sequence", "geomdiff", "--horizon", "12")
    status, out, _ = run_cli(capsys, *args)
    assert status == 0
    _, rows = parse_ndjson(out)
    by_n = {r["n"]: r for r in rows if r["kind"] == "block"}
    assert by_n[3]["settle_index"] == 3
    assert by_n[3]["peak"] == "127/128"

    status, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# {")
    assert "settle_index" in lines[1]


def test_csv_rejected_elsewhere(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["member", "--pivots", "square", "--m", "1", "--k", "3", "--format", "csv"])
    assert exc.value.code == 2


def test_blocks_thresholds(capsys):
    status, out, _ = run_cli(
        capsys,
        "blocks", "--pivots", "square", "--sequence", "pivotsucc", "--horizon", "20",
        "--thresholds", "1,2",
    )
    assert status == 0
    _, rows = parse_ndjson(out)
    decay = [r for r in rows if r["kind"] == "peak-decay"]
    assert {d["m"] for d in decay} == {1, 2}
    assert all(d["applicable"] and d["settled_level"] == 2 for d in decay)


def test_discrete_verified(capsys):
    xs = ",".join(f"1/{2**n}" for n in range(1, 13))
    status, out, _ = run_cli(
        capsys, "discrete", "--x", xs, "--ratio-bound", "2", "--window", "100"
    )
    assert status == 0
    _, rows = parse_ndjson(out)
    assert rows[0]["level"] == 2
    assert rows[0]["verified"] and rows[0]["survivors"] == [0]


def test_discrete_unverified_exit(capsys):
    status, out, _ = run_cli(
        capsys, "discrete", "--x", "1/2,1/4", "--ratio-bound", "2", "--window", "50"
    )
    assert status == 1


def test_dual_report(capsys):
    status, out, _ = run_cli(capsys, "dual", "--pivots", "square", "--chi", "3/16")
    assert status == 0
    _, rows = parse_ndjson(out)
    assert rows[0]["kernel_continuous"] and rows[0]["kernel_witness_index"] == 2
    assert rows[0]["generated_member"]

    status, out, _ = run_cli(
        capsys, "dual", "--pivots", "linear", "--chi", "1/3", "--n", "5", "--window", "1000"
    )
    assert status == 0
    _, rows = parse_ndjson(out)
    assert not rows[0]["kernel_continuous"]
    assert rows[0]["window_failing_k"] == 32


@pytest.mark.parametrize(
    "pivots, chi, budget, generated",
    [("square", "3/16", None, True), ("factorial", "1/7", None, False),
     ("linear", f"1/{2**600}", None, True),  # b_600, past b_512: the scan has no cap here
     ("linear", "1/1024", "8", None)],  # the bit budget refuses b_8 = 2^8
    ids=["divisor", "prime-support", "scan-limit", "bit-budget"],
)
def test_dual_searches_the_chain_once(capsys, monkeypatch, pivots, chi, budget, generated):
    # generated_member is the kernel check's search again; the row reads it
    # off the one search, None where that search ends without a certificate
    if budget is not None:
        monkeypatch.setenv("ZTOP_BIT_BUDGET", budget)
    calls = []
    search = duality._denominator_divides
    monkeypatch.setattr(duality, "_denominator_divides", lambda *args: calls.append(args) or search(*args))
    status, out, _ = run_cli(capsys, "dual", "--pivots", pivots, "--chi", chi)
    assert (status, len(calls)) == (0, 1)
    assert parse_ndjson(out)[1][0]["generated_member"] is generated


@pytest.mark.parametrize(
    "family, contradiction, window_ok",
    [(("--m", "5"), True, True), (("--m", "40"), True, True), (("--m", "4"), False, True),
     (("--m", "1"), False, False), (("--n", "2"), True, True), (("--n", "3"), True, True),
     (("--n", "1"), False, False)],
)
def test_dual_exits_1_when_the_window_contradicts_the_kernel(capsys, monkeypatch, family,
                                                             contradiction, window_ok):
    # 3/16 kills b_2 * Z = 16Z on the square chain, and U_m lies in 16Z once
    # 4m > 16: a failing window there contradicts the kernel, elsewhere not.
    # The real check fails only outside 16Z (at k = 2), so the contradiction
    # is forced with a window check that always fails.
    status, out, _ = run_cli(capsys, "dual", "--pivots", "square", "--chi", "3/16", *family)
    assert status == 0
    assert parse_ndjson(out)[1][0]["window_ok"] == window_ok
    monkeypatch.setattr(cli, "continuity_window_check", lambda chi, spec, window: WindowCheck(False, 7))
    status, out, _ = run_cli(capsys, "dual", "--pivots", "square", "--chi", "3/16", *family)
    assert status == (1 if contradiction else 0)
    row = parse_ndjson(out)[1][0]
    assert (row["kernel_witness_index"], row["window_ok"], row["window_failing_k"]) == (2, False, 7)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pivots": "square", "m": 1, "k": 128}))
    status, out, _ = run_cli(capsys, "--config", str(cfg), "member")
    assert status == 0
    _, rows = parse_ndjson(out)
    assert rows[0]["k"] == 128

    status, out, _ = run_cli(capsys, "--config", str(cfg), "member", "--k", "1")
    assert status == 0
    _, rows = parse_ndjson(out)
    assert rows[0]["k"] == 1 and not rows[0]["direct"]


def test_string_config_values_print_the_header_the_flags_print(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pivots": "square", "m": "1", "k": "128"}))
    expected = run_cli(capsys, "member", "--pivots", "square", "--m", "1", "--k", "128")
    assert run_cli(capsys, "--config", str(cfg), "member") == expected
    assert parse_ndjson(expected[1])[0]["config"] == {"pivots": "square", "m": 1, "k": 128}


def test_each_subcommand_declares_the_options_it_reads():
    _, options = cli._build_parser()
    flags = {name: sorted(a.option_strings[0] for a in opts.values()) for name, opts in options.items()}
    assert flags == {
        "decompose": ["--l", "--output", "--pivots"],
        "member": ["--k", "--m", "--output", "--pivots"],
        "converge": ["--horizon", "--m", "--n", "--output", "--pivots", "--sequence"],
        "blocks": ["--format", "--horizon", "--levels", "--output", "--pivots", "--sequence",
                   "--thresholds"],
        "discrete": ["--output", "--ratio-bound", "--window", "--x"],
        "dual": ["--chi", "--m", "--n", "--output", "--pivots", "--window"],
        "verify-paper": ["--output", "--quick", "--seed"],
    }


@pytest.mark.parametrize(
    "argv",
    [("decompose", "--pivots", "linear", "--l", "5", "--seed", "3"),
     ("dual", "--pivots", "square", "--chi", "3/16", "--format", "json")],
)
def test_flag_a_subcommand_does_not_read_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, flag",
    [("window", "--window"), ("seed", "--seed"), ("format", "--format"),
     ("ratio-bound", "--ratio-bound"), ("config", "--config")],
)
def test_config_key_that_names_no_option_is_refused(tmp_path, capsys, key, flag):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pivots": "square", "m": 1, "k": 128, key: 1}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "member")
    assert (status, out, err) == (2, "", f"ztop: option {flag} does not apply to member\n")


def test_config_value_outside_the_choices_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sequence": "fibonacci"}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "blocks", "--pivots", "square",
                               "--horizon", "5")
    assert (status, out) == (2, "")
    assert err.startswith("ztop: option --sequence must be one of ")
    assert err.endswith(", got 'fibonacci'\n")


def test_dual_window_needs_a_neighbourhood(tmp_path, capsys):
    status, out, err = run_cli(capsys, "dual", "--pivots", "square", "--chi", "3/16", "--window", "50")
    assert (status, out, err) == (2, "", "ztop: option --window needs --m or --n\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"window": None}))  # null is not given
    assert run_cli(capsys, "--config", str(cfg), "dual", "--pivots", "square", "--chi", "3/16")[0] == 0


def test_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli(capsys, "--config", str(missing), "member")[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    assert run_cli(capsys, "--config", str(bad), "member")[0] == 2
    assert run_cli(capsys, "member", "--pivots", "square", "--m", "1")[0] == 2  # missing --k


@pytest.mark.parametrize("m", [True, 1.9, 2.0, "x"])
def test_config_rejects_non_integer_options(tmp_path, capsys, m):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pivots": "square", "m": m, "k": 128}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "member")
    assert status == 2
    assert out == "" and "--m" in err


def test_output_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        status = main(
            ["blocks", "--pivots", "square", "--sequence", "geomdiff",
             "--horizon", "10", "--output", str(path)]
        )
        assert status == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    status, out, err = run_cli(capsys, "decompose", "--pivots", "linear", "--l", "5", "--output", str(path))
    assert (status, out) == (2, "")
    assert err.startswith(f"ztop: cannot write --output {path}: ")
    assert "internal error" not in err


@pytest.mark.parametrize("output", [True, 1])
def test_non_path_output_in_config_is_refused(tmp_path, capsys, output):
    # open() takes an integer as a file descriptor: 1 would close stdout
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"output": output}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "decompose", "--pivots", "linear", "--l", "5")
    assert (status, out, err) == (2, "", f"ztop: option --output must be a string, got {output!r}\n")


@pytest.mark.parametrize(
    "key, value, argv",
    [
        ("chi", 0, ("dual", "--pivots", "linear")),
        ("thresholds", 1, ("blocks", "--pivots", "square", "--sequence", "zero", "--horizon", "5")),
        ("x", ["1/2", "1/4"], ("discrete", "--ratio-bound", "2")),
        ("pivots", ["linear"], ("dual", "--chi", "1/2")),
    ],
    ids=["chi", "thresholds", "x", "pivots"],
)
def test_text_option_in_config_takes_a_string_only(tmp_path, capsys, key, value, argv):
    # the flag gives text, so a config number or list would echo differently
    # in the header, or fail deeper down without naming its flag
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    status, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert (status, out, err) == (2, "", f"ztop: option --{key} must be a string, got {value!r}\n")


@pytest.mark.parametrize(
    "fmt, argv",
    [
        ("xml", ("decompose", "--pivots", "linear", "--l", "5")),
        ("xml", ("blocks", "--pivots", "square", "--sequence", "zero", "--horizon", "5")),
        (1, ("blocks", "--pivots", "square", "--sequence", "zero", "--horizon", "5")),
        ("csv", ("decompose", "--pivots", "linear", "--l", "5")),
    ],
)
def test_config_format_outside_the_choices_is_refused(tmp_path, capsys, fmt, argv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": fmt}))
    status, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert (status, out) == (2, "")
    assert "--format" in err


@pytest.mark.parametrize("budget", ["abc", "1.5", "0"])
def test_bad_bit_budget_env_is_a_usage_error(capsys, monkeypatch, budget):
    monkeypatch.setenv("ZTOP_BIT_BUDGET", budget)
    status, out, err = run_cli(capsys, "decompose", "--pivots", "linear", "--l", "5")
    assert (status, out) == (2, "")
    assert err.startswith("ztop: ZTOP_BIT_BUDGET must be an integer >= 1")


def test_bad_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--pivots", "square", "--sequence", "nonsense", "--m", "1", "--horizon", "5"])
    assert exc.value.code == 2
    assert main([]) == 2
    assert run_cli(capsys, "decompose", "--pivots", "fibonacci", "--l", "5")[0] == 2


def test_budget_exceeded_exit(capsys, monkeypatch):
    monkeypatch.setenv("ZTOP_BIT_BUDGET", "64")
    status, _, err = run_cli(capsys, "decompose", "--pivots", "square", "--l", str(2**80))
    assert status == 2
    assert "bit budget" in err


def test_verify_paper_quick(capsys):
    status, out, _ = run_cli(capsys, "verify-paper", "--quick")
    assert status == 0
    _, rows = parse_ndjson(out)
    names = {r["check"] for r in rows}
    assert {
        "uniform-membership-128",
        "doubling-sequence-witnesses",
        "half-ratio-separation",
        "geometric-difference-membership",
        "block-example-falsification",
        "halving-discreteness",
        "seeded-spot-checks",
        "ALL",
    } <= names
    assert all(r["ok"] for r in rows)


QUICK_SEED0 = Path(__file__).parent / "data" / "golden" / "verify-paper-quick-seed0.stdout"


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"quick": True, "seed": 0}, ()),
        ({"quick": False}, ("--quick", "--seed", "0")),  # the flag wins over the file
        ({"seed": None, "quick": True}, ()),  # null is not given: the default seed 0
    ],
)
def test_verify_paper_quick_from_config(tmp_path, capsys, monkeypatch, config, argv):
    monkeypatch.delenv("ZTOP_BIT_BUDGET", raising=False)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    status, out, err = run_cli(capsys, "--config", str(cfg), "verify-paper", *argv)
    assert (status, err) == (0, "")
    assert out.encode() == QUICK_SEED0.read_bytes()


@pytest.mark.parametrize("quick", ["false", 1, 0, "yes"])
def test_verify_paper_quick_in_config_must_be_a_boolean(tmp_path, capsys, quick):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"quick": quick}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "verify-paper")
    assert (status, out, err) == (2, "", f"ztop: option --quick must be true or false, got {quick!r}\n")


def test_verify_paper_exits_1_when_one_row_fails(capsys, monkeypatch):
    # block-example-falsification runs the same check under its own row
    table = list(regressions.PAPER_CHECKS)
    row = [entry[0] for entry in table].index("block-closed-forms")
    table[row] = ("block-closed-forms", lambda **kwargs: (False, "forced failure"), {})
    monkeypatch.setattr(regressions, "PAPER_CHECKS", table)
    status, out, _ = run_cli(capsys, "verify-paper", "--quick")
    assert status == 1
    _, rows = parse_ndjson(out)
    assert [r["check"] for r in rows] == [entry[0] for entry in table] + ["ALL"]
    failed = [(r["check"], r["detail"]) for r in rows if not r["ok"]]
    assert failed == [("block-closed-forms", "forced failure"), ("ALL", "every regression and sweep")]


def test_malformed_chain_descriptor_names_itself(capsys):
    status, out, err = run_cli(capsys, "decompose", "--pivots", "chain:2,x", "--l", "5")
    assert (status, out) == (2, "")
    assert err == "ztop: pivot descriptor 'chain:2,x' needs comma-separated integers\n"


def test_polynomial_chain_with_a_negative_coefficient_is_refused(capsys):
    # a_n = 2n^2 - n increases, but only nonnegative coefficients are taken
    status, out, err = run_cli(capsys, "decompose", "--pivots", "poly:-1,2", "--l", "100")
    assert (status, out) == (2, "")
    assert err == "ztop: exponent form 'poly:-1,2' needs integer coefficients >= 0, not all 0\n"


def test_missing_option_names_the_flag(capsys):
    # the flags --l and --x store under other names (l_value, xs)
    status, out, err = run_cli(capsys, "decompose", "--pivots", "linear")
    assert (status, out, err) == (2, "", "ztop: missing required option --l\n")
    status, out, err = run_cli(capsys, "discrete", "--ratio-bound", "2")
    assert (status, out, err) == (2, "", "ztop: missing required option --x\n")


def test_required_option_given_as_null_is_missing(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pivots": "linear", "l": None, "l_value": None}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "decompose")
    assert (status, out, err) == (2, "", "ztop: missing required option --l\n")


def test_non_integer_config_option_names_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pivots": "linear", "l_value": 1.5}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "decompose")
    assert (status, out, err) == (2, "", "ztop: option --l must be an integer, got 1.5\n")


def test_dual_character_from_config(tmp_path, capsys):
    # "1/0" used to escape as ZeroDivisionError, a JSON number as AttributeError
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pivots": "linear", "chi": "1/0"}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "dual")
    assert (status, out, err) == (2, "", "ztop: zero denominator: '1/0'\n")
    cfg.write_text(json.dumps({"pivots": "linear", "chi": 0}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "dual")
    assert (status, out, err) == (2, "", "ztop: option --chi must be a string, got 0\n")
    cfg.write_text(json.dumps({"pivots": "linear", "chi": "0"}))
    status, out, _ = run_cli(capsys, "--config", str(cfg), "dual")
    assert status == 0
    header, rows = parse_ndjson(out)
    assert (header["config"]["chi"], rows[0]["chi"]) == ("0", "0/1")


def test_config_names_the_l_option_as_its_flag(tmp_path, capsys):
    # the config key is the long option's name; its storage name l_value also works
    cfg = tmp_path / "run.json"
    expected = run_cli(capsys, "decompose", "--pivots", "linear", "--l", "5")
    assert expected[0] == 0
    for key in ("l", "l_value"):
        cfg.write_text(json.dumps({"pivots": "linear", key: 5}))
        assert run_cli(capsys, "--config", str(cfg), "decompose") == expected
    cfg.write_text(json.dumps({"pivots": "linear", "l": 1.5}))
    status, out, err = run_cli(capsys, "--config", str(cfg), "decompose")
    assert (status, out, err) == (2, "", "ztop: option --l must be an integer, got 1.5\n")


def test_config_names_the_x_option_as_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    expected = run_cli(capsys, "discrete", "--x", "1/2,1/4", "--ratio-bound", "2", "--window", "50")
    assert expected[0] == 1
    for key in ("x", "xs"):
        cfg.write_text(json.dumps({key: "1/2,1/4", "ratio-bound": 2, "window": 50}))
        assert run_cli(capsys, "--config", str(cfg), "discrete") == expected


def test_header_echoes_every_option_that_is_set(capsys):
    status, out, _ = run_cli(
        capsys,
        "blocks", "--pivots", "square", "--sequence", "pivotsucc", "--horizon", "20",
        "--levels", "3", "--thresholds", "1,2", "--format", "json",
    )
    assert status == 0
    header, _ = parse_ndjson(out)
    assert header["config"] == {
        "pivots": "square", "sequence": "pivotsucc", "horizon": 20,
        "levels": 3, "thresholds": "1,2",
    }


@pytest.mark.parametrize("text, bad", [("1,x", "x"), ("1,,2", ""), ("", "")])
def test_thresholds_errors_name_the_flag(capsys, text, bad):
    status, out, err = run_cli(
        capsys, "blocks", "--pivots", "square", "--sequence", "pivotsucc", "--horizon", "5",
        "--thresholds", text,
    )
    assert (status, out, err) == (2, "", f"ztop: option --thresholds must be an integer, got {bad!r}\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit")
def test_exact_rationals_print_past_the_int_str_digit_limit(capsys):
    # the peak of block 14 is b_14 / b_15 = 1/2^16384, whose denominator has
    # 4,933 decimal digits, past the interpreter's default limit of 4,300
    before = sys.get_int_max_str_digits()
    status, out, err = run_cli(
        capsys, "blocks", "--pivots", "pow2", "--sequence", "pivotsucc", "--horizon", "14"
    )
    assert (status, err) == (0, "")
    _, rows = parse_ndjson(out)
    peaks = {row["n"]: row["peak"] for row in rows if row["kind"] == "block"}
    assert sys.get_int_max_str_digits() == before  # restored for in-process callers
    numerator, denominator = peaks[14].split("/")
    sys.set_int_max_str_digits(0)  # to read the denominator back
    try:
        assert (numerator, int(denominator)) == ("1", 2**16384)
    finally:
        sys.set_int_max_str_digits(before)


def test_unexpected_error_exits_2_not_1(capsys, monkeypatch):
    def broken(settings):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._RUNNERS, "decompose", broken)
    status, out, err = run_cli(capsys, "decompose", "--pivots", "linear", "--l", "5")
    assert (status, out, err) == (2, "", "ztop: internal error: RuntimeError: boom\n")


def test_out_of_memory_exits_2_without_traceback():
    resource = pytest.importorskip("resource")
    limit = 100 * 2**20  # address space of the child alone

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ztop.cli", "blocks", "--pivots", "linear", "--sequence", "zero",
         "--horizon", "100000000"],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--horizon" in proc.stderr


def test_verify_paper_runs_each_check_once(capsys, monkeypatch):
    # counting wrappers go where the checks are looked up: the rows of the
    # check table (one wrapper per function, so both names of a check share
    # it) and the acceptance module's own names
    calls = collections.Counter()
    wrappers = {}

    def counted(fn):
        if fn not in wrappers:
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            wrappers[fn] = wrapper
        return wrappers[fn]

    table = [(entry[0], counted(entry[1])) + tuple(entry[2:]) for entry in regressions.PAPER_CHECKS]
    monkeypatch.setattr(regressions, "PAPER_CHECKS", table)
    for name, fn in list(vars(acceptance).items()):
        if inspect.isfunction(fn) and fn.__module__ == acceptance.__name__ and not name.startswith("_"):
            monkeypatch.setattr(acceptance, name, counted(fn))
    status, out, _ = run_cli(capsys, "verify-paper", "--quick")
    assert status == 0
    _, rows = parse_ndjson(out)
    assert [r["check"] for r in rows] == [entry[0] for entry in table] + ["ALL"]
    assert len(calls) == 11  # 10 distinct checks in 15 rows, and the sweep behind membership-routes
    assert set(calls.values()) == {1}, calls
