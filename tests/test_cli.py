import collections
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ztop import acceptance, cli, regressions
from ztop.cli import main


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


def test_missing_option_names_the_flag(capsys):
    # the flags --l and --x store under other names (l_value, xs)
    status, out, err = run_cli(capsys, "decompose", "--pivots", "linear")
    assert (status, out, err) == (2, "", "ztop: missing required option --l\n")
    status, out, err = run_cli(capsys, "discrete", "--ratio-bound", "2")
    assert (status, out, err) == (2, "", "ztop: missing required option --x\n")


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
    status, out, _ = run_cli(capsys, "--config", str(cfg), "dual")
    assert status == 0
    _, rows = parse_ndjson(out)
    assert rows[0]["chi"] == "0/1"


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
        "--levels", "3", "--thresholds", "1,2", "--seed", "5", "--format", "json",
    )
    assert status == 0
    header, _ = parse_ndjson(out)
    assert header["config"] == {
        "pivots": "square", "sequence": "pivotsucc", "horizon": 20,
        "levels": 3, "thresholds": "1,2", "seed": 5,
    }


@pytest.mark.parametrize("text, bad", [("1,x", "x"), ("1,,2", "")])
def test_thresholds_errors_name_the_flag(capsys, text, bad):
    status, out, err = run_cli(
        capsys, "blocks", "--pivots", "square", "--sequence", "pivotsucc", "--horizon", "5",
        "--thresholds", text,
    )
    assert (status, out, err) == (2, "", f"ztop: option --thresholds must be an integer, got {bad!r}\n")


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
