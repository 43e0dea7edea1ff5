"""The benchmark's own smoke test, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate as gate_module
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "2", "--seconds", "0.1",
                              "--trace", str(trace), "--size", "smoke"]
    return subprocess.run([sys.executable] + cmd[1:], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    summary = lines[-2]
    assert "fail_ratio=0 " in summary + " "
    if workload != "paper-verify":
        assert "op_p50_ms=" in summary


def test_wrong_answer_is_counted_as_failed():
    sys.path.insert(0, str(run.SRC))
    lib = run.import_library()
    queries = workloads.generate("window-scan", 2, "smoke")
    measurement = run.Measurement(lib, queries, gate_module.Gate(lib))
    _, _, outcomes = run.run_pass(lib, queries)
    i = next(i for i, q in enumerate(queries) if q.kind == "iter_members")
    window = queries[i].args[2]
    outcomes[i].raw = outcomes[i].raw + [window + 1, -(window + 1)]
    measurement.record(outcomes)  # the wrong answer fails the gate
    _, _, outcomes = run.run_pass(lib, queries)
    measurement.record(outcomes)  # and the true one differs from the first pass
    assert [f[0] for f in measurement.failures] == [i, i]
    assert measurement.attempted == 2 * len(queries)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_mixed_backends(tmp_path):
    record = {"header": {"workload": "window-scan", "kernel_backend": "python", "bit_budget": 10**6},
              "result": {"metrics": {"wall_ref": {"value": 1.0, "unit": "ref_loops"}}}}
    paths = []
    for backend in ("python", "compiled"):
        record["header"]["kernel_backend"] = backend
        paths.append(tmp_path / f"{backend}.json")
        paths[-1].write_text(json.dumps(record))
    compare = [sys.executable, str(ROOT / "perfbench" / "compare.py")]
    assert subprocess.run(compare + [str(paths[0]), str(paths[0])], capture_output=True).returncode == 0
    assert subprocess.run(compare + [str(p) for p in paths], capture_output=True).returncode == 2
