"""ztop benchmark runner: one seeded workload, timed, gated and reported.

    python3 perfbench/run.py --workload window-scan --seed 1 --seconds 30 --trace 0

A single-threaded closed loop: each query is sent only after the previous
one returned, as a CLI or notebook user does. A pass runs the workload's
fixed query list once; passes repeat until ``--seconds`` is spent (at least
three), and the first is a warm-up.

``wall_ref`` is the mean time of a timed pass divided by the mean time of a
fixed reference loop that runs between queries, once per 50 ms of work. A
shared host slows Python-level loops by up to 1.6x for a minute or more at
a time, longer than a run, while arithmetic on 10^4-bit integers barely
slows; so each workload has the reference loop whose work is like its own,
which slows with it, and the ratio holds where seconds do not. ``wall_s``,
the sum of each query's best time over the passes, is printed on the
summary line but not gated. Every answer is checked outside the timed
region: the first pass against the slow oracles in ``gate.py``, later
passes against the first.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the same
untraced passes, then runs one more pass with the layer wrappers of
``tracer.py`` installed and prints the per-layer metrics. The last line of
standard output is one JSON object; the lines before it are a readable
summary. The run record, and in a traced run the spans, go to
``.perfbench-out/`` under the repository root.

Must be run from a ztop source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import dataclasses  # noqa: F401  imported by ztop; loaded here, before set-up is timed
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import threading  # noqa: F401  imported by ztop; loaded here, before set-up is timed
import time
from fractions import Fraction
from pathlib import Path

import gate
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
MIN_PASSES = 3
SETUP_REPEATS = 31  # fixed: each copy of ztop imported leaves some memory behind
REF_EVERY_S = 0.05  # seconds of query work between two reference loops
NOMINAL_LOOP_S = 0.003  # interpreter_loop's time on the nominal host of setup_s
EXIT_USAGE = 2


class Outcome:
    """How one query call ended: ``status`` is "ok", "refused" (it raised
    BitBudgetExceeded) or "error"; ``raw`` is the result or the exception."""

    __slots__ = ("status", "raw")

    def __init__(self, status, raw):
        self.status = status
        self.raw = raw


def import_library():
    """Import ztop (and its CLI) afresh from ``src/``; refuse any other copy."""
    for name in [n for n in sys.modules if n == "ztop" or n.startswith("ztop.")]:
        del sys.modules[name]
    lib = importlib.import_module("ztop")
    importlib.import_module("ztop.cli")
    if Path(lib.__file__).resolve().parent != SRC / "ztop":
        raise ImportError(f"ztop imported from {lib.__file__}, not from {SRC}")
    return lib


def setup(workload, seed, size):
    """Import the library afresh and generate the inputs.

    Returns (lib, queries, seconds). The standard-library modules ztop
    pulls in are imported at the top of this file, so every set-up pays the
    same cost: loading ztop and building the seeded inputs.
    """
    t0 = time.perf_counter()
    lib = import_library()
    queries = workloads.generate(workload, seed, size)
    return lib, queries, time.perf_counter() - t0


def setup_again(workload, seed, size):
    """Time one more set-up, then put back the copy of ztop the passes call."""
    kept = {n: m for n, m in sys.modules.items() if n == "ztop" or n.startswith("ztop.")}
    seconds = setup(workload, seed, size)[2]
    sys.modules.update(kept)
    gc.collect()  # free the new copy now, so that peak_rss_mb holds one copy
    return seconds


def read_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_header(lib, workload, seed, size, seconds):
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "python": platform.python_version(),
        "commit": read_commit(),
        "kernel_backend": lib.KERNEL_BACKEND,
        "bit_budget": lib.make_pivots("linear").bit_budget,
        "ZTOP_PURE_KERNELS": os.environ.get("ZTOP_PURE_KERNELS"),
        "nproc": os.cpu_count(),
    }


def execute(lib, query):
    try:
        return Outcome("ok", workloads.run_query(lib, query))
    except lib.BitBudgetExceeded as exc:
        return Outcome("refused", exc)
    except Exception as exc:  # a crash is a failed query, not a failed run
        return Outcome("error", exc)


def interpreter_loop(iterations=5000):
    """Fixed Python-level work that calls no ztop code: the small-integer,
    dict and Fraction operations of paper-verify's sweeps and window-scan's
    range scans. 3-5 ms on a 2-vCPU Xeon VM, 2.1 GHz base."""
    acc, big, table, x = 0, 3**300, {}, Fraction(1, 3)
    for i in range(iterations):
        q, r = divmod(i * 2654435761 + acc, 1000003)
        acc = (acc + q * r) & 0xFFFFFFFF
        table[i & 1023] = acc
        if i % 8 == 0:
            big = (big * 5 + acc) % (3**300 + 2)
        if i % 64 == 0:
            x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 3)
    return acc, big, x


BIG = 3**9000  # about 14,000 bits


def big_integer_loop(rounds=16):
    """Fixed multiplication and reduction of 14,000-bit integers, calling no
    ztop code: the arithmetic on big pivot terms that sequence-scan's time
    goes to. 4-6 ms on the same VM."""
    x = BIG
    for i in range(rounds):
        x = x * (BIG + i) % (BIG + 2 * i + 1)
    return x


REFERENCE_LOOPS = {
    "paper-verify": interpreter_loop,
    "window-scan": interpreter_loop,
    "sequence-scan": big_integer_loop,
}


def time_reference(loop):
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def run_pass(lib, queries, call=execute, reference=None):
    """One timed pass. Returns (seconds, per-query seconds, outcomes).

    The seconds are the sum of the query times. Given ``reference``, a pair
    (loop, list), the loop runs before the first query and then after every
    ``REF_EVERY_S`` of query work, and its times are appended to the list.
    """
    latencies, outcomes = [], []
    clock = time.perf_counter
    since_ref = REF_EVERY_S
    for query in queries:
        if reference is not None and since_ref >= REF_EVERY_S:
            reference[1].append(time_reference(reference[0]))
            since_ref = 0.0
        t0 = clock()
        outcomes.append(call(lib, query))
        latencies.append(clock() - t0)
        since_ref += latencies[-1]
    return sum(latencies), latencies, outcomes


class Measurement:
    """Untraced passes for ``seconds``, each gated after it ends.

    ``checker`` gives ``check(query, outcome)`` (None or a failure reason) and
    ``digest(query, outcome)`` (compact plain data that equal answers
    share). The first pass is checked against the oracles; later passes
    must repeat its answers exactly. Only digests outlive a pass, so the
    memory a run holds does not grow with the number of passes.
    """

    def __init__(self, lib, queries, checker, ref_loop=interpreter_loop):
        self.lib = lib
        self.queries = queries
        self.checker = checker
        self.ref_loop = ref_loop
        self.pass_seconds = []
        self.ref_seconds = []  # reference loops of the timed passes
        self.best_latency = [float("inf")] * len(queries)
        self.reference = None
        self.attempted = 0
        self.failures = []

    def record(self, outcomes):
        self.attempted += len(outcomes)
        digests = [self.checker.digest(q, o) for q, o in zip(self.queries, outcomes)]
        if self.reference is None:
            self.reference = digests
            self.failures += check_all(self.checker, self.queries, outcomes)
            return
        for i, (query, d) in enumerate(zip(self.queries, digests)):
            if d != self.reference[i]:
                self.failures.append((i, query.kind, "answer differs from the first pass"))

    def run(self, seconds, between=None):
        """Passes until ``seconds`` are spent; ``between()`` runs after each."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            times = self.ref_seconds if self.pass_seconds else []  # none for the warm-up
            wall, latencies, outcomes = run_pass(self.lib, self.queries, reference=(self.ref_loop, times))
            self.pass_seconds.append(wall)
            self.best_latency = [min(a, b) for a, b in zip(self.best_latency, latencies)]
            self.record(outcomes)
            # A refusal's traceback keeps its big integers in reference cycles;
            # free them so that peak_rss_mb is a pass's memory, not a count of
            # how many passes ran before the cyclic collector did.
            outcomes = None
            gc.collect()
            if between is not None:
                between()
            now = time.perf_counter()
            if len(self.pass_seconds) >= MIN_PASSES and now - start + (now - t0) > seconds:
                self.ref_seconds.append(time_reference(self.ref_loop))
                return

    def wall_ref(self):
        """Mean timed pass over mean reference loop, the warm-up left out."""
        return statistics.mean(self.pass_seconds[1:]) / statistics.mean(self.ref_seconds)


def check_all(checker, queries, outcomes):
    """(query index, kind, reason) for each outcome the gate rejects."""
    failures = []
    for i, (query, outcome) in enumerate(zip(queries, outcomes)):
        reason = checker.check(query, outcome)
        if reason is not None:
            failures.append((i, query.kind, reason))
    return failures


def latency_summary(best_latency):
    """p50/p95 over each query's best latency; p95 only with ten queries above it."""
    ms = sorted(x * 1000 for x in best_latency)
    summary = {"queries": len(ms), "op_p50_ms": statistics.median(ms)}
    if len(ms) >= 200:
        p95 = statistics.quantiles(ms, n=20)[18]
        summary["op_p95_ms"] = p95
        summary["above_p95"] = sum(1 for x in ms if x > p95)
    return summary


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_record(name, record):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def traced_pass(lib, queries, checker, run_name):
    """One pass with the layer wrappers installed, gated after they are removed.

    Returns (seconds, per-layer metrics, failures, path of the span file).
    """
    t = tracer.Tracer(lib)
    t.install()
    try:
        wall, _, outcomes = run_pass(lib, queries, t.around_query(execute))
    finally:
        t.uninstall()
    spans_path = t.write_spans(OUT_DIR / f"{run_name}-spans.jsonl")
    return wall, t.metrics(), check_all(checker, queries, outcomes), spans_path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="'smoke' runs tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ztop" / "__init__.py").is_file():
        print(f"perfbench: no ztop sources under {SRC}", file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(SRC))
    setup_refs = [time_reference(interpreter_loop)]
    lib, queries, first_setup = setup(args.workload, args.seed, args.size)
    checker = gate.Gate(lib)
    header = run_header(lib, args.workload, args.seed, args.size, args.seconds)
    print("# " + json.dumps(header, sort_keys=True))
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    measurement = Measurement(lib, queries, checker, REFERENCE_LOOPS[args.workload])
    # The set-ups are spread evenly over the run, between passes, so that
    # setup_s is a median over the whole run, as wall_ref is, not over the
    # host's speed in its first second. Set-up is Python-level work, so an
    # interpreter_loop timed before each one gives the host's speed, and
    # setup_s is in seconds of a nominal host where that loop takes
    # NOMINAL_LOOP_S. Over ten-run sets the raw median's quartile spread
    # was 0.19-0.23 of its median, this one's 0.05-0.08.
    setup_times = [first_setup]
    start = time.perf_counter()

    def setups_due(until=None):
        if until is None:
            share = (time.perf_counter() - start) / args.seconds
            until = min(SETUP_REPEATS, 1 + int(share * (SETUP_REPEATS - 1)))
        while len(setup_times) < until:
            setup_refs.append(time_reference(interpreter_loop))
            setup_times.append(setup_again(args.workload, args.seed, args.size))

    measurement.run(args.seconds, setups_due)
    setups_due(SETUP_REPEATS)
    setup_s = statistics.median(setup_times) / statistics.median(setup_refs) * NOMINAL_LOOP_S
    wall_s = sum(measurement.best_latency)
    summary = {
        "wall_ref": measurement.wall_ref(),
        "wall_s": wall_s,
        "ref_ms": 1000 * statistics.median(measurement.ref_seconds),
        "setup_s": setup_s,
        "setup_raw_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "passes": len(measurement.pass_seconds),
        **latency_summary(measurement.best_latency),
    }
    failures = list(measurement.failures)
    attempted = measurement.attempted
    if args.trace:
        traced_wall, layer, traced_failures, spans_path = traced_pass(lib, queries, checker, run_name)
        layer["trace.overhead_ratio"] = traced_wall / wall_s
        failures += traced_failures
        attempted += len(queries)
        print(f"# spans written to {spans_path}")
    summary["fail_ratio"] = len(failures) / attempted

    for i, kind, reason in failures[:20]:
        print(f"# FAIL query {i} ({kind}): {reason}")
    print("# " + "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in summary.items()))
    units = {"wall_ref": "ref_loops", "setup_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        metrics = {name: {"value": value, "unit": tracer.unit_of(name)} for name, value in layer.items()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    write_record(run_name + ".json", {"header": header, "summary": summary, "result": result})
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
