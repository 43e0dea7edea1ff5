"""Compare two run records written by run.py (``.perfbench-out/*.json``).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both runs and NEW/BASE. Refuses (exit 2) to compare
runs of different workloads, kernel backends or bit budgets: the compiled
kernels are 1.5-2.2x faster per kernel and the budget changes what a query
computes, so mixing either would fake a gain or a loss.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("workload", "kernel_backend", "bit_budget")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in argv)
    for key in MUST_MATCH:
        if base["header"].get(key) != new["header"].get(key):
            print(f"compare: refusing, {key} differs: "
                  f"{base['header'].get(key)!r} vs {new['header'].get(key)!r}", file=sys.stderr)
            return 2
    a, b = base["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(a) | set(b)):
        va = a.get(name, {}).get("value")
        vb = b.get(name, {}).get("value")
        ratio = f"{vb / va:.3f}" if va and vb is not None else "-"
        unit = (a.get(name) or b.get(name))["unit"]
        print(f"{name:55s} {va!s:>24} {vb!s:>24} {unit:6s} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
