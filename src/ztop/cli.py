"""Command-line front end.

Subcommands: decompose, member, converge, blocks, discrete, dual,
verify-paper. Reports are newline-delimited JSON records by default (a
header record with the command, config echo, and library version, then one
record per result); the tabular ``blocks`` subcommand can emit CSV instead.
Output is deterministic byte-for-byte for a fixed config. verify-paper
prints one record per row of ``ztop.regressions.PAPER_CHECKS``, then ALL.

Exit codes: 0 success / claims verified; 1 falsification or invariant
violation found (the report says what); 2 usage or config errors, running
out of memory, or an internal error.

A JSON config file (--config) may supply any long option (dashes become
underscores); explicit command-line flags win. The ZTOP_BIT_BUDGET
environment variable overrides the per-term bit budget.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from ztop import __version__, regressions
from ztop.convergence import (
    FAMILIES,
    block_statistics,
    make_sequence,
    peak_decay_report,
    prefix_test,
)
from ztop.decomposition import decompose, recompose_and_check
from ztop.duality import character, continuity_window_check, generated_member, kernel_check
from ztop.neighborhoods import (
    Linear,
    NeighborhoodSpec,
    Uniform,
    coeff_bound_test,
    discreteness_witness,
    member_direct,
    member_partial_sums,
)
from ztop.pivots import BitBudgetExceeded, make_pivots
from ztop.torus import parse_rational, rat_str

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2


def _json_line(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _point_str(point):
    return None if point is None else rat_str(point.rep)


class Report:
    """Collects the header and result rows, then renders NDJSON or CSV."""

    def __init__(self, command: str, config: dict):
        self.header = {
            "record": "header",
            "command": command,
            "config": config,
            "version": __version__,
        }
        self.rows: list[dict] = []

    def add(self, **row):
        self.rows.append(row)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            lines = [_json_line(self.header)]
            lines += [_json_line(dict(row, record="result")) for row in self.rows]
            return "\n".join(lines) + "\n"
        # CSV: header metadata as comment lines, then one table
        out = io.StringIO()
        out.write("# " + _json_line(self.header) + "\n")
        fields = sorted({key for row in self.rows for key in row})
        out.write(",".join(fields) + "\n")
        for row in self.rows:
            out.write(",".join(_csv_cell(row.get(f)) for f in fields) + "\n")
        return out.getvalue()


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _write(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ztop",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="JSON file supplying any long option")
    sub = parser.add_subparsers(dest="command")

    def common(p, csv_ok=False):
        p.add_argument("--format", choices=("json", "csv") if csv_ok else ("json",))
        p.add_argument("--output", help="write the report to this path instead of stdout")
        p.add_argument("--seed", type=int, help="seed for randomized sweeps (default 0)")

    p = sub.add_parser("decompose", help="balanced digits of an integer over a chain")
    p.add_argument("--pivots")
    p.add_argument("--l", type=int, dest="l_value")
    common(p)

    p = sub.add_parser("member", help="all four membership routes side by side")
    p.add_argument("--pivots")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    common(p)

    p = sub.add_parser("converge", help="prefix convergence verdict for a sequence")
    p.add_argument("--pivots")
    p.add_argument("--sequence", choices=FAMILIES)
    p.add_argument("--m", type=int, help="uniform neighbourhood level")
    p.add_argument("--n", type=int, help="linear neighbourhood index")
    p.add_argument("--horizon", type=int)
    common(p)

    p = sub.add_parser("blocks", help="settle-index / block / peak-ratio table")
    p.add_argument("--pivots")
    p.add_argument("--sequence", choices=FAMILIES)
    p.add_argument("--horizon", type=int)
    p.add_argument("--levels", type=int)
    p.add_argument("--thresholds", help="comma-separated arc levels for the peak-decay report")
    common(p, csv_ok=True)

    p = sub.add_parser("discrete", help="separation certificate for a decreasing sequence")
    p.add_argument("--x", dest="xs", help="comma-separated rationals, e.g. 1/2,1/4,1/8")
    p.add_argument("--ratio-bound", type=int, dest="ratio_bound")
    p.add_argument("--window", type=int)
    common(p)

    p = sub.add_parser("dual", help="character continuity checks")
    p.add_argument("--pivots")
    p.add_argument("--chi", help='character value "p/q"')
    p.add_argument("--m", type=int, help="also window-check against this uniform level")
    p.add_argument("--n", type=int, help="also window-check against this linear index")
    p.add_argument("--window", type=int)
    common(p)

    p = sub.add_parser("verify-paper", help="run every built-in regression and acceptance sweep")
    p.add_argument("--quick", action="store_true", help="trim the exhaustive sweep sizes")
    common(p)
    # subcommand -> {dest: flag}; messages name the flag, which is not always the dest
    flags = {
        name: {a.dest: a.option_strings[0] for a in p._actions if a.option_strings}
        for name, p in sub.choices.items()
    }
    return parser, flags


def _integer_option(flag, value):
    """An int, or the text of one; config booleans and floats are refused
    rather than truncated."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif type(value) is int:
        return value
    raise ValueError(f"option {flag} must be an integer, got {value!r}")


class _Settings:
    """Resolves each option as: explicit flag, else config file, else default.

    A config file names an option by its long flag with dashes turned into
    underscores (``l`` for ``--l``); the storage name (``l_value``) is read
    when the flag's name is absent.
    """

    def __init__(self, args, config: dict, flags: dict):
        self.args = args
        self.config = config
        self.flags = flags

    def get(self, key, default=None, required=False, integer=False):
        flag = self.flags[key]
        value = getattr(self.args, key, None)
        if value is None:
            name = flag.lstrip("-").replace("-", "_")
            value = self.config[name] if name in self.config else self.config.get(key, default)
        if value is None and required:
            raise ValueError(f"missing required option {flag}")
        if value is not None and integer:
            value = _integer_option(flag, value)
        return value

    def echo(self):
        """The header's config: every option set, bar those shaping the output."""
        values = {k: self.get(k) for k in self.flags if k not in ("help", "format", "output")}
        return {k: v for k, v in values.items() if v is not None}


def _spec_from(settings, pivots):
    m = settings.get("m", integer=True)
    n = settings.get("n", integer=True)
    if (m is None) == (n is None):
        raise ValueError("exactly one of --m (uniform) or --n (linear) is required")
    return NeighborhoodSpec(pivots, Uniform(m) if m is not None else Linear(n))


def _run_decompose(settings):
    pivots = make_pivots(settings.get("pivots", required=True))
    l = settings.get("l_value", required=True, integer=True)
    report = Report("decompose", settings.echo())
    coeffs = decompose(l, pivots)
    check = recompose_and_check(coeffs)
    report.add(
        l=l,
        pivots=pivots.text,
        coefficients=coeffs.text(),
        top_index=coeffs.top_index,
        value=check.value,
        sum_ok=check.sum_ok,
        digit_bounds_ok=check.digit_bounds_ok,
        partial_sum_bounds_ok=check.partial_sum_bounds_ok,
        ok=check.ok,
    )
    return report, EXIT_OK if check.ok else EXIT_FALSIFIED


def _run_member(settings):
    pivots = make_pivots(settings.get("pivots", required=True))
    m = settings.get("m", required=True, integer=True)
    k = settings.get("k", required=True, integer=True)
    report = Report("member", settings.echo())
    coeffs = decompose(k, pivots)
    direct = member_direct(k, pivots, m)
    partial = member_partial_sums(k, pivots, m)
    sufficient = coeff_bound_test(coeffs, m, "sufficient")
    necessary = coeff_bound_test(coeffs, m, "necessary")
    consistent = (direct == partial) and (not sufficient or direct) and (not direct or necessary)
    report.add(
        k=k,
        m=m,
        pivots=pivots.text,
        direct=direct,
        partial_sums=partial,
        sufficient=sufficient,
        necessary=necessary,
        routes_consistent=consistent,
    )
    return report, EXIT_OK if consistent else EXIT_FALSIFIED


def _run_converge(settings):
    pivots = make_pivots(settings.get("pivots", required=True))
    seq = make_sequence(settings.get("sequence", required=True), pivots)
    spec = _spec_from(settings, pivots)
    horizon = settings.get("horizon", required=True, integer=True)
    report = Report("converge", settings.echo())
    verdict = prefix_test(seq, spec, horizon)
    report.add(
        sequence=seq.family,
        spec=spec.describe(),
        horizon=horizon,
        outcome=verdict.outcome,
        stabilized_at=verdict.stabilized_at,
        witnesses=[
            {"j": w.j, "n": w.n, "value": _point_str(w.value)} for w in verdict.witnesses
        ],
        note=verdict.note,
    )
    return report, EXIT_FALSIFIED if verdict.outcome == "falsified" else EXIT_OK


def _run_blocks(settings):
    pivots = make_pivots(settings.get("pivots", required=True))
    seq = make_sequence(settings.get("sequence", required=True), pivots)
    horizon = settings.get("horizon", required=True, integer=True)
    levels = settings.get("levels", integer=True)
    thresholds_text = settings.get("thresholds")
    report = Report("blocks", settings.echo())
    status = EXIT_OK
    if thresholds_text:
        flag = settings.flags["thresholds"]
        thresholds = tuple(_integer_option(flag, t) for t in str(thresholds_text).split(","))
        decay = peak_decay_report(seq, pivots, horizon, thresholds, levels=levels)
        stats = decay.stats
    else:
        decay = None
        stats = block_statistics(seq, pivots, horizon, levels=levels)
    for n in sorted(stats.blocks):
        lo, hi = stats.blocks[n]
        peak = stats.peaks.get(n)
        report.add(
            kind="block",
            n=n,
            settle_index=stats.settle.get(n),
            block_lo=lo,
            block_hi=hi,
            peak=None if peak is None else rat_str(peak),
        )
    for n in stats.missing:
        report.add(kind="missing-settle-index", n=n, settle_index=None,
                   block_lo=None, block_hi=None, peak=None)
    if decay is not None:
        for entry in decay.entries:
            report.add(
                kind="peak-decay",
                m=entry.m,
                applicable=entry.applicable,
                settled_level=entry.settled_level,
                crosscheck_ok=entry.crosscheck_ok,
            )
            if entry.crosscheck_ok is False:
                status = EXIT_FALSIFIED
    return report, status


def _run_discrete(settings):
    xs_text = settings.get("xs", required=True)
    xs = [parse_rational(x) for x in str(xs_text).split(",")]
    ratio_bound = settings.get("ratio_bound", required=True, integer=True)
    window = settings.get("window", 100, integer=True)
    report = Report("discrete", settings.echo())
    witness = discreteness_witness(xs, ratio_bound, window)
    report.add(
        ratio_bound=witness.ratio_bound,
        multiplier=witness.multiplier,
        level=witness.level,
        window=witness.window_bound,
        survivors=list(witness.survivors),
        verified=witness.verified,
    )
    return report, EXIT_OK if witness.verified else EXIT_FALSIFIED


def _run_dual(settings):
    pivots = make_pivots(settings.get("pivots", required=True))
    chi = character(parse_rational(str(settings.get("chi", required=True))))
    report = Report("dual", settings.echo())
    kernel = kernel_check(chi, pivots)
    try:
        generated = generated_member(chi.value, pivots)
    except BitBudgetExceeded:
        generated = None
    row = {
        "chi": rat_str(chi.value.rep),
        "pivots": pivots.text,
        "kernel_continuous": kernel.continuous_for_linear,
        "kernel_witness_index": kernel.witness_index,
        "kernel_certificate": kernel.certificate,
        "generated_member": generated,
    }
    status = EXIT_OK
    m = settings.get("m", integer=True)
    n = settings.get("n", integer=True)
    if m is not None or n is not None:
        spec = _spec_from(settings, pivots)
        window = settings.get("window", 1000, integer=True)
        wcheck = continuity_window_check(chi, spec, window)
        row["window"] = window
        row["window_ok"] = wcheck.ok
        row["window_failing_k"] = wcheck.failing_k
        if kernel.continuous_for_linear and isinstance(spec.family, Linear):
            if spec.family.n >= (kernel.witness_index or 0) and not wcheck.ok:
                status = EXIT_FALSIFIED  # contradicts the kernel containment
    report.add(**row)
    return report, status


# The check table under its older name, which the benchmark's tracer reads.
ACCEPTANCE_SWEEPS = regressions.PAPER_CHECKS


def _run_verify(settings):
    quick = bool(settings.get("quick", False))
    seed = settings.get("seed", 0, integer=True)
    report = Report("verify-paper", {"quick": quick, "seed": seed})
    all_ok = True
    for name, ok, detail in regressions.run_paper_checks(seed=seed, quick=quick):
        report.add(check=name, ok=ok, detail=detail)
        all_ok = all_ok and ok
    report.add(check="ALL", ok=all_ok, detail="every regression and sweep")
    return report, EXIT_OK if all_ok else EXIT_FALSIFIED


_RUNNERS = {
    "decompose": _run_decompose,
    "member": _run_member,
    "converge": _run_converge,
    "blocks": _run_blocks,
    "discrete": _run_discrete,
    "dual": _run_dual,
    "verify-paper": _run_verify,
}


def main(argv=None) -> int:
    parser, flags = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("config file must hold a JSON object")
            config = {str(k).replace("-", "_"): v for k, v in config.items()}
        except (OSError, ValueError) as exc:
            print(f"ztop: config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    settings = _Settings(args, config, flags[args.command])
    try:
        report, status = _RUNNERS[args.command](settings)
        fmt = settings.get("format", "json")
        if fmt == "csv" and args.command != "blocks":
            raise ValueError("CSV output is only available for tabular subcommands (blocks)")
        _write(report.render(fmt), settings.get("output"))
        return status
    except BitBudgetExceeded as exc:
        print(f"ztop: bit budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError) as exc:
        print(f"ztop: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("ztop: out of memory; try a smaller --horizon or --window", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # exit 1 is kept for verdicts
        print(f"ztop: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
