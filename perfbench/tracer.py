"""Per-layer tracing from outside the library: one layer per ``ztop`` module.

``Tracer.install`` replaces each traced function at every place a caller
looks it up: the module attributes bound by ``from ... import`` in each
ztop module and in the ``ztop`` package, the ``PivotSequence`` methods, and
the function entries of ``cli.ACCEPTANCE_SWEEPS``. ``uninstall`` puts the
originals back. Kernels are reached only through the active
``ztop._kernels`` dispatch, where the library modules bind them.

Each wrapper keeps a frame on a stack so that a call's self time is its
duration minus the time of the traced calls inside it. Coarse calls (the
query itself, CLI, acceptance sweeps, public scans and convergence tests)
also record a span: name, start, end, parent span and query id, kept in
memory and written out after the run. The hot leaves (``term``,
``wrap_half``, ``check_level``, the kernels and membership routes, with
millions of calls per run) only add to counters. Generators are timed by
their ``next()`` calls.
"""

from __future__ import annotations

import json
import time

# name -> (module holding the original, attribute, kind); kind "span" records spans
LAYERS = {
    "torus.canonicalize": ("torus", "canonicalize", "count"),
    "torus.check_level": ("torus", "check_level", "count"),
    "decomposition.decompose": ("decomposition", "decompose", "count"),
    "decomposition.recompose_and_check": ("decomposition", "recompose_and_check", "count"),
    "neighborhoods.member_direct": ("neighborhoods", "member_direct", "count"),
    "neighborhoods.member_partial_sums": ("neighborhoods", "member_partial_sums", "count"),
    "neighborhoods.coeff_bound_test": ("neighborhoods", "coeff_bound_test", "count"),
    "neighborhoods.iter_members": ("neighborhoods", "iter_members", "generator"),
    "neighborhoods.discreteness_witness": ("neighborhoods", "discreteness_witness", "span"),
    "convergence.prefix_test": ("convergence", "prefix_test", "span"),
    "convergence.falsify_uniform": ("convergence", "falsify_uniform", "span"),
    "convergence.block_statistics": ("convergence", "block_statistics", "span"),
    "convergence.peak_decay_report": ("convergence", "peak_decay_report", "span"),
    "convergence.eval_sequence": ("convergence", "eval_sequence", "count"),
    "duality.kernel_check": ("duality", "kernel_check", "span"),
    "duality.continuity_window_check": ("duality", "continuity_window_check", "span"),
    "regressions.run_paper_checks": ("regressions", "run_paper_checks", "generator"),
    "cli.main": ("cli", "main", "span"),
}
ACCEPTANCE = (
    "decomposition_soundness",
    "membership_sweep",
    "two_adic_separation",
    "linear_separation",
    "discreteness",
    "convergent_membership",
    "block_closed_forms",
    "duality_shadow",
)
KERNELS = ("decompose_digits", "coefficient_checks", "member_partial_scan", "member_direct_scan", "wrap_half")
KERNEL_CALLERS = ("decomposition", "neighborhoods", "convergence", "duality", "torus")
PIVOT_METHODS = ("term", "terms", "terms_until")
CALLERS = ("torus", "pivots", "decomposition", "neighborhoods", "convergence", "duality",
           "acceptance", "regressions", "cli")
CONVERGENCE_SCANS = ("convergence.prefix_test", "convergence.falsify_uniform",
                     "convergence.block_statistics")

COUNTERS = (
    "pivots.max_index",
    "pivots.max_term_bits",
    "pivots.budget_refusals",
    "kernels.decompose_digits.digits",
    "convergence.rescan.wrap_half_calls",
    "neighborhoods.iter_members.scanned",
    "neighborhoods.iter_members.yielded",
    "neighborhoods.discreteness_witness.survivors",
    "convergence.terms_scanned",
    "convergence.witnesses",
    "convergence.verdicts.stabilized",
    "convergence.verdicts.falsified",
    "convergence.verdicts.inconclusive",
    "duality.continuity_window_check.scanned",
    "acceptance.calls",
)


def timed_names():
    """Every layer whose calls and self time are reported."""
    names = [f"pivots.{m}" for m in PIVOT_METHODS] + [f"kernels.{k}" for k in KERNELS]
    return names + [n for n in LAYERS if n not in ("regressions.run_paper_checks", "cli.main")]


def unit_of(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "pivots.max_term_bits":
        return "bits"
    return "count"


class Tracer:
    """Installs the wrappers on one imported ``ztop`` and collects their data."""

    def __init__(self, lib):
        self.lib = lib
        self.modules = {name: getattr(lib, name) for name in CALLERS}
        self.budget_error = lib.BitBudgetExceeded
        self.stack = [[0.0, None]]  # frames: [time of traced children, layer name]
        self.span_stack = [-1]
        self.spans = []  # [name, start, end, parent span, query id]
        self.query_id = -1
        self.stats = {}  # layer name -> [calls, self seconds, total seconds]
        self.count = dict.fromkeys(COUNTERS, 0)
        self.last_refusal = None
        self.saved = []  # (owner, attribute, original) to restore

    # -- wrappers ------------------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _open_span(self, name, start):
        self.spans.append([name, start, None, self.span_stack[-1], self.query_id])
        self.span_stack.append(len(self.spans) - 1)

    def _close_span(self, end):
        self.spans[self.span_stack.pop()][2] = end

    def wrap_call(self, name, fn, after=None):
        """Time every call of ``fn``; ``after(caller, args, result)`` adds counts."""
        stack, stat, clock = self.stack, self._stat(name), time.perf_counter
        span = name.startswith("acceptance.") or LAYERS.get(name, ("", "", "count"))[2] == "span"
        budget_error, tracer = self.budget_error, self

        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            if span:
                tracer._open_span(name, t0)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(caller[1], args, result)
                return result
            except budget_error as exc:
                if exc is not tracer.last_refusal:
                    tracer.last_refusal = exc
                    tracer.count["pivots.budget_refusals"] += 1
                raise
            finally:
                t1 = clock()
                if span:
                    tracer._close_span(t1)
                stack.pop()
                dt = t1 - t0
                caller[0] += dt
                stat[0] += 1
                stat[1] += dt - frame[0]
                stat[2] += dt

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn, on_start=None, on_item=None):
        """Time a generator function by the ``next()`` calls made on its result."""
        stack, stat, clock, tracer = self.stack, self._stat(name), time.perf_counter, self

        def traced(*args, **kwargs):
            stat[0] += 1
            it = fn(*args, **kwargs)
            started = False
            try:
                while True:
                    caller = stack[-1]
                    frame = [0.0, name]
                    stack.append(frame)
                    t0 = clock()
                    if started:
                        tracer.span_stack.append(span_id)
                    else:
                        tracer._open_span(name, t0)
                        span_id = tracer.span_stack[-1]
                        started = True
                        if on_start is not None:
                            on_start(args, kwargs)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        tracer.spans[span_id][2] = t1
                        tracer.span_stack.pop()
                        stack.pop()
                        dt = t1 - t0
                        caller[0] += dt
                        stat[1] += dt - frame[0]
                        stat[2] += dt
                    if on_item is not None:
                        on_item(caller[1])
                    yield item
            finally:
                it.close()

        traced.__wrapped__ = fn
        return traced

    # -- layer-specific counts ---------------------------------------------------------

    def _after_term(self, caller, args, result):
        n = args[1]
        if n > self.count["pivots.max_index"]:
            self.count["pivots.max_index"] = n
        bits = result.bit_length()
        if bits > self.count["pivots.max_term_bits"]:
            self.count["pivots.max_term_bits"] = bits

    def _after_digits(self, caller, args, result):
        self.count["kernels.decompose_digits.digits"] += len(result)

    def _after_rescan(self, caller, args, result):
        self.count["convergence.rescan.wrap_half_calls"] += 1

    def _after_member_direct(self, caller, args, result):
        if caller == "neighborhoods.iter_members":
            self.count["neighborhoods.iter_members.scanned"] += 2  # k and -k

    def _iter_start(self, args, kwargs):
        self.count["neighborhoods.iter_members.scanned"] += 1  # k = 0

    def _iter_item(self, consumer):
        self.count["neighborhoods.iter_members.yielded"] += 1
        if consumer == "duality.continuity_window_check":
            self.count["duality.continuity_window_check.scanned"] += 1

    def _after_survivors(self, caller, args, result):
        self.count["neighborhoods.discreteness_witness.survivors"] += len(result.survivors)

    def _after_eval(self, caller, args, result):
        if caller in CONVERGENCE_SCANS:
            self.count["convergence.terms_scanned"] += 1

    def _after_verdict(self, caller, args, result):
        self.count[f"convergence.verdicts.{result.outcome}"] += 1
        self.count["convergence.witnesses"] += len(result.witnesses)

    def _after_falsify(self, caller, args, result):
        self.count["convergence.witnesses"] += len(result)

    def _after_acceptance(self, caller, args, result):
        self.count["acceptance.calls"] += 1

    # -- install / uninstall ------------------------------------------------------------

    def _replace(self, owner, attr, new):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _bind_everywhere(self, original, wrapper, modules):
        """Replace ``original`` wherever one of ``modules`` has bound it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    def install(self):
        lib, mods = self.lib, self.modules
        everywhere = [lib] + list(mods.values())
        pivot_cls = lib.PivotSequence
        for method in PIVOT_METHODS:
            after = self._after_term if method == "term" else None
            self._replace(pivot_cls, method, self.wrap_call(f"pivots.{method}", getattr(pivot_cls, method), after))
        for kernel in KERNELS:
            original = getattr(lib._kernels, kernel)
            for caller in KERNEL_CALLERS:
                after = self._after_digits if kernel == "decompose_digits" else None
                if kernel == "wrap_half" and caller == "convergence":
                    after = self._after_rescan
                self._bind_everywhere(original, self.wrap_call(f"kernels.{kernel}", original, after), [mods[caller]])
        hooks = {
            "neighborhoods.member_direct": self._after_member_direct,
            "neighborhoods.discreteness_witness": self._after_survivors,
            "convergence.eval_sequence": self._after_eval,
            "convergence.prefix_test": self._after_verdict,
            "convergence.falsify_uniform": self._after_falsify,
        }
        for name, (module, attr, kind) in LAYERS.items():
            original = getattr(mods[module], attr)
            if kind == "generator":
                if name == "neighborhoods.iter_members":
                    wrapper = self.wrap_generator(name, original, self._iter_start, self._iter_item)
                else:
                    wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap_call(name, original, hooks.get(name))
            self._bind_everywhere(original, wrapper, everywhere)
        sweeps = mods["cli"].ACCEPTANCE_SWEEPS
        self.saved.append((sweeps, None, list(sweeps)))
        for fn_name in ACCEPTANCE:
            original = getattr(mods["acceptance"], fn_name)
            wrapper = self.wrap_call(f"acceptance.{fn_name}", original, self._after_acceptance)
            self._bind_everywhere(original, wrapper, everywhere)
            for i, entry in enumerate(sweeps):
                if entry[1] is original:
                    sweeps[i] = (entry[0], wrapper) + tuple(entry[2:])

    def uninstall(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            if attr is None:
                owner[:] = original
            else:
                setattr(owner, attr, original)

    def around_query(self, call):
        """Wrap the benchmark's per-query call in a root span with its query id."""

        def traced_query(lib, query):
            self.query_id += 1
            t0 = time.perf_counter()
            self._open_span(f"query.{query.kind}", t0)
            try:
                return call(lib, query)
            finally:
                self._close_span(time.perf_counter())

        return traced_query

    # -- results --------------------------------------------------------------------------

    def metrics(self):
        out = {}
        for name in timed_names():
            calls, self_s, _ = self.stats.get(name, (0, 0.0, 0.0))
            if name != "neighborhoods.iter_members":
                out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.count)
        scanned = self.count["neighborhoods.iter_members.scanned"]
        out["neighborhoods.iter_members.hit_ratio"] = (
            self.count["neighborhoods.iter_members.yielded"] / scanned if scanned else 0.0)
        for fn_name in ACCEPTANCE:
            out[f"acceptance.{fn_name}.s"] = self.stats.get(f"acceptance.{fn_name}", (0, 0.0, 0.0))[2]
        out["regressions.run_paper_checks.s"] = self.stats.get("regressions.run_paper_checks", (0, 0.0, 0.0))[2]
        out["cli.main.self_s"] = self.stats.get("cli.main", (0, 0.0, 0.0))[1]
        return out

    def write_spans(self, path):
        path.parent.mkdir(exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, qid]) + "\n")
        return path
