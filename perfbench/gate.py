"""Per-query correctness gate, run outside the timed region.

Answers are re-derived from first principles, not from the routes under
test: chain terms and sequence values are recomputed here from their
definitions, and uniform membership uses the slow oracle
``in_arc(canonicalize(Fraction(k, b_n)), m)`` over every n with
``b_n < 4m|k|``. Where a full re-check would cost more than the query,
a seeded sample is checked instead.

A query that raises ``BitBudgetExceeded`` is a refusal, not a failure, as
long as the oracle agrees that some term it needs is over the budget.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

SAMPLE = 12
# query kinds whose answer may be a BitBudgetExceeded refusal
REFUSABLE = ("prefix_uniform", "prefix_linear", "falsify", "blocks", "decay")

PAPER_CHECKS = (
    "uniform-membership-128",
    "doubling-sequence-witnesses",
    "half-ratio-separation",
    "geometric-difference-membership",
    "block-example-falsification",
    "halving-discreteness",
    "seeded-spot-checks",
    "decomposition-soundness",
    "membership-routes",
    "two-adic-separation",
    "linear-separation",
    "discreteness",
    "convergent-membership",
    "block-closed-forms",
    "duality-shadow",
    "ALL",
)


class OverBudget(Exception):
    """The oracle needs a term or value wider than the bit budget."""


def _witnesses(ws):
    return tuple((w.j, w.n, None if w.value is None else w.value.rep) for w in ws)


def _stats(s):
    return (s.settle, s.blocks, s.peaks, s.missing, s.horizon, s.note)


def digest(query, outcome):
    """Plain data that two equal answers share, for comparing later passes."""
    if outcome.status != "ok":
        return (outcome.status, repr(outcome.raw))
    raw, kind = outcome.raw, query.kind
    if kind in ("prefix_uniform", "prefix_linear"):
        return (raw.outcome, raw.stabilized_at, _witnesses(raw.witnesses), raw.horizon, raw.note)
    if kind == "falsify":
        return _witnesses(raw)
    if kind == "blocks":
        return _stats(raw)
    if kind == "decay":
        return (_stats(raw.stats), tuple(raw.entries))
    if kind == "iter_members":  # up to 10^4 members: keep a fingerprint only
        return (len(raw), hash(tuple(raw)))
    return tuple(raw)


class Chain:
    """Chain terms recomputed from the descriptor text, with the bit budget."""

    def __init__(self, text, budget):
        self.budget = budget
        self.terms = [1]
        if text.startswith("chain:"):
            mults = [int(x) for x in text[6:].split(",")]
            self.step = lambda n: mults[(n - 1) % len(mults)]
            self.exponent = None
        else:
            self.step = None
            self.exponent = _exponent_form(text)

    def term(self, n):
        while len(self.terms) <= n:
            i = len(self.terms)
            if self.exponent is not None:
                a = self.exponent(i)
                if a + 1 > self.budget:
                    raise OverBudget(f"b_{i} needs {a + 1} bits")
                self.terms.append(1 << a)
            else:
                b = self.terms[-1] * self.step(i)
                if b.bit_length() > self.budget:
                    raise OverBudget(f"b_{i} needs {b.bit_length()} bits")
                self.terms.append(b)
        return self.terms[n]


def _exponent_form(text):
    if text == "linear":
        return lambda n: n
    if text == "square":
        return lambda n: n * n
    if text == "factorial":
        return lambda n: math.factorial(n) if n else 0
    if text == "pow2":
        return lambda n: 2**n if n else 0
    if text.startswith("poly:"):
        coeffs = [int(c) for c in text[5:].split(",")]
        return lambda n: sum(c * n ** (i + 1) for i, c in enumerate(coeffs))
    raise ValueError(f"unknown chain {text!r}")


def sequence_value(chain, family, j):
    """l_j of a built-in family, from its definition."""
    if family == "zero":
        return 0
    if family in ("pow2", "blockexample"):
        r = math.isqrt(j + 2)
        width = j + 2 if family == "blockexample" and r * r == j + 2 and r >= 2 else j
        if width + 1 > chain.budget:
            raise OverBudget(f"2^{width} needs {width + 1} bits")
        return 1 << width
    b = chain.term
    if family == "geomdiff":
        return b(j + 1) - b(j)
    if family == "wgeomdiff":
        return j * b(j + 1) - b(j)
    if family == "pivothalf":
        return b(j) * (b(j + 1) // (2 * b(j)))
    if family == "pivotsucc":
        return b(j + 1)
    raise ValueError(f"unknown family {family!r}")


class Gate:
    """Checks one query's outcome; ``check`` returns None or a failure reason."""

    digest = staticmethod(digest)

    def __init__(self, lib):
        self.lib = lib
        self.budget = lib.make_pivots("linear").bit_budget

    # -- oracles ---------------------------------------------------------------

    def in_arc_of(self, q, m):
        return self.lib.in_arc(self.lib.canonicalize(q), m)

    def first_exit(self, k, chain, m):
        """Least n >= 1 with k/b_n outside the level-m arc, or None for members."""
        if k == 0:
            return None
        bound = 4 * m * abs(k)
        n = 1
        while chain.term(n) < bound:
            if not self.in_arc_of(Fraction(k, chain.term(n)), m):
                return n
            n += 1
        return None

    def values(self, chain, family, horizon):
        """[l_1, ...] up to the horizon or the first value over budget."""
        out = []
        try:
            for j in range(1, horizon + 1):
                out.append(sequence_value(chain, family, j))
        except OverBudget:
            pass
        return out

    # -- entry point -------------------------------------------------------------

    def check(self, query, outcome):
        if outcome.status == "error":
            return f"raised {outcome.raw!r}"
        if outcome.status == "refused" and query.kind not in REFUSABLE:
            return f"refused: {outcome.raw}"
        rng = random.Random(repr(query))
        try:
            return getattr(self, "_" + query.kind)(rng, outcome, *query.args)
        except OverBudget as exc:
            return f"oracle over budget on an accepted answer: {exc}"
        except (TypeError, ValueError, AttributeError, IndexError, KeyError) as exc:
            return f"answer has the wrong shape: {exc!r}"

    # -- paper-verify --------------------------------------------------------------

    def _verify_paper(self, rng, outcome, *argv):
        code, text = outcome.raw
        if code != 0:
            return f"exit code {code}"
        records = [json.loads(line) for line in text.splitlines()]
        header, rows = records[0], records[1:]
        seed = int(argv[argv.index("--seed") + 1])
        config = header.get("config", {})
        if (header.get("command") != "verify-paper" or config.get("seed") != seed
                or config.get("quick") != ("--quick" in argv)):
            return f"unexpected header {header}"
        names = tuple(r.get("check") for r in rows)
        if names != PAPER_CHECKS:
            return f"checks {names} != {PAPER_CHECKS}"
        bad = [r["check"] for r in rows if r.get("ok") is not True]
        return f"checks not ok: {bad}" if bad else None

    # -- window-scan -----------------------------------------------------------

    def _iter_members(self, rng, outcome, chain_text, m, window):
        got = outcome.raw
        if not got or got[0] != 0 or len(got) % 2 == 0:
            return "members must start at 0 and come in +-k pairs"
        pos, neg = got[1::2], got[2::2]
        if any(-a != b for a, b in zip(pos, neg)) or any(a >= b for a, b in zip(pos, pos[1:])):
            return "members not ordered by |k|, positive first"
        if pos and not (1 <= pos[0] and pos[-1] <= window):
            return "member outside the window"
        chain = Chain(chain_text, self.budget)
        members = set(pos)
        for k in rng.sample(pos, min(SAMPLE, len(pos))):
            if self.first_exit(k, chain, m) is not None:
                return f"{k} listed but not a member"
        for k in rng.sample(range(1, window + 1), min(4 * SAMPLE, window)):
            if k not in members and self.first_exit(k, chain, m) is None:
                return f"member {k} missing"
        return None

    def _discreteness_witness(self, rng, outcome, xs, ratio_bound, window):
        w = outcome.raw
        l = w.multiplier
        if not (4 * l * xs[0] > 1 >= 4 * (l - 1) * xs[0]):
            return f"multiplier {l} not minimal with 4*l*x_1 > 1"
        if (w.ratio_bound, w.level, w.window_bound) != (ratio_bound, l * ratio_bound, window):
            return f"wrong level or window in {w}"
        if w.verified != (w.survivors == (0,)):
            return "verified flag disagrees with survivors"
        survivors = set(w.survivors)
        if 0 not in survivors or any(abs(k) > window for k in survivors):
            return "survivors must hold 0 and lie in the window"

        def excluded(k):
            return not all(self.in_arc_of(k * x, w.level) for x in xs)

        for k in w.survivors:
            if excluded(k):
                return f"survivor {k} is excluded by the prefix"
        for k in rng.sample(range(-window, window + 1), min(SAMPLE, 2 * window + 1)):
            if k not in survivors and not excluded(k):
                return f"{k} survives but is not listed"
        return None

    def _continuity_window_check(self, rng, outcome, chain_text, m, chi, window):
        ok, failing_k = outcome.raw
        chain = Chain(chain_text, self.budget)
        value = Fraction(chi[1], chi[2] if chi[0] == "fraction" else chain.term(chi[2]))
        if failing_k is not None:
            # chi = +-1/b_n maps each member k to +-k/b_n, inside the level-m
            # arc by membership, so such a character can never fail
            if ok or abs(failing_k) > window or chi[0] == "term":
                return f"inconsistent failure {outcome.raw}"
            if self.first_exit(failing_k, chain, m) is not None:
                return f"failing_k {failing_k} is not a member"
            if self.in_arc_of(failing_k * value, 1):
                return f"chi({failing_k}) lies in the quarter arc"
            return None
        if not ok:
            return "not ok without a failing k"
        for k in rng.sample(range(1, window + 1), min(SAMPLE, window)):
            if self.first_exit(k, chain, m) is None and not self.in_arc_of(k * value, 1):
                return f"member {k} maps outside the quarter arc"
        return None

    # -- sequence-scan ---------------------------------------------------------

    def first_refused(self, chain, family, horizon, m=None):
        """Least j whose value, or for uniform specs the chain prefix up to
        the first b_n >= 4m|l_j|, needs more than the bit budget; None when
        every j <= horizon fits. A scan that stops at an earlier failing
        index may get further, so this is the earliest a refusal may come."""
        for j in range(1, horizon + 1):
            try:
                l = sequence_value(chain, family, j)
                n = 0
                while m is not None and chain.term(n) < 4 * m * abs(l):
                    n += 1
            except OverBudget:
                return j
        return None

    def _refusal_ok(self, outcome, chain_text, family, horizon, m=None):
        chain = Chain(chain_text, self.budget)
        if self.first_refused(chain, family, horizon, m) is None:
            return f"refused without cause: {outcome.raw}"
        return None

    def _check_witnesses(self, rng, witnesses, chain, values, m, linear, clean_upto):
        """Every witness certifies, and a sample of the unlisted indices up to
        ``clean_upto`` is clean."""
        js = [w.j for w in witnesses]
        if any(a >= b for a, b in zip(js, js[1:])) or any(not 1 <= j <= len(values) for j in js):
            return "witness indices not increasing within the scanned prefix"
        for w in witnesses:
            l = values[w.j - 1]
            if linear:
                if w.n != m or w.value is not None or l % chain.term(m) == 0:
                    return f"linear witness {w} does not certify"
                continue
            exact = self.lib.canonicalize(Fraction(l, chain.term(w.n)))
            if w.value != exact or self.lib.in_arc(exact, m):
                return f"uniform witness {w} does not certify"
            if self.first_exit(l, chain, m) != w.n:
                return f"witness {w} is not at the least chain index"
        listed = set(js)
        clean = [j for j in range(1, clean_upto + 1) if j not in listed]
        if not linear:  # the slow oracle only on a sample; divisibility is cheap
            clean = rng.sample(clean, min(SAMPLE, len(clean)))
        for j in clean:
            l = values[j - 1]
            try:
                fails = l % chain.term(m) != 0 if linear else self.first_exit(l, chain, m) is not None
            except OverBudget:  # undecidable within the budget: no claim to check
                continue
            if fails:
                return f"l_{j} fails but has no witness"
        return None

    def _verdict(self, rng, outcome, chain_text, family, level, horizon, linear):
        if outcome.status == "refused":
            return "prefix_test must report a refusal as inconclusive"
        v = outcome.raw
        chain = Chain(chain_text, self.budget)
        values = self.values(chain, family, horizon)
        scanned = horizon
        if v.outcome == "inconclusive":
            refused_at = self.first_refused(chain, family, horizon, None if linear else level)
            if refused_at is None or not v.note:
                return "inconclusive without a refusal"
            scanned = refused_at - 1
        elif len(values) < horizon:
            return "a value over budget did not make the verdict inconclusive"
        reason = self._check_witnesses(rng, v.witnesses, chain, values, level, linear, scanned)
        if reason or v.outcome == "inconclusive":
            return reason
        last = v.witnesses[-1].j if v.witnesses else 0
        expected = ("falsified", None) if last >= (horizon + 1) // 2 else ("stabilized", last + 1)
        if (v.outcome, v.stabilized_at) != expected:
            return f"verdict {(v.outcome, v.stabilized_at)} != {expected}"
        return None

    def _prefix_uniform(self, rng, outcome, chain, family, m, horizon):
        return self._verdict(rng, outcome, chain, family, m, horizon, linear=False)

    def _prefix_linear(self, rng, outcome, chain, family, n, horizon):
        return self._verdict(rng, outcome, chain, family, n, horizon, linear=True)

    def _falsify(self, rng, outcome, chain_text, family, m, horizon):
        if outcome.status == "refused":
            return self._refusal_ok(outcome, chain_text, family, horizon, m)
        chain = Chain(chain_text, self.budget)
        values = self.values(chain, family, horizon)
        if len(values) < horizon:
            return "answered although a value is over budget"
        return self._check_witnesses(rng, outcome.raw, chain, values, m, False, horizon)

    def _check_stats(self, s, chain, family, horizon):
        values = self.values(chain, family, horizon)
        if len(values) < horizon:
            return "answered although a value is over budget"
        for n, jn in s.settle.items():
            b = chain.term(n)
            if any(l % b for l in values[jn - 1:]) or (jn > 1 and values[jn - 2] % b == 0):
                return f"settle index j_{n} = {jn} is wrong"
        if sorted(s.settle) != list(range(1, len(s.settle) + 1)):
            return "settle levels are not consecutive from 1"
        for n in s.missing:
            if values[-1] % chain.term(n) == 0:
                return f"level {n} reported missing but settles"
        if s.settle:
            if s.blocks.get(0) != (1, s.settle[1] - 1):
                return "block 0 is wrong"
            for n, (lo, hi) in s.blocks.items():
                if n and (lo, hi) != _block(s.settle[n], s.settle[n + 1]):
                    return f"block {n} is wrong"
                if lo <= hi and n in s.peaks:
                    peak = max(abs(l) for l in values[lo - 1:hi])
                    if s.peaks[n] != Fraction(peak, chain.term(n + 1)):
                        return f"peak S_{n} is wrong"
        return None

    def _blocks(self, rng, outcome, chain_text, family, level, horizon):
        if outcome.status == "refused":
            return self._refusal_ok(outcome, chain_text, family, horizon)
        return self._check_stats(outcome.raw, Chain(chain_text, self.budget), family, horizon)

    def _decay(self, rng, outcome, chain_text, family, thresholds, horizon):
        if outcome.status == "refused":
            return self._refusal_ok(outcome, chain_text, family, horizon)
        report = outcome.raw
        chain = Chain(chain_text, self.budget)
        reason = self._check_stats(report.stats, chain, family, horizon)
        if reason:
            return reason
        values = self.values(chain, family, horizon)
        peaks = report.stats.peaks
        computed = sorted(peaks)
        if [e.m for e in report.entries] != list(thresholds):
            return "entries do not follow the thresholds"
        for e in report.entries:
            bad = [n for n in computed if peaks[n] >= Fraction(1, 4 * e.m)]
            applicable = bool(computed) and (not bad or bad[-1] != computed[-1])
            if e.applicable != applicable:
                return f"applicability for m={e.m} is wrong"
            if not applicable:
                if (e.settled_level, e.crosscheck_ok) != (None, None):
                    return f"peak-decay entry {e} is wrong"
                continue
            n0 = min(n for n in computed if not bad or n > bad[-1])
            if e.settled_level != n0:
                return f"peak-decay entry {e} has the wrong level"
            # On a finite prefix a clean last peak can make the report apply
            # while the tail still fails: the cross-check must say so.
            # Where the oracle needs a term over budget it cannot decide.
            first_j = report.stats.blocks[n0][0]
            try:
                cross = all(self.first_exit(values[j - 1], chain, e.m) is None
                            for j in range(first_j, horizon + 1))
            except OverBudget:
                continue
            if e.crosscheck_ok != cross:
                return f"peak-decay cross-check {e.crosscheck_ok} != {cross}"
        return None


def _block(jn, jn1):
    return (jn, jn) if jn == jn1 else (jn, jn1 - 1)
