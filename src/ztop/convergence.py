"""Prefix-based convergence testers for the linear and uniform topologies,
block statistics of integer sequences relative to a pivot chain, and the
built-in example sequence families.

Convergence to 0 is only semi-decidable from a finite prefix, so every test
returns an explicit Verdict over a horizon:

* ``stabilized`` -- the trailing indices [j*, horizon] are all members and
  the clean tail covers at least half the window; j* is minimal. Evidence,
  not proof.
* ``falsified`` -- certified failures persist into the upper half of the
  window (in particular whenever the final index fails). Each witness is a
  hard certificate: a concrete index n with l_j / b_n outside the target
  arc (uniform) or b_n not dividing l_j (linear).
* ``inconclusive`` -- the scan hit the chain's bit budget before the
  horizon.

``prefix_test``, ``falsify_uniform`` and the cross-check of
``peak_decay_report`` share one witness scan. It evaluates l_j in order of
j, ``SCAN_CHUNK`` indices at a time, so it holds at most one chunk of
values beyond the chain memo: a chain-derived family builds the chain once
per chunk and reads the chunk's values off the memo, the other families
evaluate term by term. A budget refusal is raised after the witnesses of
every term before it, so those witnesses are kept. Uniform witnesses come
from the kernel ``first_arc_exit``, which reduces l_j down the chain by a
residue ladder, each step a division between neighbouring terms, and stops
at a zero residue. ``block_statistics`` and the cross-checks of
``peak_decay_report`` read one values list, so a report evaluates each l_j
once.

Chain terms reach 10^5-10^6 bits, and CPython divides such integers by
schoolbook long division, at a cost of the quotient's size times the
divisor's, with no fast path for powers of two. So no sequence query
divides where the quotient is large: ``pivothalf`` is a shift and a
subtraction; the linear witness test tests b_n | l_j with ``divides``, a
mask where b_n is a power of two; the suffix gcds are kept as an odd part
and a power of two, so ``math.gcd`` sees odd parts only. The exact ratios
p / q (peaks and witness points) shift out the power of two they share,
the trailing zeros of p | q, in one shift before ``Fraction`` sees them,
and a block's peak max |l_j| is max(max(block), -min(block)), so no term
is copied to negate it.

Block statistics: settle index j_n is the least index from which b_n
divides every term; block M_n spans [j_n, j_{n+1}) (just {j_n} when the two
settle indices coincide); the peak S_n is max |l_j| / b_{n+1} over the
block, kept as an exact rational. Settle indices come from the suffix gcds
G_j = gcd(l_j, ..., l_horizon): j_n is the least j with b_n | G_j, and since
b_n | b_{n+1} the j_n never decrease, so one pointer walks G once for all
levels. With G_j = o 2^t and b_n = c 2^e (o and c odd), b_n | G_j is e <= t
and c | o; on a two-power chain (c = 1) that compares exponents alone.

S_n -> 0 is a sufficient condition for convergence in the uniform
topology, and the built-in families reproduce the standard counterexamples
showing it is not necessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from ztop._kernels import divides, first_arc_exit, trailing_zeros, wrap_half
from ztop.neighborhoods import Linear, NeighborhoodSpec, Uniform
from ztop.pivots import BitBudgetExceeded, PivotSequence, resolve_bit_budget
from ztop.torus import TorusPoint, check_int, check_level, check_positive_int

FAMILIES = (
    "pow2",
    "geomdiff",
    "wgeomdiff",
    "blockexample",
    "pivothalf",
    "pivotsucc",
    "zero",
)

_NEEDS_PIVOTS = {"geomdiff", "wgeomdiff", "pivothalf", "pivotsucc"}


@dataclass(frozen=True, slots=True)
class IntegerSequence:
    """A named integer sequence l_1, l_2, ... with exact evaluation.

    ``pivots`` feeds the chain-derived families (geomdiff, wgeomdiff,
    pivothalf, pivotsucc), which are refused without it. ``fn`` backs the
    programmatic ``custom`` family, which has no CLI text form; its terms
    must be ints. ``bit_budget`` caps the terms of the two-power families
    (pow2, blockexample): the chain's budget, else ZTOP_BIT_BUDGET, else the
    default, resolved once when built, because those terms are evaluated
    thousands of times per ``verify-paper`` run.
    """

    family: str
    pivots: Optional[PivotSequence] = None
    fn: Optional[Callable[[int], int]] = None
    bit_budget: int = field(init=False)

    def __post_init__(self):
        if self.pivots is not None and not isinstance(self.pivots, PivotSequence):
            raise ValueError(f"sequence pivots must be a PivotSequence, got {self.pivots!r}")
        if self.family == "custom":
            if not callable(self.fn):
                raise ValueError(f"custom sequences need a callable fn, got {self.fn!r}")
        elif self.family not in FAMILIES:
            raise ValueError(f"unknown sequence family {self.family!r}")
        elif self.family in _NEEDS_PIVOTS and self.pivots is None:
            raise ValueError(f"family {self.family!r} is defined over a pivot chain")
        budget = resolve_bit_budget() if self.pivots is None else self.pivots.bit_budget
        object.__setattr__(self, "bit_budget", budget)


def make_sequence(
    family: str,
    pivots: PivotSequence | None = None,
    fn: Callable[[int], int] | None = None,
) -> IntegerSequence:
    return IntegerSequence(family, pivots, fn)


def eval_sequence(seq: IntegerSequence, j: int) -> int:
    """Exact term l_j, j >= 1. Chain-derived families inherit the chain's
    bit budget; the pure two-power families guard the shift width directly."""
    check_positive_int(j, "sequence index")
    values, refusal = _values(seq, j, j + 1)
    if refusal is not None:
        raise refusal
    return values[0]


def _values(seq: IntegerSequence, start: int, stop: int):
    """([l_start, ..., l_{stop-1}], refusal) for 1 <= start <= stop: the
    values up to the first term the bit budget refuses, and that
    BitBudgetExceeded, or None when every term was evaluated.

    A chain family builds b_stop once, the last term l_{stop-1} needs, and
    reads every value off the live memo; the other families evaluate term
    by term."""
    fam = seq.family
    if fam in _NEEDS_PIVOTS:
        refusal = None
        try:
            seq.pivots.term(stop)
        except BitBudgetExceeded as exc:
            refusal = exc
        b = seq.pivots.terms_until(1)
        stop = min(stop, len(b) - 1)  # l_j needs b_{j+1}
        if fam == "geomdiff":
            values = [b[j + 1] - b[j] for j in range(start, stop)]
        elif fam == "wgeomdiff":
            values = [j * b[j + 1] - b[j] for j in range(start, stop)]
        elif fam == "pivothalf":
            # b_j * floor(r / 2) with r = b_{j+1} / b_j: b_{j+1} / 2 when r
            # is even, (b_{j+1} - b_j) / 2 when r is odd, that is when b_j
            # and b_{j+1} hold the same power of two
            values = [
                (hi - lo) >> 1 if lo & -lo == hi & -hi else hi >> 1
                for lo, hi in zip(b[start:stop], b[start + 1 : stop + 1])
            ]
        else:  # pivotsucc
            values = b[start + 1 : stop + 1]
        return values, refusal
    if fam == "zero":
        return [0] * (stop - start), None
    values = []
    try:
        if fam == "custom":
            for j in range(start, stop):
                values.append(check_int(seq.fn(j), "custom term"))
        elif fam == "pow2":
            for j in range(start, stop):
                _check_shift(seq, j)
                values.append(1 << j)
        else:  # blockexample: 2^(j+2) at the indices n^2 - 2, n >= 2, else 2^j
            for j in range(start, stop):
                r = math.isqrt(j + 2)
                width = j + 2 if r * r == j + 2 and r >= 2 else j
                _check_shift(seq, width)
                values.append(1 << width)
    except BitBudgetExceeded as exc:
        return values, exc
    return values, None


def _check_shift(seq, width):
    if width + 1 > seq.bit_budget:
        raise BitBudgetExceeded(f"term needs {width + 1} bits (budget {seq.bit_budget})")


# -- membership scans with certificates -------------------------------------


class Witness(NamedTuple):
    """Certified failure: l_j lands outside the neighbourhood, witnessed at
    chain index n; ``value`` is the exact circle point l_j / b_n for uniform
    specs and None for linear ones (where the certificate is b_n not
    dividing l_j)."""

    j: int
    n: int
    value: Optional[TorusPoint]


SCAN_CHUNK = 64  # l_j evaluated per step of a witness scan


def _chunks(seq: IntegerSequence, horizon: int):
    """(j0, [l_j0, ..., l_j1]) for consecutive runs of at most SCAN_CHUNK
    indices covering [1, horizon], in order; a run the bit budget cuts
    short is yielded up to the refused term, whose BitBudgetExceeded is
    raised next. No empty run is yielded."""
    for start in range(1, horizon + 1, SCAN_CHUNK):
        values, refusal = _values(seq, start, min(start + SCAN_CHUNK, horizon + 1))
        if values:
            yield start, values
        if refusal is not None:
            raise refusal


def _witnesses(spec: NeighborhoodSpec, chunks):
    """The Witness of every term that falls outside the neighbourhood, in
    order of j. ``chunks`` yields pairs (j0, [l_j0, l_j0+1, ...]) in order
    of j; each chunk is scanned before the next is evaluated, so a
    BitBudgetExceeded comes after every earlier witness.

    A linear scan reads b_n once, at the first chunk, and tests b_n | l_j.
    A uniform scan reads the live chain memo and grows it only for an l_j
    with 2|l_j| past its last term: the terms up to the first one >= 2|l_j|
    decide l_j at every level. A zero l_j, 19% of them on sequence-scan
    seeds 21-30, is skipped: the kernel would answer None at a call's cost."""
    pivots, family = spec.pivots, spec.family
    if isinstance(family, Linear):
        n = family.n
        b = None
        for start, values in chunks:
            if b is None:
                b = pivots.term(n)
            for j, l in enumerate(values, start):
                if not divides(b, l):
                    yield Witness(j, n, None)
        return
    m = family.m
    terms = pivots.terms_until(1)
    for start, values in chunks:
        for j, l in enumerate(values, start):
            if l:
                bound = 2 * abs(l)
                if terms[-1] < bound:
                    pivots.terms_until(bound)
                n = first_arc_exit(l, terms, m)
                if n is not None:
                    b = terms[n]
                    yield Witness(j, n, TorusPoint(_ratio(wrap_half(l, b), b)))


def _ratio(p, q):
    """Fraction(p, q) for q >= 1. The power of two that p and q share, the
    trailing zeros of p | q, is shifted out first, so that Fraction's own
    gcd never divides one large power of two by another."""
    s = trailing_zeros(p | q)
    return Fraction(p >> s, q >> s)


class Verdict(NamedTuple):
    outcome: str  # "stabilized" | "falsified" | "inconclusive"
    stabilized_at: Optional[int]
    witnesses: tuple[Witness, ...]
    horizon: int
    spec: NeighborhoodSpec
    note: str = ""


def prefix_test(seq: IntegerSequence, spec: NeighborhoodSpec, horizon: int) -> Verdict:
    """Scan l_1..l_horizon for membership in the neighbourhood.

    Stabilization policy: with no failures the verdict stabilizes at 1;
    otherwise let j_last be the last failing index. A clean tail covering
    at least half the window (j_last < ceil(horizon/2)) stabilizes at
    j_last + 1, minimal by construction; failures reaching the upper half
    falsify, with every failing (j, n) pair listed. Hitting the bit budget
    yields an inconclusive verdict. No failure is its own case: j_last is
    read off the last one.
    """
    check_positive_int(horizon, "horizon")
    fails: list[Witness] = []
    try:
        for witness in _witnesses(spec, _chunks(seq, horizon)):
            fails.append(witness)
    except BitBudgetExceeded as exc:
        return Verdict("inconclusive", None, tuple(fails), horizon, spec, note=str(exc))
    if not fails:
        return Verdict("stabilized", 1, (), horizon, spec)
    last = fails[-1].j
    if last >= (horizon + 1) // 2:
        return Verdict("falsified", None, tuple(fails), horizon, spec)
    return Verdict("stabilized", last + 1, tuple(fails), horizon, spec)


def falsify_uniform(
    seq: IntegerSequence, pivots: PivotSequence, m: int, horizon: int
) -> list[Witness]:
    """Every index j <= horizon whose term falls outside the level-m uniform
    neighbourhood, each with its least certifying chain index and the exact
    circle value there. Sorted by j; empty means no witness below horizon.
    Raises BitBudgetExceeded where the uniform prefix test is inconclusive."""
    spec = NeighborhoodSpec(pivots, Uniform(m))
    check_positive_int(horizon, "horizon")
    return list(_witnesses(spec, _chunks(seq, horizon)))


# -- block statistics --------------------------------------------------------


class BlockStatistics(NamedTuple):
    """Settle indices, blocks, and exact peak ratios of a sequence prefix.

    ``settle``: n -> j_n for every level with a settle index inside the
    horizon. ``blocks``: n -> (first, last) index span of M_n, present for
    n = 0 (the pre-settle stub, possibly empty) up to the last level whose
    successor settle index exists. ``peaks``: n -> max |l_j| / b_{n+1} over
    the block, omitted for empty blocks. ``missing``: levels whose settle
    index does not exist within the horizon (divisibility still failing at
    the final index).
    """

    settle: dict[int, int]
    blocks: dict[int, tuple[int, int]]
    peaks: dict[int, Fraction]
    missing: tuple[int, ...]
    horizon: int
    note: str = ""


def block_statistics(
    seq: IntegerSequence,
    pivots: PivotSequence,
    horizon: int,
    levels: int | None = None,
) -> BlockStatistics:
    """Compute j_n / M_n / S_n over the prefix l_1..l_horizon.

    ``levels`` caps the number of divisibility levels n; by default levels
    grow until a settle index is missing, the bit budget is hit, or n
    reaches the horizon. Blocks may repeat an index when consecutive settle
    indices coincide (the degenerate rule M_n = {j_n}); for strictly
    increasing settle indices they partition [j_1, horizon].
    """
    return _block_statistics(seq, pivots, horizon, levels)[1]


def _block_statistics(seq, pivots, horizon, levels):
    """(values, stats): ``block_statistics`` and the values [l_1, ...,
    l_horizon] it read, for a caller that scans them again. A zero l_j
    skips the suffix gcd step, since ``trailing_zeros(0)`` is -1. The level
    loop stops at the first missing settle index, so the settle levels are
    1 .. len(settle), and the peaks go in by increasing level."""
    check_positive_int(horizon, "horizon")
    cap = horizon if levels is None else check_positive_int(levels, "levels")
    values, refusal = _values(seq, 1, horizon + 1)
    if refusal is not None:
        raise refusal
    # suffix[s] = (t, o) with gcd(l_{s+1}, ..., l_horizon) = o * 2^t, o odd,
    # and o = 0 where that gcd is 0, as at s = horizon. b_n = c * 2^e, c odd,
    # divides every term from index s + 1 on iff o = 0, or e <= t and c | o
    suffix = [(0, 0)] * (horizon + 1)
    t = o = 0
    for i in range(horizon - 1, -1, -1):
        l = values[i]
        if l:
            z = trailing_zeros(l)
            t = min(t, z) if o else z
            o = math.gcd(o, l >> z)
        suffix[i] = (t, o)
    s = 0  # j_n - 1; it never decreases, since b_n divides b_{n+1}
    settle: dict[int, int] = {}
    missing: list[int] = []
    note = ""
    terms = pivots.terms_until(1)
    for n in range(1, cap + 2):
        if n == len(terms):
            try:
                pivots.term(n)
            except BitBudgetExceeded as exc:
                note = str(exc)
                break
        b = terms[n]
        e = trailing_zeros(b)
        c = b >> e
        t, o = suffix[s]
        while o and (t < e or o % c):
            s += 1
            t, o = suffix[s]
        if s == horizon:
            missing.append(n)
            break
        settle[n] = s + 1
    blocks: dict[int, tuple[int, int]] = {}
    peaks: dict[int, Fraction] = {}
    if settle:
        blocks[0] = (1, settle[1] - 1)  # empty when j_1 == 1
        for n in range(1, len(settle)):
            jn, jn1 = settle[n], settle[n + 1]
            blocks[n] = (jn, jn) if jn == jn1 else (jn, jn1 - 1)
        for n, (lo, hi) in blocks.items():
            if lo > hi:
                continue
            # n < len(settle), and the settle loop has already built b_{len(settle)}
            block = values[lo - 1 : hi]
            peaks[n] = _ratio(max(max(block), -min(block)), terms[n + 1])
    return values, BlockStatistics(settle, blocks, peaks, tuple(missing), horizon, note)


class PeakDecayEntry(NamedTuple):
    m: int
    applicable: bool
    settled_level: Optional[int]  # least n0 with S_n < 1/(4m) for all computed n >= n0
    crosscheck_ok: Optional[bool]  # None where not applicable or the scan was refused


class PeakDecayReport(NamedTuple):
    stats: BlockStatistics
    entries: tuple[PeakDecayEntry, ...]


def peak_decay_report(
    seq: IntegerSequence,
    pivots: PivotSequence,
    horizon: int,
    thresholds: tuple[int, ...] | list[int],
    levels: int | None = None,
) -> PeakDecayReport:
    """For each requested arc level m, locate the least block level n0 from
    which every computed peak stays below 1/(4m), or report the sufficient
    condition as not applicable.

    When n0 exists the report cross-checks the implied membership: it scans
    j from block n0's first index to the horizon for a level-m witness, and
    is false at the first one, None at a budget refusal before it, and true
    otherwise. The block statistics and these scans read l_1..l_horizon from
    one values list, so each term is evaluated once per report. n0 is the
    first level of the last run of computed peaks below 1/(4m), found in one
    pass; with no computed peak there is no run, and no n0.
    """
    values, stats = _block_statistics(seq, pivots, horizon, levels)
    entries = []
    for m in thresholds:
        check_level(m)
        n0 = None
        for n, peak in stats.peaks.items():
            if 4 * m * peak.numerator >= peak.denominator:
                n0 = None
            elif n0 is None:
                n0 = n
        if n0 is None:
            entries.append(PeakDecayEntry(m, False, None, None))
            continue
        j0 = stats.blocks[n0][0]
        scan = _witnesses(NeighborhoodSpec(pivots, Uniform(m)), [(j0, values[j0 - 1 :])])
        try:
            cross = next(scan, None) is None
        except BitBudgetExceeded:
            cross = None
        entries.append(PeakDecayEntry(m, True, n0, cross))
    return PeakDecayReport(stats, tuple(entries))
