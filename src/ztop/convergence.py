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
``peak_decay_report`` share one witness scan, which evaluates l_j in order
of j, so a budget refusal keeps the witnesses found before it. Uniform
witnesses come from the kernel ``first_arc_exit``, which reduces l_j down
the chain by a residue ladder, each step a division between neighbouring
terms, and stops at a zero residue. ``peak_decay_report`` evaluates each
l_j once.

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

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from ztop._kernels import first_arc_exit, trailing_zeros, wrap_half
from ztop.neighborhoods import Linear, NeighborhoodSpec, Uniform, member_linear
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
    if j < 1:
        raise ValueError("sequence index must be >= 1")
    fam = seq.family
    if fam == "zero":
        return 0
    if fam == "custom":
        return check_int(seq.fn(j), "custom term")
    if fam == "pow2":
        _check_shift(seq, j)
        return 1 << j
    if fam == "blockexample":
        r = math.isqrt(j + 2)
        if r * r == j + 2 and r >= 2:
            _check_shift(seq, j + 2)
            return 1 << (j + 2)
        _check_shift(seq, j)
        return 1 << j
    b = seq.pivots.term
    if fam == "geomdiff":
        return b(j + 1) - b(j)
    if fam == "wgeomdiff":
        return j * b(j + 1) - b(j)
    if fam == "pivothalf":
        # b_j * floor(r / 2) with r = b_{j+1} / b_j: b_{j+1} / 2 when r is
        # even, (b_{j+1} - b_j) / 2 when r is odd, that is when b_j and
        # b_{j+1} hold the same power of two
        lo, hi = b(j), b(j + 1)
        if lo & -lo == hi & -hi:
            return (hi - lo) >> 1
        return hi >> 1
    return b(j + 1)  # pivotsucc


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


def _witnesses(seq: IntegerSequence, spec: NeighborhoodSpec, horizon: int, start: int = 1):
    """The Witness of every start <= j <= horizon whose term falls outside
    the neighbourhood, in order of j. Each l_j is evaluated when the scan
    reaches it, so a BitBudgetExceeded comes after every earlier witness."""
    pivots, family = spec.pivots, spec.family
    for j in range(start, horizon + 1):
        l = eval_sequence(seq, j)
        if isinstance(family, Linear):
            if not member_linear(l, pivots, family.n):
                yield Witness(j, family.n, None)
        elif l:
            terms = pivots.terms_until(4 * family.m * abs(l))
            n = first_arc_exit(l, terms, family.m)
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
    yields an inconclusive verdict.
    """
    check_positive_int(horizon, "horizon")
    fails: list[Witness] = []
    try:
        for witness in _witnesses(seq, spec, horizon):
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
    return list(_witnesses(seq, spec, horizon))


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
    check_positive_int(horizon, "horizon")
    cap = horizon if levels is None else check_positive_int(levels, "levels")
    values = [eval_sequence(seq, j) for j in range(1, horizon + 1)]
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
    n_top = 0
    for n in range(1, cap + 2):
        try:
            b = pivots.term(n)
        except BitBudgetExceeded as exc:
            note = str(exc)
            break
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
        n_top = n
    blocks: dict[int, tuple[int, int]] = {}
    peaks: dict[int, Fraction] = {}
    if settle:
        blocks[0] = (1, settle[1] - 1)  # empty when j_1 == 1
        for n in range(1, n_top):
            jn, jn1 = settle[n], settle[n + 1]
            blocks[n] = (jn, jn) if jn == jn1 else (jn, jn1 - 1)
        for n, (lo, hi) in blocks.items():
            if lo > hi:
                continue
            # n < n_top, and the settle loop has already built b_{n_top}
            block = values[lo - 1 : hi]
            peaks[n] = _ratio(max(max(block), -min(block)), pivots.term(n + 1))
    return BlockStatistics(settle, blocks, peaks, tuple(missing), horizon, note)


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
    one memo, so each term is evaluated once per report.
    """
    seq = IntegerSequence("custom", pivots, functools.cache(functools.partial(eval_sequence, seq)))
    stats = block_statistics(seq, pivots, horizon, levels=levels)
    entries = []
    computed = sorted(stats.peaks)
    for m in thresholds:
        check_level(m)
        if not computed:
            entries.append(PeakDecayEntry(m, False, None, None))
            continue
        last_bad = None
        for n in computed:
            if 4 * m * stats.peaks[n].numerator >= stats.peaks[n].denominator:
                last_bad = n
        if last_bad is None:
            n0 = computed[0]
        elif last_bad == computed[-1]:
            entries.append(PeakDecayEntry(m, False, None, None))
            continue
        else:
            n0 = min(n for n in computed if n > last_bad)
        scan = _witnesses(seq, NeighborhoodSpec(pivots, Uniform(m)), horizon, stats.blocks[n0][0])
        try:
            cross = next(scan, None) is None
        except BitBudgetExceeded:
            cross = None
        entries.append(PeakDecayEntry(m, True, n0, cross))
    return PeakDecayReport(stats, tuple(entries))
