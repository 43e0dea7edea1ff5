"""Decidable membership oracles for the basic neighbourhoods of 0 in the two
topologies a pivot chain induces on the integers:

* uniform neighbourhoods -- k belongs at level m iff k/b_n stays in the
  closed arc [-1/(4m), 1/(4m)] for every n >= 1. The infinite quantifier is
  decided by the terms up to b_T, the first term >= 2|k|, at every level
  at once (the bound is stated in ``ztop._kernels``), so no uniform route
  grows the chain further for a larger m.
* linear neighbourhoods -- k belongs at index n iff b_n divides k.

Four routes into the uniform question are provided: the direct scan, the
equivalent partial-sum criterion on the balanced digits, and one-sided
digit-ratio tests (sufficient at 1/(8m), necessary at 3/(8m)). Each reads
an exact pair that does not depend on the level m: the direct scan the
largest |k/b_n mod 1| from the ``arc_ratio`` kernel, the last three the
largest |k_n| b_n / b_{n+1} and the largest |sum_{i<=n} k_i b_i| / b_{n+1}
from ``digit_ratios``. So at every level each route is one comparison.
``route_violations`` runs all four routes over a range of k and a set of
levels on the kernels directly: it fetches the chain prefix once,
decomposes each k and reads its three pairs once, tests the levels only
for a k whose routes stop holding at different levels, and returns each
failure with the answers it compared.

Window queries do not ask the question one k at a time. Every condition
|k/b_n mod 1| <= 1/(4m) is periodic in k with period b_n, and so is each
condition |k x mod 1| <= 1/(4 level) of the discreteness certificate with
period the denominator of x. These conditions go to the ``arc_sieve``
kernel, which strikes out the failing residues of a window segment by slice
assignment. Since b_n divides b_{n+1}, the chain's conditions are periodic
mod the last term no longer than the segment: the kernel builds that one
period, one slice per term, and tiles it over the segment.

One generator, ``_segments``, sieves every window in segments of at most
SIEVE_SEGMENT integers, so memory stays bounded whatever the window, and a
consumer that stops early stops the sieve with it. ``_member_sieve``
describes a neighbourhood's window by a step and the masks of the indices
1..W // step: ``Uniform(m)`` has step 1 and the chain's conditions, grown
segment by segment to 2|k| and cut where the bit budget refuses a term;
``Linear(n)`` has step b_n and no condition. ``iter_members`` reads the
members off the masks with ``mask_positions``, which on a sparse mask jumps
from one member to the next, and ``duality.continuity_window_check``
compares the masks with masks that also carry the character's condition.
``discreteness_witness`` checks its rational prefix on (numerator,
denominator) pairs by integer cross-multiplication and sieves its own
conditions with the same generator.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence, Union

from ztop._kernels import (
    arc_ratio,
    arc_sieve,
    decompose_digits,
    digit_ratios,
    divides,
    mask_positions,
    member_direct_scan,
    member_partial_scan,
)
from ztop.decomposition import PivotCoefficients
from ztop.pivots import BitBudgetExceeded, PivotSequence
from ztop.torus import check_int, check_level, check_nonnegative_int, check_positive_int, exact_rational

# Most integers one arc_sieve call covers: a 64 KiB mask.
SIEVE_SEGMENT = 1 << 16


@dataclass(frozen=True)
class Uniform:
    """Uniform-convergence neighbourhood at arc level m >= 1."""

    m: int

    def __post_init__(self):
        check_level(self.m)


@dataclass(frozen=True)
class Linear:
    """Linear neighbourhood b_n * Z at chain index n >= 0."""

    n: int

    def __post_init__(self):
        check_nonnegative_int(self.n, "linear neighbourhood index")


Family = Union[Uniform, Linear]


@dataclass(frozen=True)
class NeighborhoodSpec:
    pivots: PivotSequence
    family: Family

    def __post_init__(self):
        if not isinstance(self.pivots, PivotSequence):
            raise ValueError(f"neighbourhood pivots must be a PivotSequence, got {self.pivots!r}")
        if not isinstance(self.family, (Uniform, Linear)):
            raise ValueError(f"neighbourhood family must be Uniform or Linear, got {self.family!r}")

    def describe(self) -> dict:
        if isinstance(self.family, Uniform):
            return {"pivots": self.pivots.text, "family": "uniform", "m": self.family.m}
        return {"pivots": self.pivots.text, "family": "linear", "n": self.family.n}


def member_direct(k: int, pivots: PivotSequence, m: int) -> bool:
    """Uniform membership by scanning k/b_n up to b_T, the first term
    >= 2|k|, which decides every level; k = 0, with no index to scan, is
    always a member."""
    check_int(k, "k")
    check_level(m)
    return member_direct_scan(k, pivots.terms_until(2 * (-k if k < 0 else k)), m)


def member_partial_sums(k: int, pivots: PivotSequence, m: int) -> bool:
    """Uniform membership via the balanced digits of k: the partial sums
    sum_{s<n} k_s b_s must stay within b_n/(4m) for every n. The digits end
    below b_T, the first term >= 2|k|, whatever the level. Agrees with
    member_direct on every input."""
    check_int(k, "k")
    check_level(m)
    return member_partial_scan(k, pivots.terms_until(2 * (-k if k < 0 else k)), m)


def coeff_bound_test(coeffs: PivotCoefficients, m: int, mode: str) -> bool:
    """One-sided digit tests for uniform membership.

    ``sufficient``: every |k_n| b_n / b_{n+1} <= 1/(8m) (then k is a member);
    ``necessary``: every |k_n| b_n / b_{n+1} <= 3/(8m) (members satisfy this).
    Neither is the other's converse; k = 128 over the square chain at m = 1
    is a member that fails the sufficient test.
    """
    check_level(m)
    if mode not in ("sufficient", "necessary"):
        raise ValueError(f"mode must be 'sufficient' or 'necessary', got {mode!r}")
    factor = 1 if mode == "sufficient" else 3
    digits = coeffs.coeffs
    num, den = digit_ratios(digits, coeffs.pivots.terms_until(1, extra=len(digits)))[0]
    return 8 * m * num <= factor * den


def route_violations(pivots: PivotSequence, limit: int, ms: Sequence[int]):
    """All four membership routes for every |k| <= limit at every level in
    ``ms``; returns (equivalence, implication), the rows in sweep order
    where the routes break a claim, each row with the answers compared.
    An equivalence row (k, m, direct, partial) is where ``member_direct``
    and ``member_partial_sums`` disagree; an implication row
    (k, m, sufficient, direct, necessary) is where "sufficient implies
    member implies necessary" fails. ``limit`` must be an int >= 1 and
    ``ms``, any iterable, must hold at least one level.

    The sweep form of the public routes: the chain prefix is fetched once,
    up to the first term >= 2 * limit whatever the levels, each k, 0
    included, is decomposed once, and the routes run on the kernels the
    public functions use, the direct one on the ``arc_ratio`` pair of k and
    the last three on its two ``digit_ratios`` pairs. None of the pairs
    depends on m: a route whose test is 4m * n <= d holds exactly
    at the levels m <= d // (4n). When the direct and partial-sum routes
    hold up to the same level, and the sufficient test's last level is at
    most that one and the necessary test's at least, k breaks no claim at
    any level and the level loop is skipped. A zero numerator stays out of
    those divisions: an all-zero triple passes every level in the loop.
    """
    check_positive_int(limit, "limit")
    ms = tuple(ms)
    if not ms:
        raise ValueError(f"ms must hold at least one arc level, got {ms!r}")
    for m in ms:
        check_level(m)
    terms = pivots.terms_until(2 * limit)  # b_T of every |k| <= limit
    equivalence, implication = [], []
    for k in range(-limit, limit + 1):
        an, ad = arc_ratio(k, terms)
        digits = decompose_digits(k, terms, bisect_left(terms, -k if k < 0 else k))
        (dn, dd), (pn, pd) = digit_ratios(digits, terms)
        if an and pn and dn:
            md = ad // (4 * an)
            if md == pd // (4 * pn) and dd // (8 * dn) <= md <= 3 * dd // (8 * dn):
                continue
        for m in ms:
            direct = 4 * m * an <= ad
            if direct != (4 * m * pn <= pd):
                equivalence.append((k, m, direct, not direct))  # the partial sums said otherwise
            # a member must pass the necessary test, a non-member fail the sufficient one
            if (8 * m * dn <= (3 * dd if direct else dd)) != direct:
                implication.append((k, m, 8 * m * dn <= dd, direct, 8 * m * dn <= 3 * dd))
    return equivalence, implication


def member_linear(k: int, pivots: PivotSequence, n: int) -> bool:
    """Whether k lies in the linear neighbourhood b_n * Z."""
    return divides(pivots.term(check_nonnegative_int(n, "linear neighbourhood index")), check_int(k, "k"))


def member(k: int, spec: NeighborhoodSpec) -> bool:
    if isinstance(spec.family, Uniform):
        return member_direct(k, spec.pivots, spec.family.m)
    return member_linear(k, spec.pivots, spec.family.n)


def iter_members(spec: NeighborhoodSpec, window: int) -> Iterator[int]:
    """Members of the neighbourhood with |k| <= window, by increasing |k|,
    positive before negative. Deterministic.

    The members are read with ``mask_positions`` off the masks of
    ``_member_sieve``; -k is a member exactly when k is. A b_n that cannot
    be built raises before 0 is yielded, as in ``member_linear``. When the
    bit budget refuses a term that a uniform scan needs, the members the
    existing terms decide are still yielded, and the error is raised at
    the first k that needs the missing term, as ``member_direct`` would:
    the first k with 2k past the last term built, whatever the level.
    """
    step, segments = _member_sieve(spec, window)
    yield 0
    for lo, mask, _ in segments:
        for k in mask_positions(mask, lo * step, step):
            yield k
            yield -k


def _member_sieve(spec: NeighborhoodSpec, window: int):
    """(step, segments): the members 0 < k <= window are the k = i * step
    whose byte i - lo is set in a mask (lo, mask, conds) of ``segments``, the
    sieve of 1..window // step. ``Uniform(m)`` has step 1 and one condition
    (1, b_n, m) per chain term; ``Linear(n)`` has step b_n, built here, and
    no condition, so every mask is all ones. A window that is not an int
    >= 0 raises ValueError.
    """
    check_nonnegative_int(window, "window")
    if isinstance(spec.family, Uniform):
        return 1, _segments(window, [], spec.pivots, spec.family.m)
    step = spec.pivots.term(spec.family.n)
    return step, _segments(window // step, [])


def _segments(count: int, conds: list, pivots: PivotSequence | None = None, m: int = 1):
    """The sieve of 1..count in segments of at most SIEVE_SEGMENT integers:
    yields (lo, mask, conds) with mask = arc_sieve(lo, hi, conds).

    Given ``pivots``, conds is instead one (1, b_n, m) per chain term up to
    and including the first term >= 2 * hi, b_T of the segment's last k,
    so each segment grows the chain only as far as its end, whatever m.
    When the bit budget refuses a pivot term, the segment is cut at the
    last k the existing terms decide, the last k with 2k <= the last term,
    and the next one raises the error.
    """
    lo = 1
    while lo <= count:
        hi = min(count, lo + SIEVE_SEGMENT - 1)
        if pivots is not None:
            try:
                terms = pivots.terms_until(2 * hi)
            except BitBudgetExceeded:
                terms = pivots.terms_until(1)  # the terms built before the failure
                hi = terms[-1] // 2  # the last k those terms decide
                if hi < lo:
                    raise
            conds = [(1, b, m) for b in terms[1 : bisect_left(terms, 2 * hi) + 1]]
        yield lo, arc_sieve(lo, hi, conds), conds
        lo = hi + 1


# -- constructive discreteness witness --------------------------------------


class DiscretenessWitness(NamedTuple):
    """Certificate that the uniform topology built on a concrete decreasing
    sequence with bounded successive ratios separates 0 at a finite level.

    ``level`` = multiplier * ratio_bound; ``verified`` reports whether the
    brute-force window retained only k = 0. ``survivors`` lists the window
    elements not excluded by the supplied prefix (a superset of the true
    neighbourhood restricted to the window, so survivors == (0,) is a sound
    separation certificate while extra survivors are merely inconclusive).
    """

    ratio_bound: int
    multiplier: int
    level: int
    window_bound: int
    verified: bool
    survivors: tuple[int, ...]


def discreteness_witness(
    xs: Sequence[Fraction],
    ratio_bound: int,
    brute_window: int,
) -> DiscretenessWitness:
    """Build and verify the separation certificate for a sequence prefix.

    ``xs`` must be strictly decreasing rationals (ints, Fractions or "p/q"
    text, not floats) in (0, 1/2] with
    x_i / x_{i+1} <= ratio_bound (violations raise ValueError; the caller
    asserts the tail keeps decreasing to 0); they are checked on the
    (numerator, denominator) pairs by cross-multiplication, with no
    rational arithmetic. The multiplier l is minimal with 4 * l * x_1 > 1,
    and the a-priori containment of the level-m neighbourhood in
    [-1/(4 x_1), 1/(4 x_1)] means brute_window of about 1/(4 x_1) suffices
    in principle.

    k survives when 4 * level * |k x mod 1| <= 1 for every x in the prefix.
    The window is sieved by ``_segments`` with one condition (numerator,
    denominator, level) per x, and the survivors are read off its masks
    with ``mask_positions``; -k survives exactly when k does, and 0 always
    does.
    """
    xs = [  # Fraction(x) would rebuild x
        x if isinstance(x, Fraction) else Fraction(exact_rational(x, f"x_{i + 1} ="))
        for i, x in enumerate(xs)
    ]
    if not xs:
        raise ValueError("need a nonempty sequence prefix")
    m = check_positive_int(ratio_bound, "ratio bound")
    check_positive_int(brute_window, "brute-force window")
    pairs = [(x.numerator, x.denominator) for x in xs]
    for i, (a, b) in enumerate(pairs):
        if not (0 < a and 2 * a <= b):
            raise ValueError(f"x_{i + 1} = {xs[i]} outside (0, 1/2]")
        if i + 1 < len(pairs):
            c, d = pairs[i + 1]
            if c * b >= a * d:
                raise ValueError(f"sequence not strictly decreasing at index {i + 1}")
            if 0 < c and a * d > m * c * b:  # c <= 0 fails the range test next
                raise ValueError(
                    f"ratio x_{i + 1}/x_{i + 2} = {xs[i] / xs[i + 1]} exceeds bound {m}"
                )
    a, b = pairs[0]
    l = b // (4 * a) + 1  # minimal with 4 * l * x_1 > 1
    level = l * m
    conds = [(a, b, level) for a, b in pairs]
    positive = []
    for lo, mask, _ in _segments(brute_window, conds):
        positive += mask_positions(mask, lo)
    survivors = [-k for k in reversed(positive)] + [0] + positive
    return DiscretenessWitness(
        ratio_bound=m,
        multiplier=l,
        level=level,
        window_bound=brute_window,
        verified=survivors == [0],
        survivors=tuple(survivors),
    )
