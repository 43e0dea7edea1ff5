"""Every uniform-membership route against the slow circle oracle.

The oracle decides whether k/b_n lies in the closed arc [-1/(4m), 1/(4m)]
with ``in_arc(canonicalize(Fraction(k, b_n)), m)``, index by index. It runs
two indices past the first term >= 4m|k|, from where on every k/b_n is
inside the arc. The kernels get only the least prefix [b_0, ..., b_T], b_T
the first term >= 2|k|, so the oracle also checks the cut-off they rely on:
b_T decides every level, and no later term fails first. Values up to
about 2^300 take ``first_arc_exit`` past 2^30, onto its residue ladder;
multiples of chain terms reach its zero-residue shortcuts, and the
``pivothalf`` and ``pivotsucc`` terms of the two-power chains, up to 2^18
bits, its rungs that mask instead of dividing. The arc boundaries and the
multiples of terms run over the pow2 chain too. The criteria 2-3 sweep
asks ``first_arc_exit`` at the partial-sum route's last level mp and at
mp + 1, levels far above the small ones drawn elsewhere; the walk is
checked there against the oracle on the boundary, ladder and multiple
values, and its "no exit" is checked to be monotone in the level, which
the sweep's skip relies on, on drawn levels up to 2^64.

The one-sided digit tests are checked against their Fraction definition,
max |k_n| b_n / b_{n+1} <= 1/(8m) (sufficient) or 3/(8m) (necessary), on
hand-built digit lists and at the exact bounds.

The three digit kernels (``decompose_digits``, ``coefficient_checks`` and
``digit_ratios``) step from one nonzero digit to the next; each is checked
against its per-level form, which rounds and tests at every chain level, on
nine chains: for every |l| <= 3000, at the ties +-b_n/2 and +-3b_n/2, at
+-b_n and +-(b_n +- 1), on random l up to 10^40, and on hand-built and
drawn digit lists whose zeros sit between and after digits that break a
bound. Both pairs of ``digit_ratios`` are checked against their Fraction
maxima, and the partial-sum pair at every level against the per-level
partial-sum scan. On chain prefixes too short for their digits, every
digit kernel and the partial-sum scan raise.

The window scans built on the arc sieve are checked here too: the members
``iter_members`` yields, for uniform neighbourhoods against the oracle and
for linear ones against the multiples of b_n; the survivors of
``discreteness_witness`` against the per-k loop it used to run; and the
first failing k of ``continuity_window_check``, for uniform neighbourhoods
against the oracle's members and for linear ones against chi at each
multiple of b_n, also for characters whose denominator divides b_n. Some
checks shrink the sieve's segment so that small windows cross many segment
borders. The arc sieve itself is checked on chain-shaped condition lists,
whose period it tiles, mixed with conditions it must leave to its residue
loop; ``mask_positions`` against ``compress`` on masks of every density,
with and without a step. Hand-built digit lists stop where the chain's bit
budget does.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztop import neighborhoods
from ztop._kernels import (
    arc_sieve,
    coefficient_checks,
    decompose_digits,
    digit_ratios,
    first_arc_exit,
    mask_positions,
    member_partial_scan,
    wrap_half,
)
from ztop.convergence import eval_sequence, falsify_uniform, make_sequence
from ztop.decomposition import coefficients_from_digits
from ztop.duality import character, char_eval, continuity_window_check
from ztop.neighborhoods import (
    SIEVE_SEGMENT,
    Linear,
    NeighborhoodSpec,
    Uniform,
    coeff_bound_test,
    discreteness_witness,
    iter_members,
    member_direct,
    member_linear,
    member_partial_sums,
)
from ztop.pivots import BitBudgetExceeded, make_pivots
from ztop.torus import canonicalize, in_arc

CHAINS = {
    text: make_pivots(text) for text in ("linear", "square", "factorial", "chain:2,3", "chain:3,4,2")
}
# and pow2, whose quotients b_{n+1}/b_n = b_n have as many bits as the divisor
ARC_CHAINS = {**CHAINS, "pow2": make_pivots("pow2")}
LEVELS = range(1, 9)


@lru_cache(maxsize=4096)
def reduced(k, b):
    """Fraction(k, b) for k >= 0. Its gcd is most of the oracle's time once
    k and b have 10^5 bits or more, so -k shares it."""
    return Fraction(k, b)


@lru_cache(maxsize=4096)
def oracle_point(k, b):
    """canonicalize(Fraction(k, b)), shared by every level."""
    x = reduced(abs(k), b)
    return canonicalize(x if k >= 0 else -x)


def oracle_exits(k, pivots, m):
    """Every n >= 1 with k/b_n outside the level-m arc, up to two indices
    past the first term >= 4m|k|."""
    exits = []
    n, past = 1, 0
    while past < 2:
        b = pivots.term(n)
        if not in_arc(oracle_point(k, b), m):
            exits.append(n)
        if b >= 4 * m * abs(k):
            past += 1
        n += 1
    return exits


def least_prefix(k, pivots):
    """[b_0, ..., b_T] with b_T the first term >= 2|k|: the least prefix a
    uniform kernel may be given for k, at every level."""
    terms = pivots.terms_until(2 * abs(k))
    return terms[: bisect_left(terms, 2 * abs(k)) + 1]


def check_routes(k, pivots, m):
    """first_arc_exit, member_direct, member_partial_sums and the witness of
    falsify_uniform all give the oracle's answer for k."""
    exits = oracle_exits(k, pivots, m)
    first = exits[0] if exits else None
    assert first_arc_exit(k, least_prefix(k, pivots), m) == first
    assert member_direct(k, pivots, m) == (first is None)
    assert member_partial_sums(k, pivots, m) == (first is None)
    witnesses = falsify_uniform(make_sequence("custom", fn=lambda j: k), pivots, m, 1)
    expected = [] if first is None else [(1, first, canonicalize(Fraction(k, pivots.term(first))))]
    assert [(w.j, w.n, w.value) for w in witnesses] == expected


def boundary_values(pivots, m, n):
    """k on or next to the arc's end at index n: +-(b_n/(4m) + c b_n) when
    b_n/(4m) is an integer, or one away from it. With c >= 1 the scan
    reaches index n."""
    b = pivots.term(n)
    base = b // (4 * m)
    offsets = (-1, 0, 1) if b % (4 * m) == 0 else (0, 1)
    return [s * (base + d + c * b) for s in (1, -1) for d in offsets for c in (0, 1, 2)]


@pytest.mark.parametrize("text", sorted(ARC_CHAINS))
def test_routes_match_the_oracle_on_arc_boundaries(text):
    pivots = ARC_CHAINS[text]
    for m in LEVELS:
        for n in range(1, 8):
            for k in boundary_values(pivots, m, n):
                check_routes(k, pivots, m)


@given(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from(sorted(CHAINS)),
    st.sampled_from(LEVELS),
)
def test_routes_match_the_oracle(k, text, m):
    check_routes(k, CHAINS[text], m)


# -- the residue ladder ---------------------------------------------------------

# first_arc_exit tests terms below 2^30 one by one and walks the larger terms
# down a residue ladder. The draws above keep 4m|k| below 2^30 and never reach
# the ladder; these take |k| up to about 2^300.
LADDER_FROM = 1 << 30
K_BITS = 300


def last_index_below(pivots, bits):
    """The last n with b_n of at most ``bits`` bits."""
    n = 1
    while pivots.term(n + 1).bit_length() <= bits:
        n += 1
    return n


@st.composite
def ladder_values(draw):
    """(chain, m, k) with k = sum of c_i b_i plus or minus (b_n // (4m) + delta):
    signed multiples of chain terms and a value next to an arc's end, so exits
    fall below the ladder, inside it, at several of its rungs, or nowhere."""
    text = draw(st.sampled_from(sorted(CHAINS)))
    pivots = CHAINS[text]
    m = draw(st.sampled_from(LEVELS))
    index = st.integers(min_value=1, max_value=last_index_below(pivots, K_BITS))
    k = sum(
        draw(st.integers(min_value=-3, max_value=3)) * pivots.term(draw(index))
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    )
    edge = pivots.term(draw(index)) // (4 * m) + draw(st.integers(min_value=-2, max_value=2))
    return text, m, k + draw(st.sampled_from((1, -1))) * edge


@settings(deadline=None)
@given(ladder_values())
def test_routes_match_the_oracle_on_the_ladder(case):
    text, m, k = case
    check_routes(k, CHAINS[text], m)


SQ, FAC = CHAINS["square"], CHAINS["factorial"]
C23, C342 = CHAINS["chain:2,3"], CHAINS["chain:3,4,2"]
LADDER_CASES = {
    # first exit below 2^30, and a later one on the ladder (b_8 = 2^64)
    "below": ("square", 3, 5 + SQ.term(8) // 2, [1, 2, 8]),
    "below-negative": ("square", 3, -5 - SQ.term(8) // 2, [1, 2, 8]),
    # first exit on the ladder's only rung (b_5 = 2^120, below b_T = b_6)
    "one-rung": ("factorial", 2, FAC.term(5) - FAC.term(5) // 8 - 7 * FAC.term(4), [5]),
    # first exit at b_T = b_5 = 2^120 itself, past a ladder with no rung
    "at-b-T": ("factorial", 2, FAC.term(5) // 8 + 7 * FAC.term(4), [5]),
    # several rungs fail; the least wins
    "rungs-linear": ("linear", 1, 3 * 2**40 + 2**100, [41, 43, 101, 102]),
    "rungs-chain": ("chain:2,3", 1, C23.term(60) // 4 + C23.term(30), [31, 57, 58, 60]),
    "rungs-chain-long": (
        "chain:2,3", 1, C23.term(200) // 2 + C23.term(100) // 2 + C23.term(50),
        [51, 99, 100, 101, 199, 200, 201],
    ),
    "rungs-chain:3,4,2": ("chain:3,4,2", 2, C342.term(150) // 8 - 5 * C342.term(40), [41, 42, 43, 149]),
    # no exit anywhere
    "none-sum": ("square", 1, SQ.term(8) + SQ.term(10) + SQ.term(12), []),
    "none-edge": ("square", 2, SQ.term(12) // 8, []),
}


@pytest.mark.parametrize("name", sorted(LADDER_CASES))
def test_routes_match_the_oracle_at_chosen_rungs(name):
    text, m, k, exits = LADDER_CASES[name]
    pivots = CHAINS[text]
    assert least_prefix(k, pivots)[-1] >= LADDER_FROM  # the walk goes past 2^30
    assert oracle_exits(k, pivots, m) == exits
    check_routes(k, pivots, m)


# -- zero residues ----------------------------------------------------------------

# The ladder stops at its first zero residue, and once the scan goes past 2^30
# the one-digit terms are skipped when the largest of them divides k. These k
# are multiples of a chain term with and without a small offset, for terms on
# both sides of 2^30, and multiples of the largest one-digit term that the
# next term does not divide.


def term_multiples(pivots, j):
    b = pivots.term(j)
    return [s * (c * b + d) for s in (1, -1) for c in (1, 2, 3, 7) for d in (-1, 0, 1)]


@pytest.mark.parametrize("text", sorted(ARC_CHAINS))
def test_first_arc_exit_on_multiples_of_a_term(text):
    pivots = ARC_CHAINS[text]
    top = last_index_below(pivots, 30)  # the largest one-digit term
    for j in sorted({1, 2, top - 1, top, top + 1, top + 2, last_index_below(pivots, K_BITS)}):
        for k in term_multiples(pivots, j):
            for m in LEVELS:
                first = (oracle_exits(k, pivots, m) or [None])[0]
                assert first_arc_exit(k, least_prefix(k, pivots), m) == first, (j, k, m)


def one_digit_multiples(pivots):
    """Multiples of the largest one-digit term that the next term does not
    divide."""
    top = last_index_below(pivots, 30)
    b, ratio = pivots.term(top), pivots.term(top + 1) // pivots.term(top)
    ks = []
    for c in (1, ratio - 1, ratio + 1, ratio**2 + 1, 5 * ratio**3 - 1, 2**200 * ratio + 1):
        ks += [c * b, -c * b]
    assert all(k % pivots.term(top + 1) for k in ks)
    return ks


@pytest.mark.parametrize("text", sorted(ARC_CHAINS))
def test_first_arc_exit_when_only_the_one_digit_terms_divide(text):
    pivots = ARC_CHAINS[text]
    for k in one_digit_multiples(pivots):
        for m in LEVELS:
            check_routes(k, pivots, m)


# Every term of pow2 (2^(2^n)) and factorial (2^(n!)) is a power of two, and
# the ladder masks the residue's low bits at each rung instead of dividing.
# On pow2, l_17 of pivothalf is 2^(2^18 - 1); the oracle walks on to b_20,
# which has 2^20 + 1 bits, past the default budget.
TWO_POWER_DEPTH = {"pow2": 17, "factorial": 7}


@pytest.mark.parametrize("family", ["pivothalf", "pivotsucc"])
@pytest.mark.parametrize("text", sorted(TWO_POWER_DEPTH))
def test_first_arc_exit_on_two_power_chains(text, family):
    pivots = make_pivots(text, bit_budget=1 << 22)
    seq = make_sequence(family, pivots)
    for j in range(1, TWO_POWER_DEPTH[text] + 1):
        l = eval_sequence(seq, j)
        for k in (l, -l):
            for m in LEVELS:
                first = (oracle_exits(k, pivots, m) or [None])[0]
                got = first_arc_exit(k, least_prefix(k, pivots), m)
                assert got == first, (j, k < 0, m)


# On chain:1073741824,3, b_1 = 2^30 and b_0 = 1 is the only one-digit term.
# Past 2^30 the divisor skip tests b_0, which divides every k, so the
# one-digit pass starts at index 1, where its first term sends it to the
# ladder.
WIDE = make_pivots("chain:1073741824,3")


def test_first_arc_exit_when_b_0_is_the_only_one_digit_term():
    assert WIDE.term(1) == 2**30
    ks = [c * 2**29 + d for c in (1, 3, 5, 2**31 + 1) for d in (-1, 0, 1)]
    for j in range(1, 6):
        ks += term_multiples(WIDE, j)
        for m in LEVELS:
            ks += boundary_values(WIDE, m, j)
    ks = [k for k in ks if 2 * abs(k) > 2**30]
    assert len(ks) > 100
    for k in ks:
        for m in LEVELS:
            check_routes(k, WIDE, m)


def test_first_arc_exit_refuses_a_short_prefix():
    assert first_arc_exit(0, [1], 1) is None  # b_T = b_0 = 1, no term walked
    terms = CHAINS["square"].terms(7)  # b_0 .. b_6 = 2^36
    # b_T = b_6 = 2|k| is enough: the lower terms divide k, and k/b_6 = 1/2
    assert first_arc_exit(2**35, terms, 1) == 6
    with pytest.raises(ValueError, match="pivot prefix too short"):
        first_arc_exit(2**35 + 1, terms, 1)  # the ladder's terms, but none >= 2|k|
    with pytest.raises(ValueError, match="pivot prefix too short"):
        first_arc_exit(2**20, terms[:4], 1)  # one-digit terms only


# -- the levels the criteria 2-3 sweep asks ------------------------------------

# route_violations asks first_arc_exit at the partial-sum route's last level
# mp = pd // (4 pn) and at mp + 1, and skips k when the walk finds no exit at
# the first and one at the second. Those levels run far above LEVELS: at
# k = b_5 on the square chain, mp = b_6 // (4 b_5). The skip also relies on
# "no exit" being monotone in the level, checked on drawn levels up to 2^64.


def partial_last_level(k, terms):
    """mp, the last level the partial-sum route holds k at, or None for k = 0."""
    digits = decompose_digits(k, terms, bisect_left(terms, abs(k)))
    pn, pd = digit_ratios(digits, terms)[1]
    return pd // (4 * pn) if pn else None


def check_sweep_levels(k, pivots):
    """first_arc_exit at mp and mp + 1 (at 1 alone when mp = 0) gives the
    oracle's first exit."""
    terms = least_prefix(k, pivots)
    mp = partial_last_level(k, terms)
    for m in (mp, mp + 1) if mp else (1,):
        first = (oracle_exits(k, pivots, m) or [None])[0]
        assert first_arc_exit(k, terms, m) == first, (k, m)


def test_the_sweep_levels_run_past_the_small_levels():
    b5, b6 = SQ.term(5), SQ.term(6)
    assert partial_last_level(b5, least_prefix(b5, SQ)) == b6 // (4 * b5) == 512
    assert partial_last_level(0, [1]) is None


@pytest.mark.parametrize("text", sorted(ARC_CHAINS))
def test_first_arc_exit_at_the_sweep_levels(text):
    pivots = ARC_CHAINS[text]
    top = last_index_below(pivots, 30)
    ks = one_digit_multiples(pivots)
    for j in sorted({1, 2, top - 1, top, top + 1, top + 2, last_index_below(pivots, K_BITS)}):
        ks += term_multiples(pivots, j)
    for m in LEVELS:
        for n in range(1, 8):
            ks += boundary_values(pivots, m, n)
    for k in ks:
        check_sweep_levels(k, pivots)


@settings(deadline=None)
@given(ladder_values())
def test_first_arc_exit_at_the_sweep_levels_on_the_ladder(case):
    text, _, k = case
    check_sweep_levels(k, CHAINS[text])


@settings(deadline=None)
@given(
    ladder_values(),
    st.lists(st.integers(min_value=1, max_value=16) | st.integers(min_value=1, max_value=2**64), min_size=2),
)
def test_no_exit_is_monotone_in_the_level(case, levels):
    text, _, k = case
    terms = least_prefix(k, CHAINS[text])
    members = [first_arc_exit(k, terms, m) is None for m in sorted(levels)]
    assert members == sorted(members, reverse=True), (k, sorted(levels))


# -- the one-sided digit tests ---------------------------------------------------


def oracle_ratio(digits, pivots):
    """max |k_n| b_n / b_{n+1} over the digits, as a Fraction; 0 for none."""
    return max(
        (Fraction(abs(k) * pivots.term(n), pivots.term(n + 1)) for n, k in enumerate(digits)),
        default=Fraction(0),
    )


def check_digit_tests(digits, pivots, m):
    """digit_ratios' first pair is the Fraction maximum, and coeff_bound_test
    holds in each mode exactly when every ratio is at most 1/(8m) (or 3/(8m))."""
    num, den = digit_ratios(digits, pivots.terms(len(digits) + 1))[0]
    assert den >= 1 and Fraction(num, den) == oracle_ratio(digits, pivots)
    coeffs = coefficients_from_digits(digits, pivots)
    for mode, factor in (("sufficient", 1), ("necessary", 3)):
        assert coeff_bound_test(coeffs, m, mode) == (oracle_ratio(digits, pivots) <= Fraction(factor, 8 * m))


def last_term_in_budget(pivots, limit):
    """The largest n <= limit whose b_n the chain's bit budget allows."""
    n = 0
    while n < limit:
        try:
            pivots.term(n + 1)
        except BitBudgetExceeded:
            break
        n += 1
    return n


@st.composite
def digit_lists(draw):
    """(chain, digits): hand-built digit lists whose digits reach past the
    balance bound b_{n+1} / (2 b_n), some of them 0, plus trailing zeros;
    the empty list too. A list of length L is read against b_0..b_L, so L
    stops where the chain's bit budget does (b_9 on the factorial chain)."""
    text = draw(st.sampled_from(sorted(CHAINS)))
    pivots = CHAINS[text]
    top = last_term_in_budget(pivots, 13)
    digits = []
    for n in range(draw(st.integers(min_value=0, max_value=min(10, top)))):
        reach = 2 * pivots.term(n + 1) // pivots.term(n) + 2
        digits.append(draw(st.one_of(st.just(0), st.integers(min_value=-reach, max_value=reach))))
    zeros = draw(st.integers(min_value=0, max_value=min(3, top - len(digits))))
    return text, digits + [0] * zeros


def test_digit_lists_stay_within_the_bit_budget():
    assert last_term_in_budget(CHAINS["factorial"], 13) == 9  # b_10 needs 3,628,801 bits
    assert last_term_in_budget(CHAINS["square"], 13) == 13
    with pytest.raises(BitBudgetExceeded):
        CHAINS["factorial"].term(10)


@given(digit_lists(), st.sampled_from(LEVELS))
def test_digit_tests_match_the_fraction_definition(case, m):
    text, digits = case
    check_digit_tests(digits, CHAINS[text], m)


def boundary_digit_lists():
    """(chain, m, factor, digits, negated digits): one digit k_n, where
    |k_n| b_n / b_{n+1} is exactly factor/(8m) wherever that k_n is an
    integer; the negated list carries a trailing zero."""
    cases = []
    for text, pivots in sorted(CHAINS.items()):
        for m in LEVELS:
            for factor in (1, 3):
                for n in range(6):
                    top, bottom = factor * pivots.term(n + 1), 8 * m * pivots.term(n)
                    if top % bottom == 0:
                        k = top // bottom
                        cases.append((text, m, factor, [0] * n + [k], [0] * n + [-k, 0]))
    return cases


def test_digit_tests_at_their_exact_bounds():
    cases = boundary_digit_lists()
    assert {factor for _, _, factor, _, _ in cases} == {1, 3}
    for text, m, factor, *lists in cases:
        pivots = CHAINS[text]
        for digits in lists:
            num, den = digit_ratios(digits, pivots.terms(len(digits) + 1))[0]
            assert 8 * m * num == factor * den
            mode = "sufficient" if factor == 1 else "necessary"
            assert coeff_bound_test(coefficients_from_digits(digits, pivots), m, mode)
            check_digit_tests(digits, pivots, m)
            over = [d + (d > 0) - (d < 0) for d in digits]  # one past the bound
            assert not coeff_bound_test(coefficients_from_digits(over, pivots), m, mode)
            check_digit_tests(over, pivots, m)


def test_digit_tests_on_the_empty_list():
    for pivots in CHAINS.values():
        assert digit_ratios([], pivots.terms(1)) == ((0, 1), (0, 1))
        check_digit_tests([], pivots, 1)
        check_digit_tests([0, 0, 0], pivots, 1)


# -- the digit kernels against their per-level forms ---------------------------


def per_level_digits(l, terms, top):
    """``decompose_digits`` one chain level at a time: every level rounds,
    zero or not, and trailing zeros are trimmed at the end."""
    digits = [0] * (top + 1)
    r = l
    for n in range(top, 0, -1):
        b = terms[n]
        f, rem = divmod(r, b)
        rem2 = rem << 1
        if rem2 > b or (rem2 == b and f < 0):
            f += 1
        digits[n] = f
        r -= f * b
    digits[0] = r
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


def per_level_checks(digits, terms):
    """``coefficient_checks`` with both bounds tested at every level."""
    value = 0
    digit_ok = True
    partial_ok = True
    for n in range(len(digits)):
        k = digits[n]
        b1 = terms[n + 1]
        if (abs(k) * terms[n]) << 1 > b1:
            digit_ok = False
        value += k * terms[n]
        if abs(value) << 1 > b1:
            partial_ok = False
    return value, digit_ok, partial_ok


def per_level_partial_scan(k, terms, m):
    """``member_partial_scan`` with the partial sum tested at every index
    n >= 1 up to the first b_n >= 4m|k|."""
    if k == 0:
        return True
    digits = per_level_digits(k, terms, bisect_left(terms, abs(k)))
    partial = 0
    n = 1
    while True:
        if n - 1 < len(digits):
            partial += digits[n - 1] * terms[n - 1]
        if 4 * m * abs(partial) > terms[n]:
            return False
        if terms[n] >= 4 * m * abs(k):
            return True
        n += 1


DIGIT_CHAINS = (
    "linear", "square", "factorial", "pow2", "poly:1,2",
    "chain:2,3", "chain:3,5", "chain:7", "chain:5,3,2",
)
DIGIT_LEVELS = (1, 2, 3, 8)
DIGIT_MAX = 10**40


@lru_cache(maxsize=None)
def digit_terms(text):
    """The chain prefix up to the first term >= 2 * 4 * 8 * DIGIT_MAX."""
    return make_pivots(text).terms_until(2 * 4 * max(DIGIT_LEVELS) * DIGIT_MAX)


def fraction_ratios(digits, terms):
    """The two maxima of ``digit_ratios`` from their Fraction definitions,
    taken at every level: max |k_n| b_n / b_{n+1} and
    max |sum_{i<=n} k_i b_i| / b_{n+1}, each 0 for no digit."""
    digit = part = Fraction(0)
    partial = 0
    for n, k in enumerate(digits):
        partial += k * terms[n]
        digit = max(digit, Fraction(abs(k) * terms[n], terms[n + 1]))
        part = max(part, Fraction(abs(partial), terms[n + 1]))
    return digit, part


def check_digit_ratios(digits, terms):
    """Both pairs of ``digit_ratios`` are their Fraction maxima; returns them."""
    pairs = digit_ratios(digits, terms)
    assert all(den >= 1 for _, den in pairs)
    assert tuple(Fraction(num, den) for num, den in pairs) == fraction_ratios(digits, terms)
    return pairs


def check_digit_kernels(l, terms):
    top = bisect_left(terms, abs(l))
    digits = decompose_digits(l, terms, top)
    assert digits == per_level_digits(l, terms, top)
    assert coefficient_checks(digits, terms) == per_level_checks(digits, terms)
    _, (pn, pd) = check_digit_ratios(digits, terms)
    for m in DIGIT_LEVELS:
        expected = per_level_partial_scan(l, terms, m)
        assert member_partial_scan(l, terms, m) == expected
        assert (4 * m * pn <= pd) == expected


@pytest.mark.parametrize("text", DIGIT_CHAINS)
def test_digit_kernels_match_per_level_on_every_small_l(text):
    terms = digit_terms(text)
    for l in range(-3000, 3001):
        check_digit_kernels(l, terms)


def tie_and_term_values(terms):
    """±b_n/2 and ±3b_n/2 (ties when b_n is even, the integers either side
    when it is odd), ±b_n and ±(b_n ± 1) for every b_n <= DIGIT_MAX."""
    values = set()
    for b in terms:
        if b > DIGIT_MAX:
            break
        for v in (b // 2, (b + 1) // 2, 3 * b // 2, (3 * b + 1) // 2, b - 1, b, b + 1):
            values.update((v, -v))
    return sorted(values)


@pytest.mark.parametrize("text", DIGIT_CHAINS)
def test_digit_kernels_match_per_level_at_ties_and_terms(text):
    terms = digit_terms(text)
    for l in tie_and_term_values(terms):
        check_digit_kernels(l, terms)


@given(st.sampled_from(DIGIT_CHAINS), st.integers(min_value=-DIGIT_MAX, max_value=DIGIT_MAX))
def test_digit_kernels_match_per_level_on_large_l(text, l):
    check_digit_kernels(l, digit_terms(text))


@pytest.mark.parametrize("text", DIGIT_CHAINS)
def test_digit_kernels_match_per_level_on_random_l(text):
    rng = Random(text)
    terms = digit_terms(text)
    for _ in range(200):
        bound = 10 ** rng.randint(4, 40)
        check_digit_kernels(rng.randint(-bound, bound), terms)


def bound_breaking_digit_lists(terms):
    """Hand-built digit lists with interior and trailing zeros: one digit
    past its bound b_{n+1} / (2 b_n) with zeros on both sides, and digits
    each within their bound whose partial sum is not, from two digits at
    their bound with zeros between them."""
    lists = []
    for n in range(1, 5):
        over = terms[n + 1] // (2 * terms[n]) + 1
        for gap in range(3):
            lists.append([0] * n + [over] + [0] * gap)
            lists.append([0] * n + [-over, 0, 1] + [0] * gap)
            for lower in range(n):
                at_bound = [terms[i + 1] // (2 * terms[i]) for i in (lower, n)]
                digits = [0] * (n + 1) + [0] * gap
                digits[lower], digits[n] = at_bound
                lists.append(digits)
                lists.append([-d for d in digits])
    return lists


@pytest.mark.parametrize("text", DIGIT_CHAINS)
def test_coefficient_checks_match_per_level_on_hand_built_digits(text):
    terms = make_pivots(text).terms(10)
    seen = set()
    for digits in bound_breaking_digit_lists(terms):
        expected = per_level_checks(digits, terms)
        assert coefficient_checks(digits, terms) == expected
        check_digit_ratios(digits, terms)
        seen.add(expected[1:])
    assert (False, False) in seen
    # where every b_{n+1} / b_n is odd, digits within their bounds keep
    # 2|sum_{i<=n} k_i b_i| <= b_{n+1} - 1: the partial sums cannot break alone
    if any((terms[n + 1] // terms[n]) % 2 == 0 for n in range(5)):
        assert (True, False) in seen


@st.composite
def zero_rich_digit_lists(draw):
    """(chain, digits): hand-built digit lists over a chain of DIGIT_CHAINS
    whose digits are 0, ±1, or at or one past the balance bound
    b_{n+1} / (2 b_n), with 0 drawn most often."""
    text = draw(st.sampled_from(DIGIT_CHAINS))
    terms = digit_terms(text)
    digits = []
    for n in range(draw(st.integers(min_value=0, max_value=len(terms) - 1))):
        bound = terms[n + 1] // (2 * terms[n])
        choices = (0, 0, 0, 1, -1, bound, -bound, bound + 1, -bound - 1)
        digits.append(draw(st.sampled_from(choices)))
    return text, digits


@given(zero_rich_digit_lists())
def test_coefficient_checks_match_per_level_on_drawn_digits(case):
    text, digits = case
    terms = digit_terms(text)
    assert coefficient_checks(digits, terms) == per_level_checks(digits, terms)
    check_digit_ratios(digits, terms)


@pytest.mark.parametrize("text", DIGIT_CHAINS)
def test_digit_ratios_of_no_digit_and_of_zeros(text):
    terms = digit_terms(text)
    for digits in ([], [0], [0, 0, 0]):
        assert check_digit_ratios(digits, terms) == ((0, 1), (0, 1))


def outcome(kernel, *args):
    """What ``kernel(*args)`` returns, or the type of the error it raises."""
    try:
        return kernel(*args)
    except IndexError as exc:
        return type(exc)


@pytest.mark.parametrize("text", DIGIT_CHAINS)
def test_digit_kernels_refuse_a_short_prefix(text):
    terms = digit_terms(text)
    for digits in ([1], [1, 0], [0, 0, 1, 0, 0], [1, -1, 0]):
        short = terms[: len(digits)]
        enough = short + terms[len(digits) : len(digits) + 1]
        assert outcome(coefficient_checks, digits, short) is IndexError
        assert outcome(per_level_checks, digits, short) is IndexError
        assert coefficient_checks(digits, enough) == per_level_checks(digits, terms)
        assert outcome(digit_ratios, digits, short) is IndexError
        assert digit_ratios(digits, enough) == digit_ratios(digits, terms)
    for l in tie_and_term_values(terms):
        if l:
            top = bisect_left(terms, abs(l))
            assert outcome(decompose_digits, l, terms[:top], top) is IndexError
            digits = decompose_digits(l, terms, top)
            # cut at b_{s+1}, s the last nonzero digit: every digit kernel
            # raises, the partial scan too, whether or not k is a member
            short = terms[: len(digits)]
            assert outcome(digit_ratios, digits, short) is IndexError
            for m in DIGIT_LEVELS:
                assert outcome(member_partial_scan, l, short, m) is IndexError


# Remainders that reach 0 above level 0, deep in the chain: +-(t b_n + e)
# with e = 0 or e one of +-b_j, b_j + 1 and 2 b_j for j < n, on terms up
# to 2^DEEP_BITS. The walk ends at the zero remainder with every lower
# digit 0, and level 0 keeps its 0.
DEEP_CHAINS = ("linear", "square", "factorial", "pow2", "poly:1,1", "chain:2,3", "chain:4,6,5",
               "chain:1073741824,3")
DEEP_BITS = 3000


def deep_values(terms):
    """+-(t b_n + e) for a few n up to the last b_n <= 2^(DEEP_BITS - 3)."""
    last = bisect_left(terms, 1 << (DEEP_BITS - 3)) - 1
    values = set()
    for n in sorted({1, 2, last // 2, last - 1, last}):
        for t in (1, 3):
            for j in sorted({0, 1, n // 2, n - 1}):
                b = terms[j]
                for e in (0, b, -b, b + 1, 2 * b):
                    l = t * terms[n] + e
                    values.update((l, -l))
    return sorted(values)


@pytest.mark.parametrize("text", DEEP_CHAINS)
def test_digit_walks_end_at_a_zero_remainder_deep_in_the_chain(text):
    terms = make_pivots(text).terms_until(1 << DEEP_BITS)
    ended = 0
    for l in deep_values(terms):
        top = bisect_left(terms, abs(l))
        digits = decompose_digits(l, terms, top)
        assert digits == per_level_digits(l, terms, top), l
        assert coefficient_checks(digits, terms) == per_level_checks(digits, terms)
        ended += len(digits) > 1 and digits[0] == 0
    assert ended  # some remainder reached 0 above level 0


# -- the window scans ----------------------------------------------------------


WINDOW_MAX = 3000


def oracle_member(k, pivots, m):
    """Whether no n >= 1 puts k/b_n outside the level-m arc: oracle_exits,
    stopping at the first exit."""
    n, past = 1, 0
    while past < 2:
        b = pivots.term(n)
        if not in_arc(canonicalize(Fraction(k, b)), m):
            return False
        if b >= 4 * m * abs(k):
            past += 1
        n += 1
    return True


@lru_cache(maxsize=None)
def oracle_table(text, m):
    """Oracle members with |k| <= WINDOW_MAX in iter_members' order:
    0, 1, -1, 2, -2, ..."""
    pivots = CHAINS[text]
    ks = [j for k in range(1, WINDOW_MAX + 1) for j in (k, -k)]
    return [0] + [k for k in ks if oracle_member(k, pivots, m)]


def oracle_members(text, m, window):
    assert window <= WINDOW_MAX
    return [k for k in oracle_table(text, m) if abs(k) <= window]


def segment(size):
    """Run the window scans with segments of ``size`` integers."""
    return mock.patch.object(neighborhoods, "SIEVE_SEGMENT", size)


def edge_windows(text, m, limit=WINDOW_MAX):
    """Windows on and next to b_n/(4m), for every such edge up to ``limit``."""
    windows = {0, 1, 2}
    n = 1
    while CHAINS[text].term(n) // (4 * m) <= limit:
        edge = CHAINS[text].term(n) // (4 * m)
        windows.update(w for w in (edge - 1, edge, edge + 1) if w >= 0)
        n += 1
    return sorted(windows)


@pytest.mark.parametrize("text", sorted(CHAINS))
def test_iter_members_matches_the_oracle_on_arc_edges(text):
    for m in LEVELS:
        spec = NeighborhoodSpec(CHAINS[text], Uniform(m))
        for window in edge_windows(text, m):
            assert list(iter_members(spec, window)) == oracle_members(text, m, window)


@settings(deadline=None)
@given(
    st.sampled_from(sorted(CHAINS)),
    st.sampled_from(LEVELS),
    st.integers(min_value=0, max_value=WINDOW_MAX),
    st.sampled_from([1, 2, 7, 64, SIEVE_SEGMENT]),
)
def test_iter_members_matches_the_oracle(text, m, window, size):
    with segment(size):
        members = list(iter_members(NeighborhoodSpec(CHAINS[text], Uniform(m)), window))
    assert members == oracle_members(text, m, window)


@pytest.mark.parametrize("text", sorted(CHAINS))
def test_iter_members_across_a_segment_border(text):
    # member_direct is checked against the oracle above; the oracle itself
    # decides the k next to the border
    pivots = CHAINS[text]
    m = 1 + len(text) % 8
    window = SIEVE_SEGMENT + 300
    members = list(iter_members(NeighborhoodSpec(pivots, Uniform(m)), window))
    ks = [j for k in range(1, window + 1) for j in (k, -k)]
    assert members == [0] + [k for k in ks if member_direct(k, pivots, m)]
    near = [k for k in ks if abs(k) > SIEVE_SEGMENT - 300]
    assert [k for k in members if abs(k) > SIEVE_SEGMENT - 300] == [
        k for k in near if oracle_member(k, pivots, m)
    ]


def linear_oracle_members(pivots, n, window):
    """0, then the multiples k of b_n with 0 < k <= window as k, -k."""
    b = pivots.term(n)
    return [0] + [j for k in range(1, window + 1) if k % b == 0 for j in (k, -k)]


@settings(deadline=None)
@given(
    st.sampled_from(sorted(CHAINS)),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=WINDOW_MAX),
    st.sampled_from([1, 7, 64, SIEVE_SEGMENT]),
)
def test_iter_members_on_linear_neighbourhoods(text, n, window, size):
    with segment(size):
        members = list(iter_members(NeighborhoodSpec(CHAINS[text], Linear(n)), window))
    assert members == linear_oracle_members(CHAINS[text], n, window)


@pytest.mark.parametrize("text", sorted(CHAINS))
def test_iter_members_on_linear_neighbourhoods_across_a_segment_border(text):
    # b_1 of every chain here is 2 or 3: the window holds SIEVE_SEGMENT + 5
    # multiples of it, one segment of indices and five past its end
    pivots = CHAINS[text]
    b = pivots.term(1)
    window = b * (SIEVE_SEGMENT + 5) + b - 1
    members = list(iter_members(NeighborhoodSpec(pivots, Linear(1)), window))
    assert members == [0] + [j for i in range(1, SIEVE_SEGMENT + 6) for j in (i * b, -i * b)]


@pytest.mark.parametrize("window", [0, 10**6])
def test_iter_members_on_linear_neighbourhoods_refuses_b_n_before_0(window):
    # b_10 of the factorial chain needs 3,628,801 bits: no member is yielded,
    # not even 0, and the error is member_linear's
    members = iter_members(NeighborhoodSpec(CHAINS["factorial"], Linear(10)), window)
    with pytest.raises(BitBudgetExceeded) as exc:
        next(members)
    with pytest.raises(BitBudgetExceeded) as direct:
        member_linear(0, CHAINS["factorial"], 10)
    assert str(exc.value) == str(direct.value)
    assert str(direct.value) == "term b_10 of 'factorial' needs 3628801 bits (budget 1000000)"


def reference_survivors(xs, level, window):
    """The per-k loop discreteness_witness ran before the arc sieve."""
    survivors = []
    for k in range(-window, window + 1):
        for x in xs:
            t = wrap_half(k * x.numerator, x.denominator)
            ta = -t if t < 0 else t
            if 4 * level * ta > x.denominator:
                break
        else:
            survivors.append(k)
    return survivors


@st.composite
def decreasing_prefixes(draw):
    """(xs, ratio bound): x_1 in (0, 1/2] with any numerator, then ratios in
    (1, r], so numerators other than 1 and denominators past the window
    both occur."""
    r = draw(st.integers(min_value=2, max_value=6))
    q = draw(st.integers(min_value=2, max_value=60))
    x = Fraction(draw(st.integers(min_value=1, max_value=q // 2)), q)
    xs = [x]
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        den = draw(st.integers(min_value=1, max_value=5))
        x = x * den / draw(st.integers(min_value=den + 1, max_value=r * den))
        xs.append(x)
    return xs, r


@given(
    decreasing_prefixes(),
    st.integers(min_value=1, max_value=WINDOW_MAX),
    st.sampled_from([1, 5, 64, SIEVE_SEGMENT]),
)
def test_discreteness_witness_matches_the_per_k_loop(prefix, window, size):
    xs, r = prefix
    with segment(size):
        w = discreteness_witness(xs, r, window)
    assert list(w.survivors) == reference_survivors(xs, w.level, window)
    assert w.verified == (w.survivors == (0,))


def test_discreteness_witness_with_many_allowed_residues():
    # level 2 against denominators of thousands: hundreds of allowed residues
    # per condition, and denominators beyond the window
    xs = [Fraction(1, 3), Fraction(1, 5), Fraction(3, 19), Fraction(5, 41), Fraction(7, 97),
          Fraction(11, 293), Fraction(13, 691), Fraction(17, 1801), Fraction(19, 4001)]
    w = discreteness_witness(xs, 2, 2500)
    assert w.level == 2
    assert list(w.survivors) == reference_survivors(xs, 2, 2500)


def oracle_mask(lo, hi, conds):
    """The arc sieve's mask by the circle oracle, k by k."""
    return [
        int(all(in_arc(canonicalize(Fraction(k * p, q)), level) for p, q, level in conds))
        for k in range(lo, hi + 1)
    ]


@given(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=0, max_value=300),
    st.lists(
        st.tuples(
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=1, max_value=400),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=6,
    ),
)
def test_arc_sieve_matches_the_circle_oracle(lo, length, conds):
    # any numerator, including ones with no inverse mod q, and negative k
    hi = lo + length - 1
    assert list(arc_sieve(lo, hi, conds)) == oracle_mask(lo, hi, conds)


@st.composite
def chain_conditions(draw):
    """(lo, hi, conds) with conditions shaped like a divisibility chain,
    (1, q, level) or (q + 1, q, level) for q on a random multiplier chain up
    to three times the window, in shuffled order and sometimes mixed with
    others that the tiling must leave to the residue loop. The window may be
    exactly one chain term long."""
    length = draw(st.integers(min_value=0, max_value=600))
    qs, q = [], 1
    while True:
        q *= draw(st.integers(min_value=2, max_value=6))
        if q > 3 * max(length, 1):
            break
        qs.append(q)
    if qs and draw(st.booleans()):
        length = draw(st.sampled_from(qs))
    qs += draw(st.lists(st.sampled_from(qs), max_size=2)) if qs else []  # repeated terms
    conds = [
        (draw(st.sampled_from((1, q + 1))), q, draw(st.integers(min_value=1, max_value=9)))
        for q in qs
    ]
    # others: p = 1 off the chain, or another p on a chain term
    anys = st.integers(min_value=1, max_value=400)
    conds += draw(
        st.lists(
            st.tuples(
                st.sampled_from((1, -1, 2)) | st.integers(min_value=-50, max_value=50),
                st.sampled_from(qs) | anys if qs else anys,
                st.integers(min_value=1, max_value=9),
            ),
            max_size=3,
        )
    )
    lo = draw(st.integers(min_value=-(10**7), max_value=10**7))
    return lo, lo + length - 1, draw(st.permutations(conds))


@settings(deadline=None)
@given(chain_conditions())
def test_arc_sieve_tiles_chain_conditions(case):
    # the tiled period starts at lo mod period, lo far from 0 on either side
    lo, hi, conds = case
    assert list(arc_sieve(lo, hi, conds)) == oracle_mask(lo, hi, conds)


@pytest.mark.parametrize(
    "conds",
    [
        [(1, 4, 1), (1, 6, 1)],  # 6 is not a multiple of the period 4
        [(2, 9, 1), (1, 27, 2)],  # another numerator on a chain term
        [(1, 8, 1), (1, 8, 3), (17, 16, 2), (1, 48, 1)],  # a repeated term, p = q + 1
        [(1, 5, 1), (1, 10, 2), (1, 300, 1)],  # a term past the shorter windows
    ],
)
def test_arc_sieve_tiles_only_the_chain(conds):
    for lo in (-1000, -1, 0, 7, 10**6 + 3):
        for length in (1, 10, 48, 300):
            hi = lo + length - 1
            assert list(arc_sieve(lo, hi, conds)) == oracle_mask(lo, hi, conds), (lo, length)


@st.composite
def masks(draw):
    """Zero-one masks of every density, either side of mask_positions'
    switch between find and compress."""
    size = draw(st.integers(min_value=0, max_value=3000))
    density = draw(st.sampled_from((0, 0.001, 0.02, 1 / 13, 1 / 12, 1 / 11, 0.5, 1)))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32)))
    return bytearray(int(rng.random() < density) for _ in range(size))


@given(masks(), st.integers(min_value=-(10**7), max_value=10**7))
def test_mask_positions_matches_compress(mask, start):
    expected = list(compress(range(start, start + len(mask)), mask))
    assert list(mask_positions(mask, start)) == expected


@given(masks(), st.integers(min_value=-(10**7), max_value=10**7), st.integers(min_value=1, max_value=2**70))
def test_mask_positions_with_a_step(mask, start, step):
    expected = [start + i * step for i, v in enumerate(mask) if v]
    assert list(mask_positions(mask, start, step)) == expected


@pytest.mark.parametrize(
    "mask",
    [bytearray(), bytearray(1), bytearray(b"\x01"), bytearray(100), bytearray(b"\x01") * 100,
     bytearray(b"\x01" + bytes(11)) * 50, bytearray(b"\x01" + bytes(12)) * 50,
     bytearray(999) + bytearray(b"\x01")],
)
def test_mask_positions_on_fixed_masks(mask):
    for start in (0, 1, -7, 10**12):
        expected = [start + i for i, v in enumerate(mask) if v]
        assert list(mask_positions(mask, start)) == expected
        for step in (2, 3, 2**64):
            expected = [start + i * step for i, v in enumerate(mask) if v]
            assert list(mask_positions(mask, start, step)) == expected


@pytest.mark.parametrize("step", [1, CHAINS["square"].term(4)])
def test_mask_positions_on_a_full_mask_is_the_range(step):
    # every segment of a Linear window is such a mask
    for size in (0, 1, 11, 300):
        for start in (0, -7, 10**12):
            expected = list(range(start, start + size * step, step))
            assert list(mask_positions(bytearray(b"\x01") * size, start, step)) == expected


@pytest.mark.parametrize("level", [1, 2, 3, 5])
def test_arc_sieve_on_arc_edges(level):
    # q a multiple of 4*level puts k*p/q exactly on the arc's end for some k.
    # A one-k window leaves the sieve nothing to strike, so it checks the
    # condition directly; the wide window strikes whole periods or residues.
    for q in (4 * level, 8 * level, 28 * level, 4 * level + 1, 4 * level + 3):
        r = q // (4 * level)
        for p in (1, q + 1, -1, 3, 5, 2, q // 2, 0):
            edges = [k for k in range(-2 * q, 2 * q + 1) if (k * p) % q in (r, r + 1, q - r, q - r - 1)]
            for lo, hi in [(k, k) for k in edges] + [(-2 * q, 2 * q)]:
                expected = oracle_mask(lo, hi, [(p, q, level)])
                assert list(arc_sieve(lo, hi, [(p, q, level)])) == expected, (p, q, lo, hi)


@pytest.mark.parametrize(
    "rest",
    [[(3, 16, 1)], [(2, 16, 1)], [(0, 12, 1)], [(5, 9, 2), (-1, 40, 1)], [(1, 9, 1), (6, 10, 1)]],
)
def test_arc_sieve_on_a_window_it_empties_before_a_condition_with_p_not_1(rest):
    # (1, 8, 1) strikes every k = 3..5 (mod 8); its q is the least, so the
    # window is empty before the sieve reaches any condition of ``rest``
    for lo in (-13, -11, -5, 3, 4, 5, 11, 10**6 + 3):
        for hi in range(lo, lo + 6 - lo % 8):
            assert not any(arc_sieve(lo, hi, [(1, 8, 1)]))
            conds = [(1, 8, 1)] + rest
            assert list(arc_sieve(lo, hi, conds)) == oracle_mask(lo, hi, conds), (lo, hi)


def reference_failing_k(chi, text, m, window):
    for k in oracle_members(text, m, window):
        if not in_arc(char_eval(chi, k), 1):
            return k
    return None


@settings(deadline=None)
@given(
    st.sampled_from(sorted(CHAINS)),
    st.sampled_from(LEVELS),
    st.integers(min_value=2, max_value=60).flatmap(
        lambda q: st.tuples(st.integers(min_value=0, max_value=q - 1), st.just(q))
    ),
    st.integers(min_value=0, max_value=WINDOW_MAX),
)
def test_continuity_window_check_matches_a_per_member_loop(text, m, chi_pq, window):
    chi = character(Fraction(*chi_pq))
    check = continuity_window_check(chi, NeighborhoodSpec(CHAINS[text], Uniform(m)), window)
    failing = reference_failing_k(chi, text, m, window)
    assert check == (failing is None, failing)


@st.composite
def linear_characters(draw):
    """(chain, n, chi): chi = p/q with q up to 200, or with q a divisor of
    b_n (gcd(b_n, r), or a chain term b_j with j <= n), or such a divisor
    times 2..5, which may divide b_n or not."""
    text = draw(st.sampled_from(sorted(CHAINS)))
    n = draw(st.integers(min_value=0, max_value=7))
    b = CHAINS[text].term(n)
    divisor = st.one_of(
        st.integers(min_value=1, max_value=10**6).map(lambda r: gcd(b, r)),
        st.integers(min_value=0, max_value=n).map(CHAINS[text].term),
    )
    q = draw(st.one_of(
        st.integers(min_value=1, max_value=200),
        divisor,
        st.tuples(divisor, st.integers(min_value=2, max_value=5)).map(lambda t: t[0] * t[1]),
    ))
    p = draw(st.one_of(st.integers(min_value=-q, max_value=q), st.integers(min_value=-(10**6), max_value=10**6)))
    return text, n, character(Fraction(p, q))


@settings(deadline=None)
@given(
    linear_characters(),
    st.integers(min_value=0, max_value=WINDOW_MAX),
    st.sampled_from([1, 7, 64, SIEVE_SEGMENT]),
)
def test_continuity_window_check_on_linear_neighbourhoods(case, window, size):
    # the first failing multiple j b_n, j <= window // b_n, with chi evaluated at each
    text, n, chi = case
    b = CHAINS[text].term(n)
    failing = next((k for k in range(b, window + 1, b) if not in_arc(char_eval(chi, k), 1)), None)
    with segment(size):
        check = continuity_window_check(chi, NeighborhoodSpec(CHAINS[text], Linear(n)), window)
    assert check == (failing is None, failing)
    if b % chi.denominator == 0:  # chi kills b_n Z
        assert check == (True, None)


@pytest.mark.parametrize("size", [SIEVE_SEGMENT, 1000])
def test_window_scan_under_the_bit_budget(monkeypatch, size):
    # factorial chain, budget 64 bits: b_4 = 2^24 is the last term, so every
    # k up to 2^24 / 2 is decided at every level and k = 2^23 + 1 needs b_5.
    # The members of U_2 end at 2^24 / 8: no k in (2^21, 2^23] is one
    monkeypatch.setenv("ZTOP_BIT_BUDGET", "64")
    spec = NeighborhoodSpec(make_pivots("factorial"), Uniform(2))
    count, last = 0, None
    with segment(size), pytest.raises(BitBudgetExceeded) as exc:
        for k in iter_members(spec, 10**7):
            count, last = count + 1, k
    assert (count, last) == (327_681, -2_097_152)
    assert not member_direct(2**23, make_pivots("factorial"), 2)
    with pytest.raises(BitBudgetExceeded) as direct:
        member_direct(2**23 + 1, make_pivots("factorial"), 2)
    assert str(exc.value) == str(direct.value) == "term b_5 of 'factorial' needs 121 bits (budget 64)"
    spec = NeighborhoodSpec(make_pivots("factorial"), Uniform(2))
    assert continuity_window_check(character("1/7"), spec, 10**7) == (False, 4)


def test_continuity_window_check_stops_in_the_first_segment():
    spans = []

    def recording_sieve(lo, hi, conds):
        spans.append((lo, hi))
        return arc_sieve(lo, hi, conds)

    spec = NeighborhoodSpec(make_pivots("factorial"), Uniform(2))
    with mock.patch.object(neighborhoods, "arc_sieve", recording_sieve):
        check = continuity_window_check(character("1/7"), spec, 10**7)
    assert check == (False, 4)
    assert spans == [(1, SIEVE_SEGMENT)]
