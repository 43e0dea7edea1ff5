"""Every uniform-membership route against the slow circle oracle.

The oracle decides whether k/b_n lies in the closed arc [-1/(4m), 1/(4m)]
with ``in_arc(canonicalize(Fraction(k, b_n)), m)``, index by index. It runs
two indices past the first term >= 4m|k|, so it also checks the cut-off the
kernels rely on: from there on every k/b_n is inside the arc.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ztop._kernels import first_arc_exit
from ztop.convergence import falsify_uniform, make_sequence
from ztop.neighborhoods import member_direct, member_partial_sums
from ztop.pivots import MultiplierFunc, make_pivots
from ztop.torus import canonicalize, in_arc

CHAINS = {
    text: make_pivots(text) for text in ("linear", "square", "factorial", "chain:2,3")
}
CHAINS["func:2+step%3"] = make_pivots(MultiplierFunc(lambda step: 2 + step % 3, name="2+step%3"))
LEVELS = range(1, 9)


def oracle_exits(k, pivots, m):
    """Every n >= 1 with k/b_n outside the level-m arc, up to two indices
    past the first term >= 4m|k|."""
    exits = []
    n, past = 1, 0
    while past < 2:
        b = pivots.term(n)
        if not in_arc(canonicalize(Fraction(k, b)), m):
            exits.append(n)
        if b >= 4 * m * abs(k):
            past += 1
        n += 1
    return exits


def check_routes(k, pivots, m):
    """first_arc_exit, member_direct, member_partial_sums and the witness of
    falsify_uniform all give the oracle's answer for k."""
    exits = oracle_exits(k, pivots, m)
    first = exits[0] if exits else None
    assert first_arc_exit(k, pivots.terms_until(4 * m * abs(k)), m) == first
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


@pytest.mark.parametrize("text", sorted(CHAINS))
def test_routes_match_the_oracle_on_arc_boundaries(text):
    pivots = CHAINS[text]
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
