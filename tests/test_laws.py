"""Group-law properties of the uniform neighbourhoods, read off ``iter_members``.

U_m is the set of k with |k/b_n mod 1| <= 1/(4m) for every n >= 1. Two laws
follow from the definition and hold on every divisibility chain:

* U_{2m} + U_{2m} lies in U_m: on the circle the distances to 0 add up, and
  1/(8m) + 1/(8m) = 1/(4m);
* U_m lies in b_n * Z once 4m > b_n: the distance of k/b_n to 0 is then
  below 1/b_n, so k/b_n is an integer.

Both are checked on members that ``iter_members`` yields over a window of
3,000, with the sieve's segment shrunk at times so that the members come
from many segments.
"""

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from ztop import neighborhoods
from ztop.neighborhoods import SIEVE_SEGMENT, NeighborhoodSpec, Uniform, iter_members
from ztop.pivots import make_pivots

WINDOW = 3000

chains = st.one_of(
    st.sampled_from(("linear", "square", "factorial", "pow2")),
    st.builds(lambda a, b: f"poly:{a},{b}", st.integers(0, 3), st.integers(1, 2)),
    st.lists(st.integers(2, 6), min_size=1, max_size=3).map(
        lambda ms: "chain:" + ",".join(map(str, ms))
    ),
)
segments = st.sampled_from((7, 64, SIEVE_SEGMENT))


def members(text, m, window, size):
    with mock.patch.object(neighborhoods, "SIEVE_SEGMENT", size):
        return list(iter_members(NeighborhoodSpec(make_pivots(text), Uniform(m)), window))


@given(chains, st.integers(1, 8), segments, st.data())
def test_sums_of_two_level_2m_members_are_level_m_members(text, m, size, data):
    small = members(text, 2 * m, WINDOW, size)
    large = set(members(text, m, 2 * WINDOW, size))
    assert set(small) <= large
    picks = st.lists(st.sampled_from(small), min_size=1, max_size=40)
    for a, b in zip(data.draw(picks), data.draw(picks)):
        assert a + b in large, (a, b)


@given(chains, st.integers(1, 40), segments)
def test_level_m_members_are_multiples_of_each_term_below_4m(text, m, size):
    pivots = make_pivots(text)
    below = [b for b in pivots.terms_until(4 * m) if b < 4 * m]
    found = members(text, m, WINDOW, size)
    assert found[0] == 0 and found[1::2] == [-k for k in found[2::2]]
    assert all(k % below[-1] == 0 for k in found)
