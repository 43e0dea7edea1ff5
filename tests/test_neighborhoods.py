import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ztop.convergence import falsify_uniform, make_sequence
from ztop.decomposition import decompose
from ztop.neighborhoods import (
    Linear,
    NeighborhoodSpec,
    Uniform,
    coeff_bound_test,
    discreteness_witness,
    iter_members,
    member,
    member_direct,
    member_linear,
    member_partial_sums,
    route_violations,
)
from ztop.pivots import make_pivots
from ztop.torus import canonicalize, in_arc

_pivots = {t: make_pivots(t) for t in ["linear", "square", "factorial"]}
pivot_families = st.sampled_from(sorted(_pivots)).map(_pivots.get)
levels = st.sampled_from([1, 2, 4, 8])


def brute_member(k, pivots, m):
    """Independent oracle: raw rational arithmetic over every index below the
    termination bound."""
    if k == 0:
        return True
    n = 1
    while pivots.term(n) < 4 * m * abs(k):
        if not in_arc(canonicalize(Fraction(k, pivots.term(n))), m):
            return False
        n += 1
    return True


def test_member_direct_examples(square):
    assert member_direct(128, square, 1)
    assert not member_direct(1, square, 1)  # 1/2 outside the quarter arc
    assert member_direct(496, square, 2)  # 496/512 = -1/32 + 1, within 1/8
    assert member_direct(0, square, 8)


def test_member_partial_sums_examples(square):
    assert member_partial_sums(128, square, 1)
    assert member_partial_sums(0, square, 4)
    assert member_partial_sums(496, square, 2)
    assert not member_partial_sums(1, square, 1)


def test_member_oracle_agreement(square, linear, factorial):
    for pivots in (square, linear, factorial):
        for k in list(range(-40, 41)) + [100, 128, 496, 500, 1000]:
            for m in (1, 2, 4):
                expected = brute_member(k, pivots, m)
                assert member_direct(k, pivots, m) == expected
                assert member_partial_sums(k, pivots, m) == expected


def test_coeff_bound_examples(square):
    coeffs = decompose(128, square)
    assert not coeff_bound_test(coeffs, 1, "sufficient")  # 8*16/512 = 1/4 > 1/8
    assert coeff_bound_test(coeffs, 1, "necessary")  # 1/4 <= 3/8
    empty = decompose(0, square)
    assert coeff_bound_test(empty, 1, "sufficient")
    assert coeff_bound_test(empty, 1, "necessary")
    with pytest.raises(ValueError):
        coeff_bound_test(coeffs, 1, "both")


def test_member_linear_examples(square, linear, chain232):
    assert member_linear(496, square, 2)  # 16 | 496
    assert member_linear(8, linear, 2)  # 4 | 8
    assert not member_linear(5, square, 1)
    assert member_linear(17, square, 0)  # b_0 = 1 divides everything
    # terms that are no power of two: b_2 = 6, b_3 = 12
    assert member_linear(-18, chain232, 2) and member_linear(2**70 * 3, chain232, 3)
    assert not member_linear(8, chain232, 2) and not member_linear(6, chain232, 3)


def test_strictness_witness(square):
    """Membership without the sufficient digit condition: the one-sided
    tests are not a characterization."""
    assert member_direct(128, square, 1)
    assert not coeff_bound_test(decompose(128, square), 1, "sufficient")


def index_of_b_t(k, text):
    """T, the index of the first term >= 2|k|, from a fresh chain."""
    pivots, n = make_pivots(text), 0
    while pivots.term(n) < 2 * abs(k):
        n += 1
    return n


@pytest.mark.parametrize("k", [1, -1000, 10**6 + 1])
@pytest.mark.parametrize("text", ["linear", "factorial"])
@pytest.mark.parametrize("route", [member_direct, member_partial_sums], ids=lambda f: f.__name__)
def test_a_uniform_route_builds_the_same_chain_at_every_level(route, text, k):
    # b_T, the first term >= 2|k|, decides k at every level: neither m = 1
    # nor m = 2^40 builds a term past it
    lengths = []
    for m in (1, 2**40):
        pivots = make_pivots(text)
        route(k, pivots, m)
        lengths.append(len(pivots.terms_until(1)))
    assert lengths == [index_of_b_t(k, text) + 1] * 2


def test_a_huge_level_builds_the_chain_only_to_b_T():
    # k = 3 over b_n = 2^n: b_3 = 8 decides every level, so a query at
    # m = 2^60000 builds b_0..b_3, not b_0..b_60004, the terms up to 4m|k|
    m = 2**60000
    pivots = make_pivots("linear")
    coeffs = decompose(3, pivots)
    assert not member_direct(3, pivots, m) and not member_partial_sums(3, pivots, m)
    assert not coeff_bound_test(coeffs, m, "sufficient")
    assert not coeff_bound_test(coeffs, m, "necessary")
    assert route_violations(pivots, 3, [1, m]) == ([], [])
    assert list(iter_members(NeighborhoodSpec(pivots, Uniform(m)), 3)) == [0]
    witnesses = falsify_uniform(make_sequence("custom", fn=lambda j: 3), pivots, m, 2)
    assert [(w.j, w.n) for w in witnesses] == [(1, 1), (2, 1)]
    assert pivots.terms_until(1) == [1, 2, 4, 8]


@given(st.integers(min_value=-(10**5), max_value=10**5), levels, pivot_families)
def test_routes_agree(k, m, pivots):
    assert member_direct(k, pivots, m) == member_partial_sums(k, pivots, m)


@given(st.integers(min_value=-(10**5), max_value=10**5), levels, pivot_families)
def test_implication_chain(k, m, pivots):
    coeffs = decompose(k, pivots)
    is_member = member_direct(k, pivots, m)
    if coeff_bound_test(coeffs, m, "sufficient"):
        assert is_member
    if is_member:
        assert coeff_bound_test(coeffs, m, "necessary")


@given(st.integers(min_value=-(10**5), max_value=10**5), levels, pivot_families)
def test_membership_symmetry_and_zero(k, m, pivots):
    assert member_direct(k, pivots, m) == member_direct(-k, pivots, m)
    assert member_direct(0, pivots, m)


@given(st.integers(min_value=-(10**5), max_value=10**5), levels, st.integers(min_value=1, max_value=3), pivot_families)
def test_membership_monotone_in_level(k, m, factor, pivots):
    if member_direct(k, pivots, m * factor):
        assert member_direct(k, pivots, m)


@given(st.integers(min_value=-(10**5), max_value=10**5), st.integers(min_value=0, max_value=6), pivot_families)
def test_linear_membership_monotone_in_index(k, n, pivots):
    if member_linear(k, pivots, n):
        for smaller in range(n):
            assert member_linear(k, pivots, smaller)


def test_spec_dispatch_and_member_iteration(square):
    uniform = NeighborhoodSpec(square, Uniform(1))
    lin = NeighborhoodSpec(square, Linear(2))
    assert member(128, uniform) and member(128, lin)
    members = list(iter_members(lin, 40))
    assert members == [0, 16, -16, 32, -32]
    top = list(iter_members(uniform, 20))
    assert top[0] == 0
    assert all(member_direct(k, square, 1) for k in top)
    assert 1 not in top


@pytest.mark.parametrize("n", [-1, True, False, 2.0, 1.5, "2"])
def test_linear_index_must_be_an_int(square, n):
    message = re.escape(f"linear neighbourhood index must be an integer >= 0, got {n!r}")
    with pytest.raises(ValueError, match=message):
        Linear(n)
    with pytest.raises(ValueError, match=message):
        member_linear(8, square, n)


@pytest.mark.parametrize("k", [True, False, 2.5, Fraction(4), "4"], ids=repr)
@pytest.mark.parametrize("route", [member_direct, member_partial_sums, member_linear], ids=lambda f: f.__name__)
def test_membership_refuses_a_k_that_is_not_an_int(square, route, k):
    # True would answer as 1, and 2.5 would fail inside a kernel
    with pytest.raises(ValueError, match=f"^{re.escape(f'k must be an integer, got {k!r}')}$"):
        route(k, square, 1)


def test_a_spec_refuses_what_is_not_a_chain_or_a_family(square):
    with pytest.raises(ValueError, match=r"^neighbourhood family must be Uniform or Linear, got 3$"):
        NeighborhoodSpec(square, 3)
    with pytest.raises(ValueError, match=r"^neighbourhood pivots must be a PivotSequence, got 'square'$"):
        NeighborhoodSpec("square", Uniform(1))


@pytest.mark.parametrize("window", [-1, True, False, 10.0, 10.5, "10"])
@pytest.mark.parametrize("family", [Uniform(1), Linear(1)])
def test_iter_members_window_must_be_an_int(square, family, window):
    with pytest.raises(ValueError, match=re.escape(f"window must be an integer >= 0, got {window!r}")):
        list(iter_members(NeighborhoodSpec(square, family), window))


def test_discreteness_halving():
    xs = [Fraction(1, 2**n) for n in range(1, 13)]
    w = discreteness_witness(xs, ratio_bound=2, brute_window=100)
    assert (w.multiplier, w.level) == (1, 2)
    assert w.verified and w.survivors == (0,)
    # independent brute-force oracle over the same window
    for k in range(-100, 101):
        excluded = any(not in_arc(canonicalize(k * x), w.level) for x in xs)
        assert excluded == (k != 0)


def test_discreteness_thirds():
    xs = [Fraction(1, 3**n) for n in range(1, 10)]
    w = discreteness_witness(xs, ratio_bound=3, brute_window=100)
    assert (w.multiplier, w.level) == (1, 3)
    assert w.verified and w.survivors == (0,)


def test_discreteness_zero_always_survives():
    xs = [Fraction(1, 2), Fraction(1, 4)]
    w = discreteness_witness(xs, ratio_bound=2, brute_window=10)
    assert 0 in w.survivors  # short prefix may leave other survivors


def test_discreteness_precondition_violations():
    with pytest.raises(ValueError, match=r"^ratio x_1/x_2 = 4 exceeds bound 2$"):
        discreteness_witness([Fraction(1, 2), Fraction(1, 8)], ratio_bound=2, brute_window=10)
    with pytest.raises(ValueError, match=r"^ratio x_2/x_3 = 7/2 exceeds bound 3$"):
        discreteness_witness([Fraction(1, 3), Fraction(1, 6), Fraction(1, 21)], 3, 10)
    with pytest.raises(ValueError, match=r"^x_1 = 3/4 outside \(0, 1/2\]$"):
        discreteness_witness([Fraction(3, 4)], ratio_bound=2, brute_window=10)
    with pytest.raises(ValueError, match=r"^x_2 = 0 outside \(0, 1/2\]$"):
        discreteness_witness([Fraction(1, 2), 0], ratio_bound=2, brute_window=10)
    with pytest.raises(ValueError, match=r"^x_1 = -1/4 outside \(0, 1/2\]$"):
        discreteness_witness([Fraction(-1, 4)], ratio_bound=2, brute_window=10)
    with pytest.raises(ValueError, match=r"^sequence not strictly decreasing at index 1$"):
        discreteness_witness([Fraction(1, 4), Fraction(1, 2)], ratio_bound=2, brute_window=10)
    with pytest.raises(ValueError, match=r"^sequence not strictly decreasing at index 2$"):
        discreteness_witness([Fraction(1, 2), Fraction(1, 4), Fraction(2, 8)], 2, 10)
    with pytest.raises(ValueError, match=r"^need a nonempty sequence prefix$"):
        discreteness_witness([], ratio_bound=2, brute_window=10)
    halving = [Fraction(1, 2), Fraction(1, 4)]
    for ratio_bound in (2.9, 2.0, True, 0):
        with pytest.raises(ValueError):
            discreteness_witness(halving, ratio_bound=ratio_bound, brute_window=10)
    for brute_window in (1 / 2, 2.0, True, 0, -3):
        with pytest.raises(ValueError, match="brute-force window"):
            discreteness_witness(halving, ratio_bound=2, brute_window=brute_window)


def test_discreteness_refuses_floats():
    with pytest.raises(ValueError, match=r"^x_1 = 0\.5 is not an int, a Fraction or 'p/q' text$"):
        discreteness_witness([0.5, 0.25], ratio_bound=2, brute_window=10)
    with pytest.raises(ValueError, match=r"^x_2 = 0\.25 is not an int"):
        discreteness_witness([Fraction(1, 2), 0.25], ratio_bound=2, brute_window=10)
    with pytest.raises(ValueError, match="decimal literals are not exact"):
        discreteness_witness(["1/2", "0.25"], ratio_bound=2, brute_window=10)


def test_discreteness_preconditions_accept_their_boundaries():
    # x_1 = 1/2 exactly, and successive ratios exactly equal to the bound
    w = discreteness_witness([Fraction(1, 2), Fraction(1, 6), Fraction(1, 18)], 3, 20)
    assert (w.multiplier, w.level) == (1, 3)
    w = discreteness_witness([Fraction(1, 2)], ratio_bound=1, brute_window=5)
    assert (w.multiplier, w.level) == (1, 1)
    # the pairs need not be reduced, and ints and "p/q" text are accepted
    w = discreteness_witness(["1/3", Fraction(2, 12), "1/12"], 2, 30)
    assert (w.multiplier, w.level) == (1, 2)
    # the multiplier is minimal with 4 l x_1 > 1, also when 4 x_1 divides 1
    assert discreteness_witness([Fraction(1, 4)], 1, 5).multiplier == 2
    assert discreteness_witness([Fraction(2, 9)], 1, 5).multiplier == 2
    assert discreteness_witness([Fraction(1, 12)], 1, 5).multiplier == 4
