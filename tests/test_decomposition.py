import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ztop.decomposition import (
    coefficients_from_digits,
    decompose,
    nearest_int,
    recompose_and_check,
    round_trip_failures,
)
from ztop.pivots import make_pivots

FAMILY_TEXTS = ["linear", "square", "factorial", "chain:2,3"]
_pivot_cache = {text: make_pivots(text) for text in FAMILY_TEXTS + ["pow2"]}
pivot_families = st.sampled_from(FAMILY_TEXTS).map(_pivot_cache.get)


def test_nearest_int_examples():
    assert nearest_int(Fraction(1, 2)) == 0  # tie toward zero
    assert nearest_int(Fraction(-1, 2)) == 0
    assert nearest_int(Fraction(-3, 4)) == -1
    assert nearest_int(Fraction(5, 8)) == 1
    assert nearest_int(Fraction(3, 2)) == 1  # tie between 1 and 2
    assert nearest_int(Fraction(-3, 2)) == -1
    assert nearest_int(7) == 7


def test_nearest_int_refuses_floats():
    for q in (2.5, -0.5, 7.0):
        with pytest.raises(ValueError, match=re.escape(f"value {q!r} is not an int")):
            nearest_int(q)
    assert nearest_int("5/2") == 2 and nearest_int("-7/4") == -2


@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6))
def test_nearest_int_oddness(q):
    assert nearest_int(-q) == -nearest_int(q)
    assert abs(nearest_int(q)) == nearest_int(abs(q))
    assert abs(q - nearest_int(q)) <= Fraction(1, 2)
    # the definition: the nearer of floor and ceil, a tie toward zero
    lo, hi = math.floor(q), math.ceil(q)
    if q - lo != hi - q:
        expected = lo if q - lo < hi - q else hi
    else:
        expected = lo if lo >= 0 else hi
    assert nearest_int(q) == expected


def test_decompose_examples(square, linear):
    empty = decompose(0, square)
    assert empty.coeffs == () and empty.top_index is None
    assert recompose_and_check(empty).ok

    c128 = decompose(128, square)
    assert c128.coeffs == (0, 0, 8)  # 128 = 0*1 + 0*2 + 8*16
    assert c128.top_index == 3  # minimal index with b_N >= 128 (k_3 = 0 trimmed)

    c5 = decompose(5, linear)
    assert c5.coeffs == (1, 0, -1, 1)  # 5 = 1 - 4 + 8
    assert c5.text() == "1,0,-1,1"


def test_recompose_and_check_examples(square, linear):
    check = recompose_and_check(decompose(128, square))
    assert check == (128, True, True, True)

    check = recompose_and_check(decompose(5, linear))
    assert check.value == 5 and check.ok

    hand = coefficients_from_digits([2], linear)
    check = recompose_and_check(hand)
    assert check.value == 2
    assert check.sum_ok
    assert not check.digit_bounds_ok  # |2| > b_1 / (2 b_0) = 1

    lying = coefficients_from_digits([1], linear, source=3)
    assert not recompose_and_check(lying).sum_ok


@pytest.mark.parametrize(
    "digits, source, bad",
    [([1], 1.9, "source must be an integer, got 1.9"),
     ([1], Fraction(1), "source must be an integer, got Fraction(1, 1)"),
     ([1], True, "source must be an integer, got True"),
     ([1.5, True], None, "digit must be an integer, got 1.5"),
     ([1, True], None, "digit must be an integer, got True"),
     ([Fraction(3, 2)], 1, "digit must be an integer, got Fraction(3, 2)")],
    ids=["float-source", "Fraction-source", "bool-source", "float-digit", "bool-digit",
         "Fraction-digit"],
)
def test_hand_built_digits_refuse_what_is_not_an_int(linear, digits, source, bad):
    # int() would truncate 1.9 to a source that the digit 1 recomposes to
    with pytest.raises(ValueError, match=f"^{re.escape(bad)}$"):
        coefficients_from_digits(digits, linear, source=source)


@pytest.mark.parametrize("l", [True, False, 2.5, Fraction(4)], ids=repr)
def test_decompose_refuses_an_l_that_is_not_an_int(square, l):
    # True would give source=True, coeffs=(True,), and 2.5 would fail inside a kernel
    with pytest.raises(ValueError, match=f"^{re.escape(f'l must be an integer, got {l!r}')}$"):
        decompose(l, square)


def test_trailing_zeros_equivalent(square):
    trimmed = recompose_and_check(decompose(128, square))
    padded = recompose_and_check(coefficients_from_digits([0, 0, 8, 0], square, source=128))
    assert (trimmed.value, trimmed.digit_bounds_ok, trimmed.partial_sum_bounds_ok) == (
        padded.value,
        padded.digit_bounds_ok,
        padded.partial_sum_bounds_ok,
    )


@given(st.integers(min_value=-(10**6), max_value=10**6), pivot_families)
def test_round_trip_and_bounds(l, pivots):
    coeffs = decompose(l, pivots)
    check = recompose_and_check(coeffs)
    assert check.value == l
    assert check.ok


@given(st.integers(min_value=-(10**6), max_value=10**6), pivot_families)
def test_digits_are_odd_in_l(l, pivots):
    assert decompose(-l, pivots).coeffs == tuple(-k for k in decompose(l, pivots).coeffs)


@given(st.integers(min_value=-(10**6), max_value=10**6), pivot_families)
def test_half_bound_on_scaled_partial_sums(l, pivots):
    """|sum_{s<n} k_s b_s| / b_n <= 1/2 for every n up to one past the top digit."""
    digits = decompose(l, pivots).coeffs
    partial = 0
    for n in range(len(digits) + 1):
        if n:
            partial += digits[n - 1] * pivots.term(n - 1)
        assert 2 * abs(partial) <= pivots.term(n)


@given(st.integers(min_value=-(10**6), max_value=10**6), st.sampled_from(["square", "pow2"]))
def test_two_thirds_bound_above_unit_digit(l, text):
    """With exponent gaps >= 2 from index 1 on, the digits above index 0
    recompose to at most 2/3 of the next chain term."""
    pivots = _pivot_cache[text]
    digits = decompose(l, pivots).coeffs
    total = sum(k * pivots.term(n) for n, k in enumerate(digits) if n >= 1)
    assert 3 * abs(total) <= 2 * pivots.term(len(digits))


def test_top_index_minimal(square):
    for l in [1, 2, 3, 15, 16, 17, 511, 512, 513]:
        top = decompose(l, square).top_index
        assert square.term(top) >= l
        assert top == 0 or square.term(top - 1) < l


@pytest.mark.parametrize("text", FAMILY_TEXTS)
def test_top_index_matches_linear_scan(text):
    pivots = _pivot_cache[text]
    assert decompose(0, pivots).top_index is None
    for l in range(-2000, 2001):
        if l:
            n = 0
            while pivots.term(n) < abs(l):
                n += 1
            assert decompose(l, pivots).top_index == n


def test_budget_error_propagates():
    tiny = make_pivots("square", bit_budget=40)
    with pytest.raises(Exception):
        decompose(2**50, tiny)


@pytest.mark.parametrize(
    "text, limit, memo",
    [("square", 3, [1, 2, 16]), ("factorial", 5, [1, 2, 4, 64])],
)
def test_round_trip_sweep_builds_the_chain_only_to_b_T(text, limit, memo):
    # the digits of every |l| <= limit read b_T, the first term >= 2 * limit,
    # last; the chain stops there (square: not 512, factorial: not 2^24)
    pivots = make_pivots(text)
    assert round_trip_failures(pivots, limit) == []
    assert pivots.terms_until(1) == memo

