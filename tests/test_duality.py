import inspect
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ztop.duality import (
    CERT_BUDGET,
    CERT_DIVISOR,
    CERT_PRIME_SUPPORT,
    char_eval,
    character,
    continuity_window_check,
    generated_member,
    kernel_check,
)
from ztop.neighborhoods import Linear, NeighborhoodSpec, Uniform
from ztop.pivots import BitBudgetExceeded, make_pivots
from ztop.torus import add, canonicalize

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=500)


def test_char_eval_examples(square):
    assert char_eval(character("1/2"), 2).rep == 0
    assert char_eval(character("3/16"), 5).rep == Fraction(-1, 16)  # 15/16 wraps
    for k in (1, 3, -7):
        chi = character(Fraction(k, square.term(3)))
        assert char_eval(chi, square.term(3)).rep == 0  # kernel identity


def test_character_refuses_floats():
    for value in (0.25, 1e-3):
        with pytest.raises(ValueError, match=re.escape(f"circle value {value!r} is not an int")):
            character(value)
    for value in (Fraction(1, 4), "1/4", "5/4", canonicalize(Fraction(1, 4))):
        assert character(value).value.rep == Fraction(1, 4)
    assert character(3).value.rep == 0


@given(rationals, st.integers(-200, 200), st.integers(-200, 200))
def test_char_eval_homomorphism(value, x, y):
    chi = character(value)
    assert char_eval(chi, x + y) == add(char_eval(chi, x), char_eval(chi, y))


def test_kernel_check_examples(square):
    report = kernel_check(character("3/16"), square)
    assert report.continuous_for_linear and report.witness_index == 2
    assert report.certificate == CERT_DIVISOR

    report = kernel_check(character("1/3"), square)
    assert not report.continuous_for_linear
    assert report.certificate == CERT_PRIME_SUPPORT  # 3 divides no power of 2

    report = kernel_check(character("0/1"), square)
    assert report.continuous_for_linear and report.witness_index == 0


def test_kernel_check_periodic_chain(chain23):
    report = kernel_check(character(Fraction(1, 12)), chain23)
    assert report.continuous_for_linear
    assert chain23.term(report.witness_index) % 12 == 0
    report = kernel_check(character(Fraction(1, 35)), chain23)
    assert not report.continuous_for_linear
    assert report.certificate == CERT_PRIME_SUPPORT


def test_kernel_check_budget_inconclusive():
    # 2^100 lies in the support, but b_100 = 2^100 is past a 64-bit budget:
    # only the budget can stop the scan
    short = make_pivots("linear", bit_budget=64)
    report = kernel_check(character(Fraction(1, 2**100)), short)
    assert not report.continuous_for_linear
    assert report.certificate == CERT_BUDGET


@pytest.mark.parametrize("descriptor, q", [("linear", 2**600), ("chain:2,3", 6**300)],
                         ids=["linear", "chain:2,3"])
def test_kernel_search_runs_past_512_terms_where_the_support_is_known(descriptor, q):
    # b_600 is 2^600 and 6^300, of 601 and 776 bits: far inside the bit budget
    chi = character(Fraction(1, q))
    pivots = make_pivots(descriptor)
    assert kernel_check(chi, pivots) == (True, 600, CERT_DIVISOR)
    assert generated_member(chi.value, pivots)


def reference_kernel(q, pivots):
    """kernel_check's verdict for 1/q, found independently: the primes of q
    by trial division against the cycle product, then the least n with q | b_n
    by plain remainders."""
    cycle, r, p = pivots.cycle_product(), q, 2
    while p * p <= r:
        if r % p == 0:
            if cycle % p:
                return (False, None, CERT_PRIME_SUPPORT)
            while r % p == 0:
                r //= p
        p += 1
    if r > 1 and cycle % r:
        return (False, None, CERT_PRIME_SUPPORT)
    n = 0
    while pivots.term(n) % q:
        n += 1
    return (True, n, CERT_DIVISOR)


@pytest.mark.parametrize("descriptor", ["linear", "pow2", "poly:1,1", "chain:5", "chain:3,2", "chain:4,6,5"])
def test_kernel_check_agrees_with_trial_division(descriptor):
    pivots = make_pivots(descriptor)
    for q in range(1, 2001):
        assert kernel_check(character(Fraction(1, q)), pivots) == reference_kernel(q, pivots), q


def test_a_huge_denominator_outside_the_support_is_refused_at_once():
    # 7 is outside the support {2, 3}; the search builds no term to say so
    pivots = make_pivots("chain:2,3")
    chi = character(Fraction(1, 7 * 3**63000))
    assert kernel_check(chi, pivots) == (False, None, CERT_PRIME_SUPPORT)
    assert pivots.terms_until(1) == [1]


def test_generated_member_names_the_denominator_it_could_not_place():
    short = make_pivots("linear", bit_budget=64)
    message = f"no chain term divisible by {2**100} within budget"
    with pytest.raises(BitBudgetExceeded, match=f"^{re.escape(message)}$"):
        generated_member(canonicalize(Fraction(1, 2**100)), short)


def test_generated_member_examples(square):
    assert generated_member(canonicalize(Fraction(1, 8)), square)  # 1/8 = 64/512
    assert not generated_member(canonicalize(Fraction(1, 3)), square)
    assert generated_member(canonicalize(0), square)
    short = make_pivots("linear", bit_budget=64)
    with pytest.raises(BitBudgetExceeded):
        generated_member(canonicalize(Fraction(1, 2**100)), short)


def test_generated_member_agrees_with_kernel_check(square, chain23):
    for pivots in (square, chain23):
        for q in range(1, 200):
            chi = character(Fraction(1, q))
            assert generated_member(chi.value, pivots) == kernel_check(chi, pivots).continuous_for_linear


def test_continuity_window_examples(square, linear):
    check = continuity_window_check(character("1/2"), NeighborhoodSpec(square, Uniform(1)), 10**4)
    assert check.ok  # members at level 1 are all even here

    check = continuity_window_check(character("1/3"), NeighborhoodSpec(linear, Linear(5)), 10**3)
    assert not check.ok
    assert check.failing_k == 32  # 32/3 wraps to -1/3, outside the quarter arc

    check = continuity_window_check(character("0/1"), NeighborhoodSpec(square, Uniform(4)), 100)
    assert check.ok


@pytest.mark.parametrize("window", [-1, True, 10.0, 10.5])
@pytest.mark.parametrize("family", [Uniform(1), Linear(1)])
def test_continuity_window_check_window_must_be_an_int(square, family, window):
    with pytest.raises(ValueError, match=re.escape(f"window must be an integer >= 0, got {window!r}")):
        continuity_window_check(character("1/3"), NeighborhoodSpec(square, family), window)


def test_scan_limit_is_a_constant():
    assert list(inspect.signature(kernel_check).parameters) == ["chi", "pivots"]
    assert list(inspect.signature(generated_member).parameters) == ["x", "pivots"]


def test_kernel_implies_window_for_linear(square):
    for q in (2, 16, 512):
        chi = character(Fraction(1, q))
        report = kernel_check(chi, square)
        assert report.continuous_for_linear
        spec = NeighborhoodSpec(square, Linear(report.witness_index))
        assert continuity_window_check(chi, spec, 10**4).ok


def test_dual_containment_shadow(square):
    """Characters continuous for the linear topology stay inside the quarter
    arc on uniform members at level b_n: the finite shadow of the dual
    containment."""
    for p, q in [(1, 2), (3, 16), (1, 16), (5, 512), (-3, 512)]:
        chi = character(Fraction(p, q))
        report = kernel_check(chi, square)
        assert report.continuous_for_linear
        m = square.term(report.witness_index)
        spec = NeighborhoodSpec(square, Uniform(m))
        assert continuity_window_check(chi, spec, 10**4).ok
