import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ztop.torus import (
    TorusPoint,
    add,
    canonicalize,
    check_int,
    check_level,
    check_nonnegative_int,
    check_positive_int,
    in_arc,
    int_scale,
    parse_rational,
    rat_str,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)


def F(s):
    return Fraction(s)


def test_canonicalize_examples():
    assert canonicalize(F("5/4")).rep == F("1/4")
    # half-open range: 1/2 is represented as -1/2
    assert canonicalize(F("1/2")).rep == F("-1/2")
    assert canonicalize(F("-31/16")).rep == F("1/16")  # -31/16 + 2 = 1/16
    assert canonicalize(3).rep == 0
    assert canonicalize("7/3").rep == F("1/3")


def test_canonical_range_is_half_open():
    assert canonicalize(F("-1/2")).rep == F("-1/2")
    assert canonicalize(F("3/2")).rep == F("-1/2")
    with pytest.raises(ValueError):
        TorusPoint(F("1/2"))
    with pytest.raises(ValueError):
        TorusPoint(F("-3/4"))
    # a float, a string or a bool is no exact representative, even in range
    for rep in (0.25, "1/4", False):
        with pytest.raises(ValueError, match=f"representative {rep!r} is not an int or a Fraction"):
            TorusPoint(rep)
    assert TorusPoint(0).rep == 0
    # the range test is exact at both ends with 10^4-bit denominators: q odd,
    # so the ends +-1/2 lie between (q - 1) / 2q and (q + 1) / 2q
    q = 3**6310
    assert q.bit_length() > 10**4
    assert TorusPoint(Fraction(-1, 2)).rep == Fraction(-1, 2)
    assert TorusPoint(Fraction(2**9999, -(2**10000))).rep.denominator == 2
    for p in (-(q - 1) // 2, (q - 1) // 2):
        assert TorusPoint(Fraction(p, q)).rep.denominator == q
    for p in (-(q + 1) // 2, (q + 1) // 2):
        with pytest.raises(ValueError, match="outside"):
            TorusPoint(Fraction(p, q))


def test_canonicalize_refuses_floats():
    # a float's exact value is seldom the number meant: 0.1 is
    # 3602879701896397/36028797018963968, so floats are refused by name
    for value in (0.1, 0.25, 2.0, Decimal("0.25"), True):
        with pytest.raises(ValueError, match=re.escape(f"circle value {value!r} is not an int")):
            canonicalize(value)
    assert canonicalize(Fraction(1, 10)).rep == Fraction(1, 10)
    assert canonicalize("-9/4").rep == Fraction(-1, 4)
    assert canonicalize(-7).rep == 0


def test_add_examples():
    quarter = canonicalize(F("1/4"))
    assert add(quarter, quarter).rep == F("-1/2")
    assert add(canonicalize(F("1/3")), canonicalize(F("-1/3"))).rep == 0
    assert add(canonicalize(F("2/5")), canonicalize(F("1/5"))).rep == F("-2/5")


def test_int_scale_examples():
    assert int_scale(128, canonicalize(F("1/512"))).rep == F("1/4")
    assert int_scale(0, canonicalize(F("3/7"))).rep == 0
    assert int_scale(2, canonicalize(F("-1/2"))).rep == 0


def test_in_arc_examples():
    assert in_arc(canonicalize(F("1/4")), 1)  # closed endpoint
    assert not in_arc(canonicalize(F("1/4")), 2)
    assert not in_arc(canonicalize(F("8/31")), 1)  # 8/31 > 1/4
    assert in_arc(canonicalize(F("-1/8")), 2)  # closed endpoint, negative side
    with pytest.raises(ValueError):
        in_arc(canonicalize(0), 0)


@pytest.mark.parametrize("level", [0, -1, True, False, 1.0, 2.5, "1"])
def test_check_level_rejects_non_levels(level):
    with pytest.raises(ValueError):
        check_level(level)


@pytest.mark.parametrize("value", [-1, True, False, 0.0, 2.0, 2.5, "1", None])
def test_check_nonnegative_int_rejects_non_indices(value):
    with pytest.raises(ValueError, match=re.escape(f"index must be an integer >= 0, got {value!r}")):
        check_nonnegative_int(value, "index")


NOT_INTS = [True, False, 2.9, 3.0, Fraction(7, 2), Fraction(3), Decimal(3), "3", None]


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
def test_integer_checks_refuse_what_is_not_an_int(value):
    # refused, bools included, never truncated to a neighbouring integer
    with pytest.raises(ValueError, match=re.escape(f"term must be an integer, got {value!r}")):
        check_int(value, "term")
    with pytest.raises(ValueError, match=re.escape(f"term must be a positive integer, got {value!r}")):
        check_positive_int(value, "term")
    with pytest.raises(ValueError, match=re.escape(f"term must be an integer >= 0, got {value!r}")):
        check_nonnegative_int(value, "term")


@given(rationals)
def test_canonicalize_idempotent(q):
    once = canonicalize(q)
    assert canonicalize(once.rep) == once


@given(rationals, rationals)
def test_add_commutative(a, b):
    assert add(canonicalize(a), canonicalize(b)) == add(canonicalize(b), canonicalize(a))


@given(rationals, rationals, rationals)
def test_add_associative(a, b, c):
    x, y, z = canonicalize(a), canonicalize(b), canonicalize(c)
    assert add(add(x, y), z) == add(x, add(y, z))


@given(st.integers(min_value=-50, max_value=50), rationals)
def test_int_scale_matches_iterated_add(k, q):
    x = canonicalize(q)
    step = x if k >= 0 else int_scale(-1, x)
    acc = canonicalize(0)
    for _ in range(abs(k)):
        acc = add(acc, step)
    assert int_scale(k, x) == acc


@given(rationals, st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=4))
def test_arc_nesting(q, m, bump):
    x = canonicalize(q)
    if in_arc(x, m + bump):
        assert in_arc(x, m)


@given(rationals, st.integers(min_value=1, max_value=12))
def test_arc_symmetry(q, m):
    x = canonicalize(q)
    assert in_arc(x, m) == in_arc(int_scale(-1, x), m)


def test_rational_text_forms():
    assert rat_str(F("-2/5")) == "-2/5"
    assert rat_str(F(0)) == "0/1"
    assert parse_rational(" 3/9 ") == F("1/3")
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError, match=r"^not a rational p/q: 'abc'$"):
        parse_rational("abc")
