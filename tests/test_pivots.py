import re
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ztop.pivots import (
    BitBudgetExceeded,
    MultiplierChain,
    PivotSequence,
    TwoPowerExponent,
    make_pivots,
    parse_descriptor,
    resolve_bit_budget,
)


def test_make_pivots_examples(square, linear, chain232):
    assert square.terms(5) == [1, 2, 16, 512, 65536]
    assert linear.terms(4) == [1, 2, 4, 8]
    assert chain232.terms(4) == [1, 2, 6, 12]
    # the multiplier list repeats periodically
    assert chain232.terms(7) == [1, 2, 6, 12, 24, 72, 144]


def test_clamped_exponent_forms():
    pow2 = make_pivots("pow2")
    assert pow2.terms(4) == [1, 4, 16, 256]  # exponents 0, 2, 4, 8
    fact = make_pivots("factorial")
    assert fact.terms(5) == [1, 2, 4, 64, 2**24]  # exponents 0, 1, 2, 6, 24


def test_term_examples(square, chain232):
    assert square.term(3) == 512  # independently: 2 ** (3 * 3)
    assert square.term(0) == 1
    assert chain232.term(2) == 6
    with pytest.raises(ValueError):
        square.term(-1)


@pytest.mark.parametrize("index", [True, False, 2.0, -1, "2"])
def test_term_refuses_what_is_not_an_index(square, index):
    # True would read b_1 off the memo, and 2.0 fail with an unnamed TypeError
    with pytest.raises(ValueError, match=rf"^term index must be an integer >= 0, got {re.escape(repr(index))}$"):
        square.term(index)


@pytest.mark.parametrize("count", [True, 2.0, 0, -1, "2"])
def test_terms_refuses_what_is_not_a_count(square, count):
    # True would return [b_0], and 2.0 blame the index 1.0 it was turned into
    with pytest.raises(ValueError, match=rf"^term count must be a positive integer, got {re.escape(repr(count))}$"):
        square.terms(count)


def test_polynomial_exponents():
    cubic = make_pivots("poly:3,0,1")  # a_n = 3n + n^3
    assert cubic.term(0) == 1
    assert cubic.terms(4) == [1, 2**4, 2**14, 2**36]
    assert cubic.term(2) == 2**14
    with pytest.raises(ValueError):
        make_pivots("poly:-1")  # decreasing exponents
    with pytest.raises(ValueError):
        make_pivots("poly:")


@pytest.mark.parametrize("text", ["poly:3,0,1", "poly:1,1", "poly:2,1", "poly:3,1"])
def test_horner_exponents_equal_the_closed_form(text):
    descriptor = parse_descriptor(text)
    for n in range(201):
        assert descriptor.exponent(n) == sum(c * n ** (i + 1) for i, c in enumerate(descriptor.coeffs))


def test_descriptor_parsing():
    assert parse_descriptor("square") == TwoPowerExponent("square")
    assert parse_descriptor("chain:2,3,2") == MultiplierChain((2, 3, 2))
    assert parse_descriptor("poly:1,2") == TwoPowerExponent("poly", (1, 2))
    with pytest.raises(ValueError):
        parse_descriptor("fibonacci")
    with pytest.raises(ValueError):
        make_pivots(MultiplierChain((2, 1)))
    with pytest.raises(ValueError):
        make_pivots(MultiplierChain(()))


@pytest.mark.parametrize("text", ["chain:", "poly:", "poly:a", "chain:2,x", "chain:2,,3", "poly:1.5"])
def test_malformed_descriptor_names_itself(text):
    with pytest.raises(ValueError, match=re.escape(f"pivot descriptor {text!r} needs comma-separated integers")):
        parse_descriptor(text)
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        make_pivots(text)


def test_descriptor_text_round_trip():
    for text in ["linear", "square", "factorial", "pow2", "poly:3,0,1", "chain:2,3,2"]:
        assert make_pivots(text).text == text


@pytest.mark.parametrize("text", ["linear", "square", "factorial", "pow2", "chain:2,3,2", "poly:2,1"])
def test_chain_axioms_over_prefix(text):
    seq = make_pivots(text)
    terms = seq.terms(9)
    assert terms[0] == 1
    for n in range(8):
        assert terms[n + 1] % terms[n] == 0
        assert terms[n + 1] // terms[n] >= 2
        assert terms[n + 1] > terms[n]


@pytest.mark.parametrize(
    "text,exponent",
    [
        ("linear", lambda n: n),
        ("square", lambda n: n**2),
        ("pow2", lambda n: 0 if n == 0 else 2**n),
    ],
)
def test_two_power_terms_match_exponents(text, exponent):
    seq = make_pivots(text)
    for n in range(10):
        assert seq.term(n) == 2 ** exponent(n)


def refused_poly(*coeffs):
    text = "poly:" + ",".join(str(c) for c in coeffs)
    message = f"exponent form {text!r} needs integer coefficients >= 0, not all 0"
    return pytest.param(TwoPowerExponent, ("poly", coeffs), message, id=text)


def refused_coefficients(form, *coeffs):
    # the text would name the plain form, and parse back without them
    message = f"exponent form {form!r} takes no coefficients, got {coeffs!r}"
    return pytest.param(TwoPowerExponent, (form, coeffs), message, id=f"{form}{list(coeffs)}")


@pytest.mark.parametrize(
    "kind, args, message",
    [
        pytest.param(MultiplierChain, ((2, 1),), "multipliers must be integers >= 2, got 1", id="chain:2,1"),
        pytest.param(MultiplierChain, ((),), "multiplier chain needs at least one multiplier", id="chain:"),
        # a list would make the descriptor unhashable
        pytest.param(MultiplierChain, ([2, 3],), "multipliers must be a tuple, got [2, 3]", id="chain[2, 3]"),
        pytest.param(TwoPowerExponent, ("poly", [1, 1]), "exponent coefficients must be a tuple, got [1, 1]",
                     id="poly[1, 1]"),
        pytest.param(TwoPowerExponent, ("fibonacci",), "unknown exponent form 'fibonacci'", id="fibonacci"),
        refused_poly(1, -1),
        refused_poly(1.5),
        refused_poly(True),
        # increasing (2n^2 - n), or rising and then falling or flat past n = 8
        refused_poly(-1, 2),
        refused_poly(100, -1),
        refused_poly(98, -2),
        refused_poly(0),
        refused_poly(),
        refused_coefficients("linear", 1, 2),
        refused_coefficients("square", 1),
        refused_coefficients("factorial", 0),
        refused_coefficients("pow2", 2, 3),
    ],
)
def test_a_sequence_refuses_its_descriptor_when_built(kind, args, message):
    # the descriptor refuses itself, so no sequence is ever built on it, and
    # it is not first refused at the term that breaks
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kind(*args)


def test_parsed_text_is_refused_as_its_descriptor_is():
    with pytest.raises(ValueError, match=r"^multipliers must be integers >= 2, got 1$"):
        parse_descriptor("chain:1")
    with pytest.raises(ValueError, match=r"^exponent form 'poly:0,0' needs integer coefficients >= 0, not all 0$"):
        parse_descriptor("poly:0,0")


@pytest.mark.parametrize(
    "descriptor",
    [TwoPowerExponent(form) for form in ("linear", "square", "factorial", "pow2")]
    + [TwoPowerExponent("poly", (1, 1)), TwoPowerExponent("poly", (0, 2)),
       MultiplierChain((2, 3)), MultiplierChain((4, 6, 5))],
    ids=repr,
)
def test_a_built_sequence_text_parses_back_to_its_descriptor(descriptor):
    seq = PivotSequence(descriptor)
    assert parse_descriptor(seq.text) == seq.descriptor


# the plain forms, and poly:/chain: with comma lists of small integers, empty
# items among them
ITEMS = st.lists(st.one_of(st.just(""), st.integers(min_value=-3, max_value=9).map(str)), max_size=5)
DESCRIPTOR_TEXT = st.one_of(
    st.sampled_from(["linear", "square", "factorial", "pow2"]),
    st.builds(lambda kind, items: f"{kind}:" + ",".join(items), st.sampled_from(["poly", "chain"]), ITEMS),
)


@given(DESCRIPTOR_TEXT)
def test_descriptor_text_builds_a_chain_or_is_refused(text):
    try:
        descriptor = parse_descriptor(text)
    except ValueError:
        return
    hash(descriptor)
    seq = PivotSequence(descriptor)
    assert parse_descriptor(seq.text) == descriptor
    terms = seq.terms(4)
    assert terms[0] == 1
    assert all(b > a and b % a == 0 for a, b in zip(terms, terms[1:]))


def test_a_sequence_refuses_what_is_not_a_descriptor():
    with pytest.raises(TypeError, match=r"^not a pivot descriptor: 'linear'$"):
        PivotSequence("linear")


def test_cycle_product_is_the_prime_support():
    assert make_pivots("square").cycle_product() == 2
    assert make_pivots("chain:2,3,2").cycle_product() == 12


def test_bit_budget_guard():
    seq = make_pivots("square", bit_budget=100)
    assert seq.term(9) == 2**81
    with pytest.raises(BitBudgetExceeded):
        seq.term(10)  # needs 101 bits
    # determinism: the failure repeats and earlier terms stay intact
    with pytest.raises(BitBudgetExceeded):
        seq.term(10)
    assert seq.term(9) == 2**81

    chain = make_pivots(MultiplierChain((2,)), bit_budget=8)
    assert chain.term(7) == 128
    with pytest.raises(BitBudgetExceeded):
        chain.term(8)


def test_bit_budget_env_override(monkeypatch):
    monkeypatch.setenv("ZTOP_BIT_BUDGET", "50")
    seq = make_pivots("square")
    assert seq.bit_budget == 50
    with pytest.raises(BitBudgetExceeded):
        seq.term(8)  # 65 bits


@pytest.mark.parametrize("budget", ["abc", "1.5", "0", "-3", ""])
def test_bit_budget_env_must_be_a_positive_integer(monkeypatch, budget):
    monkeypatch.setenv("ZTOP_BIT_BUDGET", budget)
    with pytest.raises(ValueError, match=f"ZTOP_BIT_BUDGET must be an integer >= 1, got {budget!r}"):
        resolve_bit_budget()
    with pytest.raises(ValueError, match="ZTOP_BIT_BUDGET"):
        make_pivots("square")
    assert resolve_bit_budget(64) == 64  # an explicit budget does not read the variable


@pytest.mark.parametrize("budget", [2.9, True, 0, -5])
def test_explicit_bit_budget_must_be_a_positive_int(budget):
    # refused by name rather than truncated (2.9 -> 2, True -> 1) or taken
    # as a budget that then refuses every term (0, -5)
    message = f"bit budget must be a positive integer, got {budget!r}"
    with pytest.raises(ValueError, match=message):
        resolve_bit_budget(budget)
    with pytest.raises(ValueError, match=message):
        make_pivots("square", bit_budget=budget)


def test_terms_until_covers_bound(square):
    terms = square.terms_until(1000)
    assert terms[-1] >= 1000
    assert square.terms_until(1)[0] == 1


def test_terms_until_small_bounds():
    seq = make_pivots("square")
    for bound in (-5, 0, 1):
        assert seq.terms_until(bound) == [1]


def test_terms_until_grows_only_as_needed():
    seq = make_pivots("square")
    assert seq.terms_until(16) == [1, 2, 16]  # a bound equal to a term needs no more
    assert seq.terms_until(17) == [1, 2, 16, 512]  # a bound past the memo grows it
    assert seq.terms_until(2**9) is seq.terms_until(1)  # the live memo, not a copy


def test_terms_until_budget_refusal_keeps_memo_consistent():
    seq = make_pivots("square", bit_budget=100)
    with pytest.raises(BitBudgetExceeded):
        seq.terms_until(2**81 + 1)  # needs b_10 = 2^100, 101 bits
    assert seq.terms_until(1) == [2 ** (n * n) for n in range(10)]
    assert [seq.term(n) for n in range(10)] == [2 ** (n * n) for n in range(10)]
    assert seq.terms_until(2**50) == [2 ** (n * n) for n in range(10)]

    chain = make_pivots(MultiplierChain((2, 3)), bit_budget=10)
    with pytest.raises(BitBudgetExceeded):
        chain.terms_until(2**10)
    memo = chain.terms_until(1)
    assert memo == [1, 2, 6, 12, 36, 72, 216, 432]
    assert chain.terms_until(100)[-1] == 432  # served from the memo


def test_concurrent_term_access():
    seq = make_pivots("square")
    results = []

    def worker():
        results.append([seq.term(n) for n in range(40)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
