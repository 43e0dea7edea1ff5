"""Acceptance suite: the nine exit criteria, each exact (zero tolerance).

Every check runs at its full sizes, which are the acceptance functions'
defaults. Every test prints one PASS/FAIL line (run with ``pytest -s`` to
see them on success). The heavyweight membership sweep is computed once and
shared by criteria 2 and 3.

The guards at the end check that the sweeps behind criteria 1-3 still reach
every integer: a kernel answer corrupted for one integer must come back as
exactly one violation that names it.
"""

import pytest

from ztop import acceptance, decomposition, neighborhoods
from ztop.pivots import make_pivots


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def membership_sweep():
    return acceptance.membership_sweep()


def test_criterion_1_decomposition_soundness():
    ok, detail = acceptance.decomposition_soundness()
    report(1, "decomposition soundness", ok, detail)
    assert ok


def test_criterion_2_characterization_equivalence(membership_sweep):
    eq_ok, _, _, detail = membership_sweep
    report(2, "characterization equivalence", eq_ok, detail)
    assert eq_ok


def test_criterion_3_implication_chain_with_strictness(membership_sweep):
    _, chain_ok, strict_ok, detail = membership_sweep
    ok = chain_ok and strict_ok
    report(3, "implication chain + strictness witness", ok, detail)
    assert ok


def test_criterion_4_two_adic_separation():
    ok, detail = acceptance.two_adic_separation()
    report(4, "doubling-sequence separation", ok, detail)
    assert ok


def test_criterion_5_linear_separation():
    ok, detail = acceptance.linear_separation()
    report(5, "half-ratio separation", ok, detail)
    assert ok


def test_criterion_6_discreteness_witness():
    ok, detail = acceptance.discreteness()
    report(6, "discreteness witness", ok, detail)
    assert ok


def test_criterion_7_convergent_membership():
    ok, detail = acceptance.convergent_membership()
    report(7, "convergent-example membership", ok, detail)
    assert ok


def test_criterion_8_block_closed_forms():
    ok, detail = acceptance.block_closed_forms()
    report(8, "block statistics closed forms", ok, detail)
    assert ok


def test_criterion_9_duality_shadow():
    ok, detail = acceptance.duality_shadow()
    report(9, "duality shadow", ok, detail)
    assert ok


# -- the sweeps reach every integer ---------------------------------------------
# Each guard corrupts one kernel answer for one integer on the linear chain
# (the only one with b_3 = 8) and expects exactly that one violation back,
# reported as the public wrappers report it.

LIMIT = 60


def on_linear(terms):
    return terms[3] == 8


@pytest.mark.parametrize("target", [-LIMIT, -7, LIMIT])
def test_decomposition_soundness_reports_one_corrupted_integer(monkeypatch, target):
    original = decomposition.decompose_digits

    def corrupted(l, terms, top):
        digits = original(l, terms, top)
        if l == target and on_linear(terms):
            digits[0] += 1
        return digits

    monkeypatch.setattr(decomposition, "decompose_digits", corrupted)
    ok, detail = acceptance.decomposition_soundness(limit=LIMIT)
    linear = make_pivots("linear")
    first = ("linear", target, decomposition.recompose_and_check(decomposition.decompose(target, linear)))
    assert not ok
    assert detail == f"swept |l| <= {LIMIT} over 4 chains, 1 violations; first: {first}"


def test_decomposition_soundness_reports_a_corrupted_zero(monkeypatch):
    original = decomposition.decompose

    def corrupted(l, pivots):
        if l == 0 and pivots.text == "linear":
            return decomposition.PivotCoefficients(0, (1,), pivots, None)
        return original(l, pivots)

    monkeypatch.setattr(decomposition, "decompose", corrupted)
    monkeypatch.setattr(acceptance, "decompose", corrupted)
    ok, detail = acceptance.decomposition_soundness(limit=LIMIT)
    assert not ok
    assert detail.endswith(
        "1 violations; first: ('linear', 0, CoefficientCheck(value=1, sum_ok=False, "
        "digit_bounds_ok=True, partial_sum_bounds_ok=True))"
    )


def corrupt_kernel(monkeypatch, name, target_k, target_m):
    """Flip the answer of neighborhoods.<name>(k, terms, m, ...) at one (k, m)
    on the linear chain."""
    original = getattr(neighborhoods, name)

    def corrupted(k, terms, m, *rest):
        answer = original(k, terms, m, *rest)
        return not answer if (k, m) == (target_k, target_m) and on_linear(terms) else answer

    monkeypatch.setattr(neighborhoods, name, corrupted)


def test_membership_sweep_reports_one_corrupted_partial_route(monkeypatch):
    corrupt_kernel(monkeypatch, "member_partial_scan", -LIMIT, 8)
    eq_ok, chain_ok, strict_ok, detail = acceptance.membership_sweep(limit=LIMIT)
    assert (eq_ok, chain_ok, strict_ok) == (False, True, True)
    assert "1 equivalence violations, 0 implication violations" in detail
    assert detail.endswith(f"; first equivalence: ('linear', {-LIMIT}, 8, False, True)")


def test_membership_sweep_reports_one_corrupted_direct_route(monkeypatch):
    # k = LIMIT is no member over the linear chain, and its digit ratio 1/2
    # fails the necessary test, so a flipped direct answer breaks both claims
    corrupt_kernel(monkeypatch, "member_direct_scan", LIMIT, 1)
    eq_ok, chain_ok, _, detail = acceptance.membership_sweep(limit=LIMIT)
    assert (eq_ok, chain_ok) == (False, False)
    assert "1 equivalence violations, 1 implication violations" in detail
    assert detail.endswith(
        f"; first equivalence: ('linear', {LIMIT}, 1, True, False)"
        f"; first implication: ('linear', {LIMIT}, 1, False, True, False)"
    )


def test_membership_sweep_reports_one_corrupted_digit_ratio(monkeypatch):
    original = neighborhoods.max_digit_ratio

    def corrupted(digits, terms):
        value = sum(k * b for k, b in zip(digits, terms))
        return (0, 1) if value == LIMIT and on_linear(terms) else original(digits, terms)

    monkeypatch.setattr(neighborhoods, "max_digit_ratio", corrupted)
    eq_ok, chain_ok, _, detail = acceptance.membership_sweep(limit=LIMIT, ms=(2,))
    assert (eq_ok, chain_ok) == (True, False)
    assert "0 equivalence violations, 1 implication violations" in detail
    assert detail.endswith(f"; first implication: ('linear', {LIMIT}, 2, True, False, True)")


def test_membership_sweep_reports_a_corrupted_zero(monkeypatch):
    original = neighborhoods.member_direct

    def corrupted(k, pivots, m):
        return False if (k, m, pivots.text) == (0, 4, "linear") else original(k, pivots, m)

    monkeypatch.setattr(neighborhoods, "member_direct", corrupted)
    monkeypatch.setattr(acceptance, "member_direct", corrupted)
    eq_ok, chain_ok, _, detail = acceptance.membership_sweep(limit=LIMIT)
    assert (eq_ok, chain_ok) == (False, False)
    assert "1 equivalence violations, 1 implication violations" in detail
    assert detail.endswith(
        "; first equivalence: ('linear', 0, 4, False, True)"
        "; first implication: ('linear', 0, 4, True, False, True)"
    )
