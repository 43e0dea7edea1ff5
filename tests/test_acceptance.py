"""Acceptance suite: the nine exit criteria, each exact (zero tolerance).

Every check runs at its full sizes, which are the acceptance functions'
defaults. Every test prints one PASS/FAIL line (run with ``pytest -s`` to
see them on success). The heavyweight membership sweep is computed once and
shared by criteria 2 and 3.
"""

import pytest

from ztop import acceptance


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
