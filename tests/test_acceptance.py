"""Acceptance suite: the nine exit criteria, each exact (zero tolerance).

Every check runs at its full sizes: the sweeps' defaults, and the one
size of each worked example. Every test prints one PASS/FAIL line (run
with ``pytest -s`` to see them on success). The heavyweight membership
sweep is computed once and shared by criteria 2 and 3.

The guards after them check that the sweeps behind criteria 1-3 still reach
every integer: a kernel answer corrupted for one integer must come back as
exactly one violation that names it. The guards at the end check that
every other paper check fails, with its detail, when one answer behind it
is wrong.
"""

import inspect
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ztop import acceptance, convergence, decomposition, neighborhoods, regressions
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
# reported with the answers the sweep compared: the sweeps evaluate nothing
# a second time to build a detail. Criterion 1 checks -l through l when
# -l's digits are l's negated; the guards after the zero's check that this
# mirror keeps every verdict of checking each integer.

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
    ok, detail = acceptance.decomposition_soundness(limit=LIMIT)
    assert not ok
    assert detail.endswith(
        "1 violations; first: ('linear', 0, CoefficientCheck(value=1, sum_ok=False, "
        "digit_bounds_ok=True, partial_sum_bounds_ok=True))"
    )


def test_decomposition_soundness_reports_both_of_a_consistently_corrupted_pair(monkeypatch):
    # the digits of -7 stay exactly those of 7 negated, and both fail
    original = decomposition.decompose_digits

    def corrupted(l, terms, top):
        digits = original(l, terms, top)
        if l in (7, -7) and on_linear(terms):
            digits[0] += 1 if l > 0 else -1
        return digits

    monkeypatch.setattr(decomposition, "decompose_digits", corrupted)
    ok, detail = acceptance.decomposition_soundness(limit=LIMIT)
    linear = make_pivots("linear")
    first = ("linear", -7, decomposition.recompose_and_check(decomposition.decompose(-7, linear)))
    assert not ok
    assert detail == f"swept |l| <= {LIMIT} over 4 chains, 2 violations; first: {first}"


def test_decomposition_soundness_accepts_other_valid_digits_for_minus_one(monkeypatch):
    # [1, -1] is -1 = 1 - 2 over the linear chain, within both bounds, but
    # not the negation of 1's digits [1]
    original = decomposition.decompose_digits

    def other(l, terms, top):
        return [1, -1] if l == -1 and on_linear(terms) else original(l, terms, top)

    linear = make_pivots("linear")
    assert decomposition.recompose_and_check(decomposition.coefficients_from_digits([1, -1], linear, -1)).ok
    monkeypatch.setattr(decomposition, "decompose_digits", other)
    assert acceptance.decomposition_soundness(limit=LIMIT) == (
        True,
        f"swept |l| <= {LIMIT} over 4 chains, 0 violations",
    )


@pytest.mark.parametrize("chain", ["linear", "chain:2,3"])
@settings(max_examples=60, deadline=None)
@given(
    edits=st.dictionaries(
        st.integers(-LIMIT, LIMIT).filter(bool),
        st.tuples(st.integers(0, 10), st.integers(-2, 2)),
        max_size=12,
    ),
    odd=st.booleans(),
)
def test_round_trip_failures_match_checking_every_integer(chain, edits, odd):
    # each edit adds a delta to one digit; with ``odd`` every edited l also
    # has -l edited by the opposite delta, so the pair stays negated
    if odd:
        edits = {**{-l: (i, -d) for l, (i, d) in edits.items()}, **edits}
    original = decomposition.decompose_digits

    def corrupted(l, terms, top):
        digits = original(l, terms, top)
        if l in edits:
            i, d = edits[l]
            digits[i % len(digits)] += d
        return digits

    pivots = make_pivots(chain)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposition, "decompose_digits", corrupted)
        checks = [
            (l, decomposition.recompose_and_check(decomposition.decompose(l, pivots)))
            for l in range(-LIMIT, LIMIT + 1)
        ]
        assert decomposition.round_trip_failures(pivots, LIMIT) == [row for row in checks if not row[1].ok]


def exit_at(pair, m):
    """A first_arc_exit answer for a k whose largest |k/b_n mod 1| is the
    pair (t, b): None when 4m * t <= b, and an exit index otherwise."""
    t, b = pair
    return None if 4 * m * t <= b else 1


def corrupt_first_arc_exit(monkeypatch, target_k, value):
    """Replace first_arc_exit(k, terms, m) by ``exit_at(value, m)`` at
    k == target_k on the linear chain, as the sweep reads it: the direct
    route then holds exactly at the levels m with 4m * value[0] <= value[1].
    The public direct route reads the kernels' own binding and still
    answers right."""
    original = neighborhoods.first_arc_exit

    def corrupted(k, terms, m):
        return exit_at(value, m) if k == target_k and on_linear(terms) else original(k, terms, m)

    monkeypatch.setattr(neighborhoods, "first_arc_exit", corrupted)


def corrupt_ratios(monkeypatch, target_value, pair, value):
    """Replace pair ``pair`` (0 digit, 1 partial sum) of digit_ratios(digits,
    terms) by ``value`` where the digits add up to target_value on the linear
    chain, as the sweep and the digit tests read it; the public partial-sum
    route reads the kernels' own binding and still answers right."""
    original = neighborhoods.digit_ratios

    def corrupted(digits, terms):
        pairs = original(digits, terms)
        if sum(k * b for k, b in zip(digits, terms)) == target_value and on_linear(terms):
            pairs = (value, pairs[1]) if pair == 0 else (pairs[0], value)
        return pairs

    monkeypatch.setattr(neighborhoods, "digit_ratios", corrupted)


def test_membership_sweep_reports_one_corrupted_partial_route(monkeypatch):
    # -LIMIT is no member over the linear chain at any level; a partial-sum
    # ratio of 0 makes it one, at the one level swept. The public route does
    # not see the corrupted pair, so a detail evaluated again through it
    # would read (False, False)
    corrupt_ratios(monkeypatch, -LIMIT, 1, (0, 1))
    assert not neighborhoods.member_partial_sums(-LIMIT, make_pivots("linear"), 8)
    eq_ok, chain_ok, strict_ok, detail = acceptance.membership_sweep(limit=LIMIT, ms=(8,))
    assert (eq_ok, chain_ok, strict_ok) == (False, True, True)
    assert "1 equivalence violations, 0 implication violations" in detail
    assert detail.endswith(f"; first equivalence: ('linear', {-LIMIT}, 8, False, True)")


def test_membership_sweep_reports_one_corrupted_direct_route(monkeypatch):
    # k = LIMIT is no member over the linear chain, and its digit ratio 1/2
    # fails the necessary test, so a direct answer flipped at m = 1 breaks
    # both claims: the ratio 1/4 passes m = 1 alone
    corrupt_first_arc_exit(monkeypatch, LIMIT, (1, 4))
    eq_ok, chain_ok, _, detail = acceptance.membership_sweep(limit=LIMIT)
    assert (eq_ok, chain_ok) == (False, False)
    assert "1 equivalence violations, 1 implication violations" in detail
    assert detail.endswith(
        f"; first equivalence: ('linear', {LIMIT}, 1, True, False)"
        f"; first implication: ('linear', {LIMIT}, 1, False, True, False)"
    )


def test_membership_sweep_reports_one_corrupted_digit_ratio(monkeypatch):
    corrupt_ratios(monkeypatch, LIMIT, 0, (0, 1))
    eq_ok, chain_ok, _, detail = acceptance.membership_sweep(limit=LIMIT, ms=(2,))
    assert (eq_ok, chain_ok) == (True, False)
    assert "0 equivalence violations, 1 implication violations" in detail
    assert detail.endswith(f"; first implication: ('linear', {LIMIT}, 2, True, False, True)")


def test_membership_sweep_reports_a_corrupted_zero(monkeypatch):
    # 0 goes through the kernels like every other k. The ratio 1/8 fails
    # every level from 4 on, so only m = 4 is swept
    corrupt_first_arc_exit(monkeypatch, 0, (1, 8))
    eq_ok, chain_ok, _, detail = acceptance.membership_sweep(limit=LIMIT, ms=(4,))
    assert (eq_ok, chain_ok) == (False, False)
    assert "1 equivalence violations, 1 implication violations" in detail
    assert detail.endswith(
        "; first equivalence: ('linear', 0, 4, False, True)"
        "; first implication: ('linear', 0, 4, True, False, True)"
    )


# small pairs, so that the levels where drawn routes stop holding often meet
RATIO_PAIRS = st.tuples(st.integers(0, 3), st.integers(1, 32))


@pytest.mark.parametrize("chain", ["linear", "chain:2,3"])
@settings(max_examples=60, deadline=None)
@given(
    corrupt=st.dictionaries(
        st.integers(-LIMIT, LIMIT),
        st.tuples(st.none() | RATIO_PAIRS, st.none() | st.tuples(RATIO_PAIRS, RATIO_PAIRS)),
        max_size=8,
    ),
    ms=st.lists(st.integers(1, 12), min_size=1, max_size=6),
)
# at k = 5 and 6 both routes hold up to m = 2; at 5 the necessary test
# stops at m = 1, at 6 the sufficient one holds up to m = 8
@example(corrupt={5: ((1, 8), ((3, 8), (1, 8))), 6: ((1, 8), ((1, 64), (1, 8)))}, ms=[3, 2])
def test_route_violations_match_checking_every_level(chain, corrupt, ms):
    # first_arc_exit answers as for a drawn pair and digit_ratios answers
    # drawn pairs, zeros included, at drawn k; the sweep, which skips a k
    # whose routes' last levels agree, must return the rows of testing
    # every k at every level of ``ms``
    pivots = make_pivots(chain)
    terms = pivots.terms_until(2 * LIMIT)
    original_exit, original_digits = neighborhoods.first_arc_exit, neighborhoods.digit_ratios

    def first_arc_exit(k, terms, m):
        pair = corrupt.get(k, (None, None))[0]
        return original_exit(k, terms, m) if pair is None else exit_at(pair, m)

    def digit_ratios(digits, terms):
        pairs = corrupt.get(sum(d * b for d, b in zip(digits, terms)), (None, None))[1]
        return original_digits(digits, terms) if pairs is None else pairs

    equivalence, implication = [], []
    for k in range(-LIMIT, LIMIT + 1):
        (dn, dd), (pn, pd) = digit_ratios(decomposition.decompose(k, pivots).coeffs, terms)
        for m in ms:
            direct, partial = first_arc_exit(k, terms, m) is None, 4 * m * pn <= pd
            sufficient, necessary = 8 * m * dn <= dd, 8 * m * dn <= 3 * dd
            if direct != partial:
                equivalence.append((k, m, direct, partial))
            if (sufficient and not direct) or (direct and not necessary):
                implication.append((k, m, sufficient, direct, necessary))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighborhoods, "first_arc_exit", first_arc_exit)
        mp.setattr(neighborhoods, "digit_ratios", digit_ratios)
        assert neighborhoods.route_violations(pivots, LIMIT, ms) == (equivalence, implication)


# -- a sweep that would check nothing is refused --------------------------------


@pytest.mark.parametrize(
    "sweep, kwargs, message",
    [
        (acceptance.decomposition_soundness, {"limit": -1}, "limit must be a positive integer, got -1"),
        (acceptance.membership_sweep, {"limit": 0}, "limit must be a positive integer, got 0"),
        (acceptance.membership_sweep, {"ms": ()}, "ms must hold at least one arc level, got ()"),
        (regressions.check_spot_equivalence, {"samples": True}, "samples must be a positive integer, got True"),
        (acceptance.duality_shadow, {"q_max": 0}, "q_max must be a positive integer, got 0"),
    ],
)
def test_a_vacuous_sweep_is_refused(sweep, kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        sweep(**kwargs)
    assert str(excinfo.value) == message


def test_membership_sweep_reads_its_levels_once():
    # every chain is swept at the levels of a one-shot iterator
    assert acceptance.membership_sweep(limit=LIMIT, ms=iter([2, 1])) == acceptance.membership_sweep(
        limit=LIMIT, ms=(2, 1)
    )


# -- the sequence checks can fail ------------------------------------------------
# Each guard corrupts one library answer behind a sequence check (an exact
# ratio, an arc exit, a settle index, a block span, a verdict) and expects
# the check to fail with the detail that names it.

SQUARE_B4, SQUARE_B5, SQUARE_B6 = 2**16, 2**25, 2**36


def on_square(terms):
    return len(terms) > 2 and terms[2] == 16


def corrupt_ratio(monkeypatch, target, answer):
    """convergence._ratio(p, q) answers ``answer`` at (p, q) == target."""
    original = convergence._ratio
    monkeypatch.setattr(
        convergence, "_ratio", lambda p, q: answer if (p, q) == target else original(p, q)
    )


def drop_arc_exit(monkeypatch, target_l):
    """first_arc_exit finds no exit for l == target_l over the square chain."""
    original = convergence.first_arc_exit

    def corrupted(l, terms, m):
        return None if l == target_l and on_square(terms) else original(l, terms, m)

    monkeypatch.setattr(convergence, "first_arc_exit", corrupted)


def corrupt_blockexample_stats(monkeypatch, field, n, value):
    """block_statistics answers ``value`` for stats.<field>[n] on the block
    example."""
    original = acceptance.block_statistics

    def corrupted(seq, pivots, horizon, levels=None):
        stats = original(seq, pivots, horizon, levels=levels)
        if seq.family == "blockexample":
            getattr(stats, field)[n] = value
        return stats

    monkeypatch.setattr(acceptance, "block_statistics", corrupted)


def test_block_closed_forms_reports_a_wrong_geomdiff_peak(monkeypatch):
    # block 3 of geomdiff over the square chain is {3}, peak (b_4 - b_3) / b_4
    corrupt_ratio(monkeypatch, (SQUARE_B4 - 2**9, SQUARE_B4), Fraction(1))
    assert acceptance.block_closed_forms() == (False, "geomdiff block 3: got (3, 3), peak 1")


def test_block_closed_forms_reports_a_wrong_blockexample_peak(monkeypatch):
    # block 4 of the block example is [16, 24]; its peak is l_23 = 2^25 = b_5
    corrupt_ratio(monkeypatch, (SQUARE_B5, SQUARE_B5), Fraction(1, 2))
    assert acceptance.block_closed_forms() == (False, "blockexample peak 4: got 1/2")


def test_block_closed_forms_reports_a_wrong_settle_index(monkeypatch):
    corrupt_blockexample_stats(monkeypatch, "settle", 4, 17)
    assert acceptance.block_closed_forms() == (False, "blockexample settle index 4: got 17")


def test_block_closed_forms_reports_a_wrong_block_span(monkeypatch):
    corrupt_blockexample_stats(monkeypatch, "blocks", 4, (16, 23))
    assert acceptance.block_closed_forms() == (False, "blockexample block 4: got (16, 23)")


def test_block_closed_forms_reports_a_missing_witness(monkeypatch):
    drop_arc_exit(monkeypatch, 2**8)  # l_8 of the block example
    assert acceptance.block_closed_forms() == (
        False, "blockexample witnesses [3, 15, 24, 35, 48] != [3, 8, 15, 24, 35, 48]"
    )


def test_block_closed_forms_reports_a_wrong_verdict(monkeypatch):
    original = acceptance.prefix_test

    def corrupted(seq, spec, horizon):
        return original(seq, spec, horizon)._replace(outcome="stabilized")

    monkeypatch.setattr(acceptance, "prefix_test", corrupted)
    assert acceptance.block_closed_forms() == (False, "blockexample verdict stabilized, expected falsified")


def test_linear_separation_reports_a_witness_off_one_half(monkeypatch):
    # pivothalf's l_5 = b_6 / 2 exits the arc at b_6, at the point -1/2
    corrupt_ratio(monkeypatch, (-(SQUARE_B6 >> 1), SQUARE_B6), Fraction(1, 4))
    assert acceptance.linear_separation() == (
        False,
        "witness Witness(j=5, n=6, value=TorusPoint(rep=Fraction(1, 4))) "
        "lacks the level j+1 certificate at one-half",
    )


def test_linear_separation_reports_a_missing_witness(monkeypatch):
    drop_arc_exit(monkeypatch, SQUARE_B6 >> 1)
    assert acceptance.linear_separation() == (False, "expected every index to be falsified")


def test_linear_separation_reports_a_term_off_its_linear_level(monkeypatch):
    original = acceptance.member_linear
    monkeypatch.setattr(
        acceptance, "member_linear", lambda l, pivots, n: n != 7 and original(l, pivots, n)
    )
    assert acceptance.linear_separation() == (False, "pivothalf term 7 not divisible by b_7")


def test_two_adic_separation_reports_a_missing_uniform_witness(monkeypatch):
    drop_arc_exit(monkeypatch, 2**8)  # 2^8 exits at b_3 = 2^9, at -1/2
    assert acceptance.two_adic_separation() == (
        False, "uniform witnesses [3, 15, 24, 35, 48] != [3, 8, 15, 24, 35, 48]"
    )


def test_two_adic_separation_reports_a_witness_off_one_half(monkeypatch):
    corrupt_ratio(monkeypatch, (-(2**8), 2**9), Fraction(1, 4))
    ok, detail = acceptance.two_adic_separation()
    assert not ok
    assert detail.endswith("all at value one-half: False, certifying levels match: True")


def test_two_adic_separation_reports_a_wrong_linear_settle_index(monkeypatch):
    original = acceptance.prefix_test

    def corrupted(seq, spec, horizon):
        verdict = original(seq, spec, horizon)
        if spec.family == neighborhoods.Linear(5):
            return verdict._replace(stabilized_at=6)
        return verdict

    monkeypatch.setattr(acceptance, "prefix_test", corrupted)
    assert acceptance.two_adic_separation() == (
        False, "linear level 5: expected stabilization at 5, got stabilized 6"
    )


def test_convergent_membership_reports_a_lost_member(monkeypatch):
    square = make_pivots("square")
    l5 = square.term(6) - square.term(5)  # geomdiff's l_5
    original = acceptance.member_direct
    monkeypatch.setattr(
        acceptance, "member_direct", lambda k, pivots, m: (k, m) != (l5, 3) and original(k, pivots, m)
    )
    assert acceptance.convergent_membership() == (False, "geomdiff term 5 not a member at level 3")


def corrupt_kernel_check(monkeypatch, q, **fields):
    """kernel_check answers with ``fields`` replaced for the character 1/q
    over the square chain; returns the answer it gives there."""
    original = acceptance.kernel_check
    square = make_pivots("square")
    wrong = original(acceptance.character(Fraction(1, q)), square)._replace(**fields)

    def corrupted(chi, pivots):
        if chi.denominator == q and pivots.text == "square":
            return wrong
        return original(chi, pivots)

    monkeypatch.setattr(acceptance, "kernel_check", corrupted)
    return wrong


def test_duality_shadow_reports_a_wrong_verdict(monkeypatch):
    wrong = corrupt_kernel_check(monkeypatch, 7, continuous_for_linear=True)
    assert acceptance.duality_shadow(q_max=20) == (False, f"q=7 over square: got {wrong}, oracle False")


def test_duality_shadow_reports_a_bad_witness_index(monkeypatch):
    wrong = corrupt_kernel_check(monkeypatch, 8, witness_index=1)  # b_1 = 2
    assert acceptance.duality_shadow(q_max=20) == (False, f"q=8 over square: bad witness {wrong}")


@pytest.mark.parametrize("route", ["member_partial_sums", "recompose_and_check"])
def test_spot_checks_report_the_first_failing_sample(monkeypatch, route):
    if route == "member_partial_sums":
        original = regressions.member_partial_sums
        monkeypatch.setattr(regressions, route, lambda k, pivots, m: not original(k, pivots, m))
        pattern = r"route disagreement at k=-?\d+, m=\d+, chain (square|linear)"
    else:
        original = regressions.recompose_and_check
        monkeypatch.setattr(regressions, route, lambda coeffs: original(coeffs)._replace(sum_ok=False))
        pattern = r"digit round-trip failed at k=-?\d+, chain (square|linear)"
    ok, detail = regressions.check_spot_equivalence(samples=5)
    assert not ok
    assert re.fullmatch(pattern, detail)


@pytest.mark.parametrize(
    "check",
    [acceptance.two_adic_separation, acceptance.linear_separation, acceptance.discreteness,
     acceptance.convergent_membership, acceptance.block_closed_forms],
)
def test_worked_examples_have_one_size(check):
    # no caller varies these sizes: they are constants of the check
    assert not inspect.signature(check).parameters
