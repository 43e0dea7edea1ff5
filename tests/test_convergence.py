import math
import os
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztop._kernels import divides, trailing_zeros
from ztop.convergence import (
    FAMILIES,
    BlockStatistics,
    IntegerSequence,
    NeighborhoodSpec,
    block_statistics,
    eval_sequence,
    falsify_uniform,
    make_sequence,
    peak_decay_report,
    prefix_test,
)
from ztop.convergence import SCAN_CHUNK, _chunks, _values
from ztop.convergence import _ratio  # the exact ratio behind peaks and witness points
from ztop.neighborhoods import Linear, Uniform, member_direct
from ztop.pivots import BitBudgetExceeded, make_pivots
from ztop.torus import canonicalize, check_positive_int, in_arc


def test_eval_sequence_examples(square):
    assert eval_sequence(make_sequence("pow2"), 5) == 32
    assert eval_sequence(make_sequence("geomdiff", square), 2) == 496  # 2^9 - 2^4
    assert eval_sequence(make_sequence("pivothalf", square), 2) == 256  # 16 * (512 // 32)
    assert eval_sequence(make_sequence("wgeomdiff", square), 2) == 2 * 512 - 16
    assert eval_sequence(make_sequence("pivotsucc", square), 2) == 512
    assert eval_sequence(make_sequence("zero"), 9) == 0
    assert eval_sequence(make_sequence("custom", fn=lambda j: 3 * j), 7) == 21


@pytest.mark.parametrize("value", [Fraction(7, 2), 2.9, True, Fraction(3)], ids=repr)
def test_custom_terms_that_are_not_ints_are_refused(value):
    # int() would evaluate Fraction(7, 2) to 3 and 2.9 to 2
    seq = make_sequence("custom", fn=lambda j: value)
    with pytest.raises(ValueError, match=f"^{re.escape(f'custom term must be an integer, got {value!r}')}$"):
        eval_sequence(seq, 1)


def test_blockexample_values():
    seq = make_sequence("blockexample")
    # exceptional indices n^2 - 2 carry 2^(n^2), everything else 2^j
    assert eval_sequence(seq, 2) == 2**4
    assert eval_sequence(seq, 7) == 2**9
    assert eval_sequence(seq, 14) == 2**16
    assert eval_sequence(seq, 3) == 2**3
    assert eval_sequence(seq, 8) == 2**8


def test_pow2_honours_bit_budget_env(monkeypatch):
    monkeypatch.setenv("ZTOP_BIT_BUDGET", "64")
    pow2 = make_sequence("pow2")
    block = make_sequence("blockexample")
    assert eval_sequence(pow2, 63) == 2**63
    with pytest.raises(BitBudgetExceeded):
        eval_sequence(pow2, 200)
    with pytest.raises(BitBudgetExceeded):
        eval_sequence(block, 64)
    with pytest.raises(BitBudgetExceeded):  # built without make_sequence
        eval_sequence(IntegerSequence("pow2"), 200)


@pytest.mark.parametrize(
    "args, message",
    [(("geomdiff",), "family 'geomdiff' is defined over a pivot chain"),
     (("bogus",), "unknown sequence family 'bogus'"),
     (("custom",), "custom sequences need a callable fn, got None"),
     (("custom", None, 3), "custom sequences need a callable fn, got 3"),
     (("pivotsucc", "square"), "sequence pivots must be a PivotSequence, got 'square'")],
    ids=["geomdiff", "bogus", "custom", "custom-not-callable", "pivots-text"],
)
def test_a_sequence_refuses_itself_when_built(args, message):
    # not first with an AttributeError or a TypeError at its first term
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IntegerSequence(*args)


def test_a_sequence_budget_is_resolved_when_built(monkeypatch):
    with pytest.raises(TypeError):
        IntegerSequence("pow2", bit_budget=10**9)
    assert IntegerSequence("zero", make_pivots("square", bit_budget=77)).bit_budget == 77
    monkeypatch.setenv("ZTOP_BIT_BUDGET", "64")
    pow2 = IntegerSequence("pow2")
    monkeypatch.delenv("ZTOP_BIT_BUDGET")
    assert pow2.bit_budget == 64
    with pytest.raises(BitBudgetExceeded, match=r"^term needs 65 bits \(budget 64\)$"):
        eval_sequence(pow2, 64)


@pytest.mark.parametrize("family", ["zero", "pow2", "blockexample", "geomdiff", "custom"])
@pytest.mark.parametrize("j", [0, -3, 2.5, 2.0, True, "2"], ids=repr)
def test_eval_sequence_refuses_an_index_that_is_not_a_positive_int(family, j, square):
    # 2.5 read 0 on zero, 2.0 raised a bare TypeError on pow2, True read l_1
    seq = make_sequence(family, square, fn=(lambda i: i) if family == "custom" else None)
    with pytest.raises(ValueError, match=f"^{re.escape(f'sequence index must be a positive integer, got {j!r}')}$"):
        eval_sequence(seq, j)


def _per_term(seq, horizon):
    """l_1, l_2, ... by eval_sequence up to the first refused term, and the
    refusal's message (None when l_1..l_horizon were all evaluated)."""
    values = []
    for j in range(1, horizon + 1):
        try:
            values.append(eval_sequence(seq, j))
        except BitBudgetExceeded as exc:
            return values, str(exc)
    return values, None


@pytest.mark.parametrize("budget", [None, 64], ids=["default-budget", "budget-64"])
@pytest.mark.parametrize("chain", ["square", "linear", "factorial", "pow2", "chain:2,3", "poly:1,1"])
@pytest.mark.parametrize("family", FAMILIES + ("custom",))
def test_chunked_values_match_per_term_evaluation(family, chain, budget):
    # the horizon crosses two chunk boundaries; each side gets a fresh
    # chain, so neither reads a memo the other built
    horizon = 2 * SCAN_CHUNK + 20

    def sequence():
        pivots = make_pivots(chain, bit_budget=budget)
        # a custom term that reads the chain inherits its refusals
        return make_sequence(family, pivots, fn=(lambda j: pivots.term(j) - j) if family == "custom" else None)

    expected, message = _per_term(sequence(), horizon)
    values, refusal = _values(sequence(), 1, horizon + 1)
    assert values == expected
    assert (None if refusal is None else str(refusal)) == message
    chunked, chunk_message = [], None
    try:
        for start, chunk in _chunks(sequence(), horizon):
            assert start == len(chunked) + 1 and 0 < len(chunk) <= SCAN_CHUNK
            chunked += chunk
    except BitBudgetExceeded as exc:
        chunk_message = str(exc)
    assert chunked == expected
    assert chunk_message == message


def test_make_sequence_validation(square):
    with pytest.raises(ValueError):
        make_sequence("geomdiff")  # needs a chain
    with pytest.raises(ValueError):
        make_sequence("unknown")
    with pytest.raises(ValueError):
        make_sequence("custom")
    with pytest.raises(ValueError):
        eval_sequence(make_sequence("pow2"), 0)


def test_prefix_test_stabilizes_linear(linear):
    seq = make_sequence("pow2")
    verdict = prefix_test(seq, NeighborhoodSpec(linear, Linear(4)), 100)
    assert verdict.outcome == "stabilized"
    assert verdict.stabilized_at == 4
    assert [w.j for w in verdict.witnesses] == [1, 2, 3]


def test_prefix_test_stabilizes_uniform(square):
    seq = make_sequence("geomdiff", square)
    verdict = prefix_test(seq, NeighborhoodSpec(square, Uniform(2)), 50)
    assert verdict.outcome == "stabilized"
    assert verdict.stabilized_at <= 2


def test_prefix_test_falsifies(square):
    seq = make_sequence("pow2")
    verdict = prefix_test(seq, NeighborhoodSpec(square, Uniform(1)), 50)
    assert verdict.outcome == "falsified"
    assert {w.j for w in verdict.witnesses} == {3, 8, 15, 24, 35, 48}
    assert verdict.stabilized_at is None


def test_prefix_test_minimality(square, linear):
    """A stabilization index above 1 means the preceding index fails."""
    cases = [
        (make_sequence("pow2"), NeighborhoodSpec(linear, Linear(6))),
        (make_sequence("geomdiff", square), NeighborhoodSpec(square, Uniform(4))),
    ]
    for seq, spec in cases:
        verdict = prefix_test(seq, spec, 60)
        assert verdict.outcome == "stabilized"
        j = verdict.stabilized_at
        if j > 1:
            assert any(w.j == j - 1 for w in verdict.witnesses)


def test_prefix_test_inconclusive_on_budget():
    tiny = make_pivots("square", bit_budget=64)
    seq = make_sequence("geomdiff", tiny)
    verdict = prefix_test(seq, NeighborhoodSpec(tiny, Uniform(1)), 40)
    assert verdict.outcome == "inconclusive"
    assert verdict.note


@pytest.mark.parametrize(
    "text", ["linear", "square", "factorial", "pow2", "poly:1,1", "chain:2,3", "chain:3", "chain:3,2"]
)
def test_falsify_uniform_pivothalf(text):
    # the half-ratio sequence leaves U_1 at every j, on any chain: l_j lies in
    # b_j * Z and first leaves the arc at n = j + 1, at floor(r/2) / r for
    # r = b_{j+1} / b_j (-1/2 for an even r, 1/3 for r = 3)
    horizon = 6 if text in ("factorial", "pow2") else 12
    pivots = make_pivots(text)
    seq = make_sequence("pivothalf", pivots)
    witnesses = falsify_uniform(seq, pivots, 1, horizon)
    assert [w.j for w in witnesses] == list(range(1, horizon + 1))
    for w in witnesses:
        b_j, b_next = pivots.term(w.j), pivots.term(w.j + 1)
        assert eval_sequence(seq, w.j) % b_j == 0
        assert w.n == w.j + 1
        r = b_next // b_j
        assert w.value == canonicalize(Fraction(r // 2, r))


def test_falsify_uniform_empty(square):
    assert falsify_uniform(make_sequence("zero"), square, 1, 20) == []
    assert falsify_uniform(make_sequence("geomdiff", square), square, 1, 50) == []


def test_witness_soundness(square):
    """Every certificate re-verifies through the exact circle arithmetic."""
    for family in ("pow2", "pivothalf", "blockexample"):
        seq = make_sequence(family, square)
        for w in falsify_uniform(seq, square, 1, 40):
            lj = eval_sequence(seq, w.j)
            point = canonicalize(Fraction(lj, square.term(w.n)))
            assert point == w.value
            assert not in_arc(point, 1)


# -- pivothalf without the long division --------------------------------------

# every descriptor form and multiplier chains whose ratios are all odd, all
# even or mixed; the 4096-bit budget ends each run
PIVOTHALF_CHAINS = (
    "linear", "square", "factorial", "pow2", "poly:1,1", "poly:0,1,2",
    "chain:3", "chain:2,3,5", "chain:5,7", "chain:2,3", "chain:4,6", "chain:3,9,4,5,6,2",
)


def pivothalf_by_division(pivots, j):
    """l_j = b_j * floor(b_{j+1} / (2 b_j)), the family's definition."""
    b = pivots.term
    return b(j) * (b(j + 1) // (2 * b(j)))


@pytest.mark.parametrize("text", sorted(PIVOTHALF_CHAINS))
def test_pivothalf_matches_the_division_definition(text):
    pivots = make_pivots(text, bit_budget=4096)
    seq = make_sequence("pivothalf", pivots)
    j = 1
    while True:
        try:
            expected = pivothalf_by_division(pivots, j)
        except BitBudgetExceeded as exc:
            with pytest.raises(BitBudgetExceeded, match=re.escape(str(exc))):
                eval_sequence(seq, j)
            break
        assert eval_sequence(seq, j) == expected
        j += 1
    assert j > 5  # the factorial chain stops first, at b_7 = 2^5040


# -- trailing zeros, divisibility and exact ratios ----------------------------

SIGNS = st.sampled_from((1, -1))
EXPONENTS = st.integers(min_value=0, max_value=3000)
ODD = st.integers(min_value=0, max_value=2**400).map(lambda x: 2 * x + 1)
# zero, small values of either sign, pure powers of two, odd values and
# odd values times a power of two
VALUES = st.one_of(
    st.just(0),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.builds(lambda s, e: s << e, SIGNS, EXPONENTS),
    st.builds(lambda s, o: s * o, SIGNS, ODD),
    st.builds(lambda s, o, e: s * o << e, SIGNS, ODD, EXPONENTS),
)
POSITIVE = VALUES.map(abs).filter(bool)


@given(VALUES.filter(bool))
def test_trailing_zeros_counts_the_power_of_two(x):
    e = trailing_zeros(x)
    assert x % (1 << e) == 0 and x % (2 << e) != 0


@given(POSITIVE, VALUES)
def test_divides_matches_the_remainder(b, x):
    assert divides(b, x) == (x % b == 0)
    assert divides(b, b * x)


@given(VALUES, POSITIVE)
def test_ratio_matches_fraction(p, q):
    r, f = _ratio(p, q), Fraction(p, q)
    assert (type(r), r.numerator, r.denominator) == (Fraction, f.numerator, f.denominator)


def test_blocks_geomdiff(square):
    stats = block_statistics(make_sequence("geomdiff", square), square, horizon=12)
    for n in range(1, 11):
        assert stats.settle[n] == n
        assert stats.blocks[n] == (n, n)
        assert stats.peaks[n] == Fraction(2 ** (2 * n + 1) - 1, 2 ** (2 * n + 1))
    assert stats.blocks[0] == (1, 0)  # empty pre-settle stub
    assert 0 not in stats.peaks


def test_blocks_blockexample(square):
    stats = block_statistics(make_sequence("blockexample"), square, horizon=125)
    for n in range(1, 11):
        assert stats.settle[n] == n * n
        assert stats.blocks[n] == (n * n, (n + 1) ** 2 - 1)
        assert stats.peaks[n] == 1


def test_blocks_pivotsucc(square):
    """Settle indices stick at 1 for the first two levels, so the first
    block is the degenerate {1} and its peak ratio is 1; from level 2 on the
    closed form b_n / b_{n+1} takes over."""
    stats = block_statistics(make_sequence("pivotsucc", square), square, horizon=20)
    assert stats.settle[1] == 1 and stats.settle[2] == 1
    assert stats.blocks[1] == (1, 1)
    assert stats.peaks[1] == 1
    for n in range(2, 12):
        assert stats.settle[n + 1] == n
        assert stats.blocks[n] == (n - 1, n - 1)
        assert stats.peaks[n] == Fraction(1, 2 ** (2 * n + 1))


def test_blocks_zero_degenerate(square):
    stats = block_statistics(make_sequence("zero"), square, horizon=5, levels=6)
    for n in range(1, 7):
        assert stats.settle[n] == 1
        assert stats.blocks[n] == (1, 1)
        assert stats.peaks[n] == 0


def test_blocks_partition(square, linear):
    """For strictly increasing settle indices the blocks tile [j_1, horizon]."""
    cases = [
        (make_sequence("pow2"), square, 60),
        (make_sequence("blockexample"), square, 60),
        (make_sequence("pow2"), linear, 40),
    ]
    for seq, pivots, horizon in cases:
        stats = block_statistics(seq, pivots, horizon)
        spans = [stats.blocks[n] for n in sorted(stats.blocks) if n >= 1]
        settled = sorted(stats.settle.values())
        assert settled == sorted(set(settled))  # strictly increasing here
        covered = []
        for lo, hi in spans:
            covered.extend(range(lo, hi + 1))
        expected_top = spans[-1][1]
        assert covered == list(range(stats.settle[1], expected_top + 1))


@pytest.mark.parametrize("levels", [0, -2, True, 1.5])
def test_blocks_reject_bad_levels(square, levels):
    with pytest.raises(ValueError):
        block_statistics(make_sequence("zero"), square, horizon=5, levels=levels)


def test_blocks_missing_levels(factorial):
    stats = block_statistics(make_sequence("pow2"), factorial, horizon=30)
    assert stats.settle[4] == 24  # b_4 = 2^24 divides 2^j from j = 24 on
    assert stats.missing == (5,)  # j_5 = 120 lies beyond the horizon


def reference_block_statistics(seq, pivots, horizon, levels=None):
    """block_statistics before the suffix gcds: each level rescans the values
    from the horizon down for the last one that b_n does not divide."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    cap = horizon if levels is None else check_positive_int(levels, "levels")
    values = [eval_sequence(seq, j) for j in range(1, horizon + 1)]
    settle = {}
    missing = []
    note = ""
    n_top = 0
    for n in range(1, cap + 2):
        try:
            b = pivots.term(n)
        except BitBudgetExceeded as exc:
            note = str(exc)
            break
        last_bad = 0
        for j in range(horizon, 0, -1):
            if values[j - 1] % b != 0:
                last_bad = j
                break
        if last_bad == horizon:
            missing.append(n)
            break
        settle[n] = last_bad + 1
        n_top = n
    blocks = {}
    peaks = {}
    if settle:
        blocks[0] = (1, settle[1] - 1)
        for n in range(1, n_top):
            jn, jn1 = settle[n], settle[n + 1]
            blocks[n] = (jn, jn) if jn == jn1 else (jn, jn1 - 1)
        for n, (lo, hi) in blocks.items():
            if lo > hi:
                continue
            try:
                bn1 = pivots.term(n + 1)
            except BitBudgetExceeded as exc:
                note = str(exc)
                break
            peak = max(abs(values[j - 1]) for j in range(lo, hi + 1))
            peaks[n] = Fraction(peak, bn1)
    return BlockStatistics(settle, blocks, peaks, tuple(missing), horizon, note)


def same_blocks(seq, pivots, horizon, levels=None):
    """block_statistics, checked against the rescan: the same settle indices,
    blocks, peaks, missing levels and note, or the same refusal."""
    results = []
    for fn in (reference_block_statistics, block_statistics):
        try:
            results.append(fn(seq, pivots, horizon, levels=levels))
        except BitBudgetExceeded as exc:
            results.append(str(exc))
    assert results[1] == results[0]
    return results[1]


BLOCK_CHAINS = ("linear", "square", "factorial", "chain:2,3", "chain:5,2,3", "poly:1,1")
LEVEL_CAPS = st.one_of(st.none(), st.integers(min_value=1, max_value=70))


@st.composite
def chain_multiples(draw):
    """(chain, values): runs of one signed multiple c * b_i each, c = 0 giving
    runs of zeros."""
    text = draw(st.sampled_from(BLOCK_CHAINS))
    pivots = make_pivots(text)
    top = 7 if text == "factorial" else 12
    runs = draw(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=0, max_value=top),
        ),
        min_size=1,
        max_size=12,
    ))
    return text, [c * pivots.term(i) for length, c, i in runs for _ in range(length)]


@settings(deadline=None)
@given(chain_multiples(), LEVEL_CAPS)
def test_block_statistics_matches_the_rescan_on_chain_multiples(case, levels):
    text, values = case
    pivots = make_pivots(text)
    seq = make_sequence("custom", pivots, fn=lambda j: values[j - 1])
    same_blocks(seq, pivots, len(values), levels)


@settings(deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.sampled_from(BLOCK_CHAINS),
    st.integers(min_value=1, max_value=70),
    LEVEL_CAPS,
    st.sampled_from([{}, {"ZTOP_BIT_BUDGET": "64"}]),
)
def test_block_statistics_matches_the_rescan_on_the_families(family, text, horizon, levels, env):
    with mock.patch.dict(os.environ, env):
        pivots = make_pivots(text)
        same_blocks(make_sequence(family, pivots), pivots, horizon, levels)


def peak_is_negative(values, lo, hi):
    """Whether a negative term of the block l_lo..l_hi has the peak |l_j|."""
    block = values[lo - 1 : hi]
    return -min(block) > max(block)


@pytest.mark.parametrize("text", ["square", "linear", "chain:2,3"])
@pytest.mark.parametrize("signs", ["mixed", "negative"])
def test_block_peaks_of_negative_terms_match_the_rescan(text, signs):
    # every built-in family is non-negative; here l_j = +-(6j + 1) b_r with
    # r = isqrt(j), and 6j + 1 is prime to 2 and 3, so block r is the 2r + 1
    # indices [r^2, (r + 1)^2). Mixed signs make l_j negative at odd j, and
    # so the block's peak, at its last index r^2 + 2r, negative at odd r.
    pivots = make_pivots(text)
    values = []
    for j in range(1, 41):
        l = (6 * j + 1) * pivots.term(math.isqrt(j))
        values.append(-l if signs == "negative" or j % 2 else l)
    seq = make_sequence("custom", pivots, fn=lambda j: values[j - 1])
    stats = same_blocks(seq, pivots, len(values))
    negative = [n for n, (lo, hi) in stats.blocks.items() if lo <= hi and peak_is_negative(values, lo, hi)]
    assert stats.blocks == {0: (1, 0), **{r: (r * r, r * r + 2 * r) for r in range(1, 6)}}
    assert negative == ([1, 2, 3, 4, 5] if signs == "negative" else [1, 3, 5])
    for n in negative:
        lo, hi = stats.blocks[n]
        assert stats.peaks[n] == Fraction(-min(values[lo - 1 : hi]), pivots.term(n + 1))


@pytest.mark.parametrize(
    "family, text, horizon, settled, refused",
    [
        ("zero", "linear", 70, 63, "b_64"),
        ("pow2", "square", 60, 7, "b_8"),
        ("zero", "factorial", 10, 4, "b_5"),
    ],
)
def test_block_statistics_under_a_budget_refusal_part_way(
    monkeypatch, family, text, horizon, settled, refused
):
    monkeypatch.setenv("ZTOP_BIT_BUDGET", "64")
    pivots = make_pivots(text)
    stats = same_blocks(make_sequence(family, pivots), pivots, horizon)
    assert len(stats.settle) == settled
    assert stats.note.startswith(f"term {refused} of {text!r} needs")


def test_peak_decay_report(square):
    report = peak_decay_report(make_sequence("pivotsucc", square), square, 20, thresholds=(1, 2))
    by_m = {e.m: e for e in report.entries}
    # peak ratio at the first block is 1, so decay settles from level 2 on
    assert by_m[1].applicable and by_m[1].settled_level == 2
    assert by_m[1].crosscheck_ok
    assert by_m[2].settled_level == 2

    report = peak_decay_report(make_sequence("geomdiff", square), square, 12, thresholds=(1,))
    assert not report.entries[0].applicable  # peaks approach 1, never below 1/4

    report = peak_decay_report(make_sequence("zero"), square, 5, thresholds=(1, 8), levels=6)
    assert all(e.applicable and e.settled_level == 1 for e in report.entries)


def test_peak_decay_crosscheck_scans_from_block_n0():
    # l_1 = 2^80 + 1 needs b_10 = 2^100 to scan, over a 100-bit budget, and
    # lies before block n0 = 1 = [2, 2]; l_4 = 256 lies past the last block
    # and leaves the level-1 arc at b_3 = 512, so the refusal before block
    # n0 does not hide the witness after it
    pivots = make_pivots("square", bit_budget=100)
    values = [2**80 + 1, 2, 16, 256]
    seq = make_sequence("custom", pivots, fn=lambda j: values[j - 1])
    report = peak_decay_report(seq, pivots, len(values), thresholds=(1,))
    assert report.stats.blocks == {0: (1, 1), 1: (2, 2)}
    assert report.entries[0] == (1, True, 1, False)
    with pytest.raises(BitBudgetExceeded):
        falsify_uniform(seq, pivots, 1, 1)


def test_peak_decay_crosscheck_is_none_where_the_scan_is_refused():
    # l_8 = b_9 = 2^81 needs b_10 = 2^100 to scan, over a 100-bit budget,
    # and no index before it leaves the arc
    pivots = make_pivots("square", bit_budget=100)
    report = peak_decay_report(make_sequence("pivotsucc", pivots), pivots, 8, thresholds=(1, 2))
    assert [tuple(e) for e in report.entries] == [(1, True, 2, None), (2, True, 2, None)]


def test_peak_decay_report_evaluates_each_term_once(square):
    """block_statistics and the per-threshold witness scans share one
    evaluation of l_1..l_horizon."""
    calls = []

    def pivotsucc(j):
        calls.append(j)
        return square.term(j + 1)

    seq = make_sequence("custom", square, fn=pivotsucc)
    report = peak_decay_report(seq, square, 20, thresholds=(1, 2, 3))
    assert all(e.applicable for e in report.entries)  # each threshold runs a witness scan
    assert sorted(calls) == list(range(1, 21))


WITNESS_CHAINS = ("square", "factorial", "chain:2,3", "poly:1,1")


@pytest.mark.parametrize("budget", [None, "64"])
@pytest.mark.parametrize("text", WITNESS_CHAINS)
@pytest.mark.parametrize("family", FAMILIES)
def test_falsify_uniform_lists_the_prefix_test_witnesses(monkeypatch, family, text, budget):
    """falsify_uniform and the uniform prefix test report the same
    witnesses, and the same refusal when the budget cuts the scan short."""
    if budget is None:
        monkeypatch.delenv("ZTOP_BIT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("ZTOP_BIT_BUDGET", budget)
    pivots = make_pivots(text)
    seq = make_sequence(family, pivots)
    for m, horizon in ((1, 30), (3, 12), (5, 1)):
        verdict = prefix_test(seq, NeighborhoodSpec(pivots, Uniform(m)), horizon)
        if verdict.outcome == "inconclusive":
            with pytest.raises(BitBudgetExceeded) as exc:
                falsify_uniform(seq, pivots, m, horizon)
            assert str(exc.value) == verdict.note
        else:
            assert falsify_uniform(seq, pivots, m, horizon) == list(verdict.witnesses)


@pytest.mark.parametrize("horizon", [True, 2.0, 0, -1, "5", None])
@pytest.mark.parametrize("query", ["prefix_uniform", "prefix_linear", "falsify", "blocks", "decay"])
def test_sequence_queries_reject_a_bad_horizon(square, query, horizon):
    seq = make_sequence("pow2")
    calls = {
        "prefix_uniform": lambda: prefix_test(seq, NeighborhoodSpec(square, Uniform(1)), horizon),
        "prefix_linear": lambda: prefix_test(seq, NeighborhoodSpec(square, Linear(1)), horizon),
        "falsify": lambda: falsify_uniform(seq, square, 1, horizon),
        "blocks": lambda: block_statistics(seq, square, horizon),
        "decay": lambda: peak_decay_report(seq, square, horizon, (1,)),
    }
    with pytest.raises(ValueError, match=f"horizon must be a positive integer, got {horizon!r}"):
        calls[query]()


def test_falsify_uniform_reports_a_bad_level_before_a_bad_horizon(square):
    with pytest.raises(ValueError, match="arc level"):
        falsify_uniform(make_sequence("pow2"), square, 0, 0)


def test_hierarchy_uniform_implies_linear(square, linear):
    """Stabilizing at uniform level b_n forces stabilization for the linear
    neighbourhood at n, no later."""
    families = ["pow2", "geomdiff", "wgeomdiff", "blockexample", "pivothalf", "pivotsucc", "zero"]
    for pivots in (square, linear):
        for name in families:
            seq = make_sequence(name, pivots)
            for n0 in (1, 2):
                m = pivots.term(n0)
                uniform = prefix_test(seq, NeighborhoodSpec(pivots, Uniform(m)), 30)
                if uniform.outcome != "stabilized":
                    continue
                lin = prefix_test(seq, NeighborhoodSpec(pivots, Linear(n0)), 30)
                assert lin.outcome == "stabilized"
                assert lin.stabilized_at <= uniform.stabilized_at


def test_sufficient_condition_members(square):
    """Inside a block whose peak ratio sits below 1/(4m), every term is a member."""
    seq = make_sequence("pivotsucc", square)
    stats = block_statistics(seq, square, horizon=20)
    for n, peak in stats.peaks.items():
        if n >= 1 and peak < Fraction(1, 8):
            lo, hi = stats.blocks[n]
            for j in range(lo, hi + 1):
                assert member_direct(eval_sequence(seq, j), square, 2)
