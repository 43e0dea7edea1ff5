"""The acceptance sweeps: exhaustive exact checks of the library's core
claims, shared between the test suite and the CLI ``verify-paper`` command.

Every check is exact (zero tolerance); each function returns
(ok, detail_string). The sweeps' defaults are the full required sizes;
the trimmed sizes of ``verify-paper --quick`` live in
``ztop.regressions.PAPER_CHECKS``. The worked examples (criteria 4-8) have
one size, fixed in the check.

The exhaustive sweeps of criteria 1-3 run the kernels directly, through
``decomposition.round_trip_failures`` and ``neighborhoods.route_violations``:
each chain prefix is fetched once and each integer decomposed once, and
every integer of the range is still checked; criterion 1 checks -l through
l when their digits are exact negations. Those sweeps return the rows that
fail with the answers they compared, and a failure's detail is its first
row as the sweep reported it.
"""

from __future__ import annotations

from fractions import Fraction

from ztop.convergence import (
    NeighborhoodSpec,
    Uniform,
    block_statistics,
    eval_sequence,
    falsify_uniform,
    make_sequence,
    prefix_test,
)
from ztop.decomposition import decompose, round_trip_failures
from ztop.duality import CERT_DIVISOR, character, kernel_check
from ztop.neighborhoods import (
    Linear,
    coeff_bound_test,
    discreteness_witness,
    member_direct,
    member_linear,
    route_violations,
)
from ztop.pivots import MultiplierChain, TwoPowerExponent, make_pivots
from ztop.torus import canonicalize, check_positive_int

HALF_POINT = canonicalize(Fraction(1, 2))  # canonical representative -1/2


def _two_power_families():
    return {name: make_pivots(TwoPowerExponent(name)) for name in ("linear", "square", "factorial")}


def _families():
    return {**_two_power_families(), "chain23": make_pivots(MultiplierChain((2, 3)))}


def decomposition_soundness(limit: int = 10**5):
    """Round-trip and both balance bounds for all |l| <= limit over the
    linear, square, factorial, and 2,3-periodic chains."""
    bad = 0
    first = None
    for name, pivots in _families().items():
        failures = round_trip_failures(pivots, limit)
        bad += len(failures)
        if failures and first is None:
            first = (name, *failures[0])
    detail = f"swept |l| <= {limit} over 4 chains, {bad} violations"
    if first is not None:
        detail += f"; first: {first}"
    return bad == 0, detail


def membership_sweep(limit: int = 10**4, ms=(1, 2, 4, 8)):
    """One pass computing all four membership routes over the sweep.

    Returns (equivalence_ok, chain_ok, strictness_ok, detail):
    equivalence = direct vs partial-sum agreement; chain = sufficient
    implies member implies necessary; strictness = 128 over the square
    chain at m = 1 is a member failing the sufficient test.
    """
    ms = tuple(ms)  # an iterator would be used up by the first chain
    pivots_by_name = _two_power_families()
    eq_bad = chain_bad = 0
    first_eq = first_chain = None
    for name, pivots in pivots_by_name.items():
        equivalence, implication = route_violations(pivots, limit, ms)
        eq_bad += len(equivalence)
        chain_bad += len(implication)
        if equivalence and first_eq is None:
            first_eq = (name, *equivalence[0])
        if implication and first_chain is None:
            first_chain = (name, *implication[0])
    square = pivots_by_name["square"]
    strict = member_direct(128, square, 1) and not coeff_bound_test(
        decompose(128, square), 1, "sufficient"
    )
    detail = (
        f"swept |k| <= {limit}, m in {ms}, 3 chains: "
        f"{eq_bad} equivalence violations, {chain_bad} implication violations, "
        f"strictness witness {'holds' if strict else 'MISSING'}"
    )
    if first_eq is not None:
        detail += f"; first equivalence: {first_eq}"
    if first_chain is not None:
        detail += f"; first implication: {first_chain}"
    return eq_bad == 0, chain_bad == 0, strict, detail


def membership_routes(limit: int = 10**4):
    """``membership_sweep`` as one check: (ok, detail), ok when all three of
    its verdicts hold."""
    eq_ok, chain_ok, strict_ok, detail = membership_sweep(limit=limit)
    return eq_ok and chain_ok and strict_ok, detail


def two_adic_separation():
    """The doubling sequence 2^j settles in every linear neighbourhood at
    exactly j = n, yet stays falsified for the square chain's uniform
    topology with witnesses exactly {n^2 - 1}, each at circle value 1/2."""
    horizon, n_max = 50, 20
    linear = make_pivots(TwoPowerExponent("linear"))
    square = make_pivots(TwoPowerExponent("square"))
    seq = make_sequence("pow2")
    for n in range(1, n_max + 1):
        verdict = prefix_test(seq, NeighborhoodSpec(linear, Linear(n)), horizon)
        if verdict.outcome != "stabilized" or verdict.stabilized_at != n:
            return False, f"linear level {n}: expected stabilization at {n}, got {verdict.outcome} {verdict.stabilized_at}"
    expected = {n * n - 1 for n in range(2, 8)}
    witnesses = falsify_uniform(seq, square, 1, horizon)
    got = {w.j for w in witnesses}
    if got != expected:
        return False, f"uniform witnesses {sorted(got)} != {sorted(expected)}"
    values_ok = all(w.value == HALF_POINT for w in witnesses)
    certs_ok = all(w.j == w.n * w.n - 1 for w in witnesses)
    ok = values_ok and certs_ok
    return ok, (
        f"linear settle indices exact for n <= {n_max}; uniform witnesses "
        f"{sorted(got)} all at value one-half: {values_ok}, certifying levels match: {certs_ok}"
    )


def linear_separation():
    """The half-ratio sequence b_j * floor(b_{j+1} / 2 b_j) over the square
    chain lies in every linear neighbourhood at its own index, yet every
    term is certified outside the level-1 uniform neighbourhood at chain
    index j + 1 with circle value exactly 1/2."""
    horizon = 30
    square = make_pivots(TwoPowerExponent("square"))
    seq = make_sequence("pivothalf", square)
    for j in range(1, horizon + 1):
        if not member_linear(eval_sequence(seq, j), square, j):
            return False, f"pivothalf term {j} not divisible by b_{j}"
    witnesses = falsify_uniform(seq, square, 1, horizon)
    if {w.j for w in witnesses} != set(range(1, horizon + 1)):
        return False, "expected every index to be falsified"
    for w in witnesses:
        if w.n != w.j + 1 or w.value != HALF_POINT:
            return False, f"witness {w} lacks the level j+1 certificate at one-half"
    return True, f"all {horizon} terms divisible at their own index and falsified at j+1 with value 1/2"


def discreteness():
    """For the halving sequence 2^-n (n <= 12) the computed separation level
    is 2 and the brute-force window retains only k = 0."""
    window = 100
    xs = [Fraction(1, 2**n) for n in range(1, 13)]
    w = discreteness_witness(xs, ratio_bound=2, brute_window=window)
    ok = w.multiplier == 1 and w.level == 2 and w.verified and w.survivors == (0,)
    return ok, (
        f"multiplier {w.multiplier}, level {w.level}, window {window}, "
        f"survivors {w.survivors}, verified {w.verified}"
    )


def convergent_membership():
    """Terms of the geometric-difference sequence over the square chain are
    uniform members at level m from index m on (checked on [m, m + span])."""
    m_max, span = 6, 20
    square = make_pivots(TwoPowerExponent("square"))
    seq = make_sequence("geomdiff", square)
    for m in range(1, m_max + 1):
        for j in range(m, m + span + 1):
            if not member_direct(eval_sequence(seq, j), square, m):
                return False, f"geomdiff term {j} not a member at level {m}"
    return True, f"membership holds for m <= {m_max}, j in [m, m+{span}]"


def block_closed_forms():
    """Peak ratios: (2^(2n+1) - 1) / 2^(2n+1) for the geometric-difference
    sequence and exactly 1 for the block example, plus the block example's
    level-1 falsification with witnesses {n^2 - 1}."""
    n_max = 10
    square = make_pivots(TwoPowerExponent("square"))
    geom = make_sequence("geomdiff", square)
    stats = block_statistics(geom, square, horizon=n_max + 2)
    for n in range(1, n_max + 1):
        expected = Fraction(2 ** (2 * n + 1) - 1, 2 ** (2 * n + 1))
        if stats.blocks.get(n) != (n, n) or stats.peaks.get(n) != expected:
            return False, f"geomdiff block {n}: got {stats.blocks.get(n)}, peak {stats.peaks.get(n)}"
    block = make_sequence("blockexample")
    horizon = (n_max + 1) ** 2 + 4
    bstats = block_statistics(block, square, horizon=horizon)
    for n in range(1, n_max + 1):
        if bstats.settle.get(n) != n * n:
            return False, f"blockexample settle index {n}: got {bstats.settle.get(n)}"
        if bstats.blocks.get(n) != (n * n, (n + 1) ** 2 - 1):
            return False, f"blockexample block {n}: got {bstats.blocks.get(n)}"
        if bstats.peaks.get(n) != 1:
            return False, f"blockexample peak {n}: got {bstats.peaks.get(n)}"
    witnesses = falsify_uniform(block, square, 1, 50)
    expected_w = {n * n - 1 for n in range(2, 8)}
    if {w.j for w in witnesses} != expected_w:
        return False, f"blockexample witnesses {sorted(w.j for w in witnesses)} != {sorted(expected_w)}"
    verdict = prefix_test(block, NeighborhoodSpec(square, Uniform(1)), 50)
    if verdict.outcome != "falsified":
        return False, f"blockexample verdict {verdict.outcome}, expected falsified"
    return True, (
        f"geomdiff and blockexample peaks match closed forms for n <= {n_max}; "
        f"blockexample falsified at level 1 with witnesses {sorted(expected_w)}"
    )


def duality_shadow(q_max: int = 10**3):
    """The divisibility search accepts exactly the characters whose reduced
    denominator divides some chain term, checked against an independent
    trial-division prime-support oracle over the square and 2,3-periodic
    chains."""
    check_positive_int(q_max, "q_max")

    def prime_support(n):
        support = set()
        d = 2
        while d * d <= n:
            if n % d == 0:
                support.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            support.add(n)
        return support

    cases = [
        (make_pivots(TwoPowerExponent("square")), {2}),
        (make_pivots(MultiplierChain((2, 3))), {2, 3}),
    ]
    for pivots, support in cases:
        for q in range(1, q_max + 1):
            expected = prime_support(q) <= support
            report = kernel_check(character(Fraction(1, q)), pivots)
            if report.continuous_for_linear != expected:
                return False, f"q={q} over {pivots.text}: got {report}, oracle {expected}"
            if expected:
                if report.certificate != CERT_DIVISOR or pivots.term(report.witness_index) % q != 0:
                    return False, f"q={q} over {pivots.text}: bad witness {report}"
    return True, f"kernel check matches the prime-support oracle for q <= {q_max} on 2 chains"
