"""What ``ztop verify-paper`` runs: the table ``PAPER_CHECKS``, one row per
output record, and its one runner ``run_paper_checks``. The rows are the
worked examples the library must reproduce exactly, the seeded spot checks
and the acceptance sweeps; each check returns (ok, detail)."""

from __future__ import annotations

import random
from fractions import Fraction

from ztop import acceptance
from ztop.decomposition import decompose, recompose_and_check
from ztop.neighborhoods import coeff_bound_test, member_direct, member_partial_sums
from ztop.pivots import TwoPowerExponent, make_pivots
from ztop.torus import canonicalize, in_arc, int_scale


def _square():
    return make_pivots(TwoPowerExponent("square"))


def check_uniform_membership_128():
    """128 over the square chain at level 1: member by both routes, passes
    the necessary digit test, fails the sufficient one."""
    square = _square()
    coeffs = decompose(128, square)
    ok = (
        coeffs.coeffs == (0, 0, 8)
        and member_direct(128, square, 1)
        and member_partial_sums(128, square, 1)
        and not coeff_bound_test(coeffs, 1, "sufficient")
        and coeff_bound_test(coeffs, 1, "necessary")
        and in_arc(int_scale(128, canonicalize(Fraction(1, 512))), 1)
    )
    return ok, f"digits {coeffs.coeffs}, member with sufficient test failing"


def check_spot_equivalence(seed: int = 0, samples: int = 200):
    """Seeded random spot checks: the direct and partial-sum membership
    routes agree, and digit round-trips hold, outside the exhaustive sweep
    ranges."""
    rng = random.Random(seed)
    square = _square()
    linear = make_pivots(TwoPowerExponent("linear"))
    for _ in range(samples):
        k = rng.randint(-(10**7), 10**7)
        m = rng.choice((1, 2, 3, 4, 5, 8, 16))
        pivots = rng.choice((square, linear))
        if member_direct(k, pivots, m) != member_partial_sums(k, pivots, m):
            return False, f"route disagreement at k={k}, m={m}, chain {pivots.text}"
        check = recompose_and_check(decompose(k, pivots))
        if not check.ok:
            return False, f"digit round-trip failed at k={k}, chain {pivots.text}"
    return True, f"{samples} seeded spot checks (seed {seed})"


# (name, check, quick sizes): a check's defaults are its full sizes
PAPER_CHECKS = [
    ("uniform-membership-128", check_uniform_membership_128, {}),
    ("doubling-sequence-witnesses", acceptance.two_adic_separation, {}),
    ("half-ratio-separation", acceptance.linear_separation, {}),
    ("geometric-difference-membership", acceptance.convergent_membership, {}),
    ("block-example-falsification", acceptance.block_closed_forms, {}),
    ("halving-discreteness", acceptance.discreteness, {}),
    ("seeded-spot-checks", check_spot_equivalence, {}),
    ("decomposition-soundness", acceptance.decomposition_soundness, {"limit": 2000}),
    ("membership-routes", acceptance.membership_routes, {"limit": 500}),
    ("two-adic-separation", acceptance.two_adic_separation, {}),
    ("linear-separation", acceptance.linear_separation, {}),
    ("discreteness", acceptance.discreteness, {}),
    ("convergent-membership", acceptance.convergent_membership, {}),
    ("block-closed-forms", acceptance.block_closed_forms, {}),
    ("duality-shadow", acceptance.duality_shadow, {"q_max": 200}),
]


def run_paper_checks(seed: int = 0, quick: bool = False):
    """Yields (name, ok, detail) for each row of ``PAPER_CHECKS`` in order,
    at full sizes or, with ``quick``, at the row's quick sizes. A check
    listed under two names runs once; the spot checks take ``seed``."""
    results = {}
    for name, fn, quick_kwargs in PAPER_CHECKS:
        kwargs = dict(quick_kwargs) if quick else {}
        if fn is check_spot_equivalence:
            kwargs["seed"] = seed
        key = (fn, tuple(sorted(kwargs.items())))
        if key not in results:
            results[key] = fn(**kwargs)
        ok, detail = results[key]
        yield name, ok, detail
