"""Rational characters of the integers and their continuity against the
chain topologies.

A character is determined by its value at 1, kept as a canonical circle
point p/q. Such a character kills the subgroup b_n * Z exactly when q
divides b_n, so continuity for the linear topology reduces to a
divisibility search along the chain, ``kernel_check``, which also decides
membership in the subgroup generated by the chain's unit fractions
{1/b_n}. One modular power refuses a denominator with a prime outside the
chain's support; otherwise the scan stops at a divisor or at a term over
the bit budget. For the uniform topology
only a finite-window necessary check is available (the
character must map window members of the neighbourhood into the quarter
arc); passing it is evidence, not proof, of continuity. That check does
not evaluate the character member by member, on either family: the
character's own condition joins the neighbourhood's in the window sieve,
and the members it strikes out are the ones that fail.

Characters are restricted to rational (torsion) values: every continuous
character of the studied topologies is torsion, and irrational values admit
no exact representation.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

from ztop._kernels import arc_sieve, divides, trailing_zeros
from ztop.neighborhoods import NeighborhoodSpec, _member_sieve
from ztop.pivots import BitBudgetExceeded, PivotSequence
from ztop.torus import TorusPoint, canonicalize, int_scale

CERT_DIVISOR = "divisor"
CERT_PRIME_SUPPORT = "prime-support"
CERT_BUDGET = "budget-exhausted"


class Character(NamedTuple):
    """Character k -> k * value of the integers, value a canonical circle point."""

    value: TorusPoint

    @property
    def denominator(self) -> int:
        return self.value.rep.denominator


def character(value) -> Character:
    """Build a character from a rational (an int or a Fraction, not a
    float), "p/q" text, or TorusPoint."""
    if isinstance(value, TorusPoint):
        return Character(value)
    return Character(canonicalize(value))


def char_eval(chi: Character, x: int) -> TorusPoint:
    """chi(x); a group homomorphism in x."""
    return int_scale(x, chi.value)


class KernelCheck(NamedTuple):
    """Outcome of the divisibility search for the character's denominator.

    ``certificate`` records how the verdict was reached: a concrete divisor
    index, a prime outside the chain's support (certain negative), or an
    exhausted budget (inconclusive negative).
    """

    continuous_for_linear: bool
    witness_index: Optional[int]
    certificate: str


def kernel_check(chi: Character, pivots: PivotSequence) -> KernelCheck:
    """Decide whether chi is continuous for the linear chain topology.

    That holds exactly when the reduced denominator of chi(1) divides some
    chain term; the least such index is returned (its subgroup lies in the
    kernel of chi). Negatives certified through the prime support are
    definitive; budget-exhausted negatives (a term over the bit budget before
    any divisor) are inconclusive. This is the one scan of the chain for a
    multiple of the denominator.
    """
    q = chi.denominator
    # every prime of q divides the cycle product P exactly when q | P^e for
    # an e at least as large as each exponent in q; each is below
    # q.bit_length(), so below this e. q = 1 passes (x mod 1 is 0), and
    # b_0 = 1 is its divisor.
    if pow(pivots.cycle_product(), 1 << q.bit_length().bit_length(), q):
        return KernelCheck(False, None, CERT_PRIME_SUPPORT)
    for n in itertools.count():
        try:
            b = pivots.term(n)
        except BitBudgetExceeded:
            return KernelCheck(False, None, CERT_BUDGET)
        if divides(q, b):  # a mask on a two-power chain, where q is 2^v
            return KernelCheck(True, n, CERT_DIVISOR)


def generated_member(x: TorusPoint, pivots: PivotSequence) -> bool:
    """Whether x lies in the subgroup of the circle generated by the chain's
    unit fractions {1/b_n}; for divisibility chains this means the reduced
    denominator of x divides some b_n: ``kernel_check`` of x.

    Raises BitBudgetExceeded when the search is inconclusive (a term over
    the bit budget before any divisor).
    """
    found, _, cert = kernel_check(Character(x), pivots)
    if cert == CERT_BUDGET:
        raise BitBudgetExceeded(f"no chain term divisible by {x.rep.denominator} within budget")
    return found


class WindowCheck(NamedTuple):
    ok: bool
    failing_k: Optional[int]


def continuity_window_check(
    chi: Character, spec: NeighborhoodSpec, window: int
) -> WindowCheck:
    """Necessary finite check for continuity: chi must map every member k of
    the neighbourhood with |k| <= window into the closed quarter arc.

    Returns the first failing k (by increasing |k|, positive first) as a
    certificate; a passing window is evidence only, since the full
    neighbourhood is infinite. Since |chi(-k)| = |chi(k)|, the first failing
    member is the least failing k > 0.

    No step is taken per member. The members k = i * step come from the
    index masks of ``_member_sieve`` (step 1 or b_n), and each segment is
    sieved again with chi's condition on i, p * step / q in lowest terms at
    level 1, which ``arc_sieve`` skips when q divides the step. The members
    that fail chi are the bytes where the two masks differ, the first of
    them the lowest set bit of the masks' XOR; the check stops with the
    first segment that holds one. A window that is not an int >= 0 raises
    ValueError.
    """
    step, segments = _member_sieve(spec, window)
    p = chi.value.rep.numerator
    q = chi.value.rep.denominator
    g = math.gcd(step, q)
    chi_cond = (p * (step // g) % (q // g), q // g, 1)
    for lo, mask, conds in segments:
        passing = arc_sieve(lo, lo + len(mask) - 1, conds + [chi_cond])
        failing = int.from_bytes(mask, "little") ^ int.from_bytes(passing, "little")
        if failing:  # mask bytes are 0 or 1: byte i is bit 8i
            return WindowCheck(False, (lo + (trailing_zeros(failing) >> 3)) * step)
    return WindowCheck(True, None)
