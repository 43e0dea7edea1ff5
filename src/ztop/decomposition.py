"""Balanced decomposition of integers over a pivot chain.

Every integer l can be written l = sum k_i * b_i with digits bounded by
|k_n| <= b_{n+1} / (2 b_n) and partial sums bounded by
|sum_{i<=n} k_i b_i| <= b_{n+1} / 2. The digits fall out of repeated
nearest-integer rounding with half-ties broken toward zero, working from
the top index N (minimal with b_N >= |l|) downwards.

All integers are accepted, not just naturals: the digit recursion is odd,
so decompose(-l) yields the negated digits of l. decompose(0) returns the
empty digit list and recomposes to 0.

``round_trip_failures`` is the exhaustive sweep of criterion 1: it runs the
kernels behind ``decompose`` and ``recompose_and_check`` over a whole range
of l with one fetch of the chain prefix, and reports each failing l with
the check it failed. Digits that are exactly l's negated recompose to minus
l's value and keep both bounds, each bound being on an absolute value, so
-l is verified only when l failed or its digits are not l's negated; the
failures are those of verifying every l, whatever the digit kernel returns.

Both kernels work per nonzero digit, not per chain level. A level whose
remainder r has 2|r| <= b_n rounds to the digit 0 and leaves r unchanged,
so the decomposition jumps straight to the largest b_n < 2|r|. A zero digit
leaves both bounds to the level before it: its own digit bound is
0 <= b_{n+1}, and its partial sum is the previous one, already held to
b_n < b_{n+1}.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

from ztop._kernels import coefficient_checks, decompose_digits
from ztop.pivots import PivotSequence
from ztop.torus import check_int, check_positive_int, exact_rational


def nearest_int(q) -> int:
    """Nearest integer to the rational q, an int, a Fraction or "p/q" text (a
    float is refused); exact half-ties resolve toward zero. |q| is rounded
    as ``decompose_digits`` rounds a digit, with one floor division."""
    q = exact_rational(q, "value")
    p, d = q.numerator, q.denominator
    f = ((-p if p < 0 else p) * 2 + d - 1) // (d * 2)
    return -f if p < 0 else f


class PivotCoefficients(NamedTuple):
    """Digits of one integer over one pivot chain.

    ``coeffs`` is trimmed of trailing zeros (lowest index first);
    ``top_index`` is the minimal N with b_N >= |source| when the digits come
    from ``decompose`` (None for l = 0 and for hand-built digit lists).
    """

    source: int
    coeffs: tuple[int, ...]
    pivots: PivotSequence
    top_index: int | None

    def text(self) -> str:
        return ",".join(str(k) for k in self.coeffs)


class CoefficientCheck(NamedTuple):
    value: int
    sum_ok: bool
    digit_bounds_ok: bool
    partial_sum_bounds_ok: bool

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.digit_bounds_ok and self.partial_sum_bounds_ok


def decompose(l: int, pivots: PivotSequence) -> PivotCoefficients:
    """Balanced digits of l over the chain; deterministic.

    Raises BitBudgetExceeded if reaching b_N >= |l| would blow the chain's
    bit budget. An l that is not an int (a bool, a float) is refused. l = 0
    has its own branch: its printed ``top_index`` is None.
    """
    if check_int(l, "l") == 0:
        return PivotCoefficients(0, (), pivots, None)
    al = -l if l < 0 else l
    terms = pivots.terms_until(al)
    top = bisect_left(terms, al)
    return PivotCoefficients(l, tuple(decompose_digits(l, terms, top)), pivots, top)


def coefficients_from_digits(
    digits: Sequence[int],
    pivots: PivotSequence,
    source: int | None = None,
) -> PivotCoefficients:
    """Wrap a hand-built digit list for checking; ``source`` defaults to the
    recomposed value, so sum_ok is then trivially true. A digit or source
    that is not an int (a bool, a float, a Fraction) is refused, not
    truncated."""
    digits = tuple(check_int(d, "digit") for d in digits)
    if source is None:
        source = sum(k * pivots.term(n) for n, k in enumerate(digits))
    return PivotCoefficients(check_int(source, "source"), digits, pivots, None)


def recompose_and_check(coeffs: PivotCoefficients) -> CoefficientCheck:
    """Recompute sum k_i b_i and evaluate each balance invariant independently.

    Violations are reported, never raised, so the checker is usable on
    invalid hand-built digit lists. Trailing zero digits do not change any
    verdict, and an empty list recomposes to 0 within both bounds.
    """
    digits = coeffs.coeffs
    terms = coeffs.pivots.terms_until(1, extra=len(digits))
    value, digit_ok, partial_ok = coefficient_checks(digits, terms)
    return CoefficientCheck(value, value == coeffs.source, digit_ok, partial_ok)


def round_trip_failures(pivots: PivotSequence, limit: int) -> list[tuple[int, CoefficientCheck]]:
    """The pairs (l, check) for every l with |l| <= limit whose balanced
    digits fail to recompose to l or break a balance bound, in increasing
    order of l; ``check`` is what ``recompose_and_check(decompose(l,
    pivots))`` reports. ``limit`` must be an int >= 1.

    The sweep form of those two wrappers: the chain prefix is fetched once
    and every l != 0 goes through the same ``decompose_digits`` kernel and,
    unless its verdict is already known, ``coefficient_checks``; l = 0
    goes through the wrappers themselves.

    The sweep runs l = 1..limit and decomposes l and -l, which share the
    top index. ``coefficient_checks`` of the negated digits of l returns
    minus l's value and l's two bound verdicts, since both bounds compare
    absolute values at the same nonzero digits. So when l passes and the
    digits of -l are exactly l's negated, -l passes too, and only otherwise
    are the digits of -l checked. That holds for any digit kernel, so the
    failures are those of checking every l.
    """
    terms = pivots.terms_until(check_positive_int(limit, "limit"), extra=1)
    negatives = []
    positives = []
    for l in range(1, limit + 1):
        top = bisect_left(terms, l)
        digits = decompose_digits(l, terms, top)
        value, digit_ok, partial_ok = coefficient_checks(digits, terms)
        failed = value != l or not (digit_ok and partial_ok)
        if failed:
            positives.append((l, CoefficientCheck(value, value == l, digit_ok, partial_ok)))
        mirror = decompose_digits(-l, terms, top)
        if failed or mirror != [-k for k in digits]:
            value, digit_ok, partial_ok = coefficient_checks(mirror, terms)
            if value != -l or not (digit_ok and partial_ok):
                negatives.append((-l, CoefficientCheck(value, value == -l, digit_ok, partial_ok)))
    zero = recompose_and_check(decompose(0, pivots))
    return negatives[::-1] + ([] if zero.ok else [(0, zero)]) + positives
