"""Pivot sequences: divisibility chains b_0 = 1 | b_1 | b_2 | ... with
strictly increasing terms (so each ratio b_{n+1}/b_n is at least 2).

Two descriptor kinds are supported:

* ``TwoPowerExponent`` -- b_n = 2^(a_n) for a closed-form exponent sequence
  a_n (linear, square, factorial, pow2, or ``poly:c1,...,cd``, the
  polynomial c1*n + ... + cd*n^d with integer coefficients >= 0, not all 0).
  Every form starts at a_0 = 0 and increases strictly by construction; the
  factorial and pow2 forms are clamped to a_0 = 0 so that b_0 = 1.
* ``MultiplierChain`` -- b_n is the running product of a periodic list of
  integer multipliers >= 2.

Either way the chain's prime support is known: 2, or the primes of one
multiplier period. A descriptor checks itself when it is built, so every
descriptor builds a chain.

Terms are memoized lazily; a configurable bit budget (default 10**6 bits per
term, overridable via the ZTOP_BIT_BUDGET environment variable) guards
against runaway growth of chains like 2^(n^2). Term evaluation is
deterministic and safe under concurrent access.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Union

from ztop.torus import check_positive_int

DEFAULT_BIT_BUDGET = 1_000_000
BIT_BUDGET_ENV = "ZTOP_BIT_BUDGET"

EXPONENT_FORMS = ("linear", "square", "factorial", "pow2", "poly")


class BitBudgetExceeded(RuntimeError):
    """A pivot term (or sequence value) would exceed the configured bit size."""


@dataclass(frozen=True)
class TwoPowerExponent:
    """Descriptor for chains b_n = 2^(a_n) with a closed-form exponent a_n."""

    form: str
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        """Refuse what builds no chain; every form that passes increases
        strictly, so growth checks only the bit budget."""
        form, coeffs = self.form, self.coeffs
        if form not in EXPONENT_FORMS:
            raise ValueError(f"unknown exponent form {form!r}")
        if type(coeffs) is not tuple:
            raise ValueError(f"exponent coefficients must be a tuple, got {coeffs!r}")
        if form != "poly" and coeffs:
            raise ValueError(f"exponent form {form!r} takes no coefficients, got {coeffs!r}")
        if form == "poly" and not (all(type(c) is int and c >= 0 for c in coeffs) and any(coeffs)):
            raise ValueError(f"exponent form {self.text!r} needs integer coefficients >= 0, not all 0")

    def exponent(self, n: int) -> int:
        if self.form == "linear":
            return n
        if self.form == "square":
            return n * n
        if self.form == "factorial":
            return 0 if n == 0 else math.factorial(n)
        if self.form == "pow2":
            return 0 if n == 0 else 1 << n
        # poly: c1..cd by Horner's rule; no constant term, so a_0 = 0
        a = 0
        for c in reversed(self.coeffs):
            a = (a + c) * n
        return a

    @property
    def text(self) -> str:
        if self.form == "poly":
            return "poly:" + ",".join(str(c) for c in self.coeffs)
        return self.form


@dataclass(frozen=True)
class MultiplierChain:
    """Descriptor for chains built from a periodically repeated multiplier list."""

    multipliers: tuple[int, ...]

    def __post_init__(self):
        if type(self.multipliers) is not tuple:
            raise ValueError(f"multipliers must be a tuple, got {self.multipliers!r}")
        if not self.multipliers:
            raise ValueError("multiplier chain needs at least one multiplier")
        for m in self.multipliers:
            if not isinstance(m, int) or m < 2:
                raise ValueError(f"multipliers must be integers >= 2, got {m!r}")

    def multiplier(self, step: int) -> int:
        return self.multipliers[(step - 1) % len(self.multipliers)]

    @property
    def text(self) -> str:
        return "chain:" + ",".join(str(m) for m in self.multipliers)


PivotDescriptor = Union[TwoPowerExponent, MultiplierChain]


def parse_descriptor(text: str) -> PivotDescriptor:
    """Parse the CLI descriptor format.

    Accepted forms: ``linear``, ``square``, ``factorial``, ``pow2``,
    ``poly:c1,c2,...`` (coefficients of n^1..n^d), ``chain:m1,m2,...``
    (periodic multipliers).
    """
    text = text.strip()
    if text in ("linear", "square", "factorial", "pow2"):
        return TwoPowerExponent(text)
    kind, colon, args = text.partition(":")
    if not colon or kind not in ("poly", "chain"):
        raise ValueError(f"unknown pivot descriptor {text!r}")
    try:
        ints = tuple(int(a) for a in args.split(","))
    except ValueError:
        raise ValueError(f"pivot descriptor {text!r} needs comma-separated integers") from None
    return TwoPowerExponent("poly", ints) if kind == "poly" else MultiplierChain(ints)


def resolve_bit_budget(bit_budget: int | None = None) -> int:
    """The given budget, else ZTOP_BIT_BUDGET, else the default. Both must
    be an integer >= 1; a given budget that is a bool or a float is refused,
    not truncated."""
    if bit_budget is not None:
        return check_positive_int(bit_budget, "bit budget")
    env = os.environ.get(BIT_BUDGET_ENV)
    if env is None:
        return DEFAULT_BIT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"{BIT_BUDGET_ENV} must be an integer >= 1, got {env!r}")
    return budget


class PivotSequence:
    """Lazily evaluated, memoized divisibility chain b_0, b_1, b_2, ...

    The chain itself defines the linear neighbourhoods b_n * Z and the unit
    fractions 1/b_n (n >= 1) on which uniform convergence is measured.
    """

    def __init__(self, descriptor: PivotDescriptor, bit_budget: int | None = None):
        if not isinstance(descriptor, (TwoPowerExponent, MultiplierChain)):
            raise TypeError(f"not a pivot descriptor: {descriptor!r}")
        self.descriptor = descriptor
        self.bit_budget = resolve_bit_budget(bit_budget)
        self._memo: list[int] = [1]
        self._lock = threading.Lock()

    # -- term access -------------------------------------------------------

    def term(self, n: int) -> int:
        """Exact b_n; deterministic across calls and threads."""
        if type(n) is not int or n < 0:  # a bool or a float is no index
            raise ValueError(f"term index must be an integer >= 0, got {n!r}")
        memo = self._memo
        if n < len(memo):
            return memo[n]
        with self._lock:
            while len(self._memo) <= n:
                self._append_next()
        return self._memo[n]

    def terms(self, count: int) -> list[int]:
        """The prefix [b_0, ..., b_{count-1}] as a fresh list; a count that is
        not an int >= 1, a bool or a float included, is refused."""
        self.term(check_positive_int(count, "term count") - 1)
        return self._memo[:count]

    def terms_until(self, bound: int, extra: int = 0) -> list[int]:
        """Memoized prefix whose last needed term is >= bound, plus ``extra``.

        Returns the live memo list for speed; callers must treat it as
        read-only. The list is guaranteed to contain a term >= max(bound, 1)
        and ``extra`` terms after the first such term.
        """
        memo = self._memo
        if memo[-1] < bound:
            with self._lock:
                while memo[-1] < bound:
                    self._append_next()
        if extra:
            last = bisect_left(memo, bound) + extra
            if last >= len(memo):
                with self._lock:
                    while len(memo) <= last:
                        self._append_next()
        return memo

    def cycle_product(self) -> int:
        """Product of one multiplier period, 2 on a two-power chain: its
        primes are the chain's prime support."""
        d = self.descriptor
        return 2 if isinstance(d, TwoPowerExponent) else math.prod(d.multipliers)

    @property
    def text(self) -> str:
        return self.descriptor.text

    # -- growth ------------------------------------------------------------

    def _append_next(self):
        d = self.descriptor
        i = len(self._memo)
        if isinstance(d, TwoPowerExponent):
            a = d.exponent(i)
            if a + 1 > self.bit_budget:
                raise BitBudgetExceeded(
                    f"term b_{i} of {d.text!r} needs {a + 1} bits (budget {self.bit_budget})"
                )
            self._memo.append(1 << a)
        else:
            nxt = self._memo[-1] * d.multiplier(i)
            if nxt.bit_length() > self.bit_budget:
                raise BitBudgetExceeded(
                    f"term b_{i} of {d.text!r} needs {nxt.bit_length()} bits "
                    f"(budget {self.bit_budget})"
                )
            self._memo.append(nxt)


def make_pivots(descriptor: PivotDescriptor | str, bit_budget: int | None = None) -> PivotSequence:
    """Build a pivot sequence from a descriptor or its text form."""
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    return PivotSequence(descriptor, bit_budget=bit_budget)
