"""Exact arithmetic on the circle group R/Z.

Points are stored by their canonical rational representative in the
half-open interval [-1/2, 1/2), so every element has exactly one
representation and equality is plain rational equality. The nested closed
arcs [-1/(4m), 1/(4m)] (one per level m >= 1) are the membership targets
used throughout the neighbourhood and convergence machinery.

A point is validated on integers: its representative p/q (an int or a
Fraction, nothing else) must satisfy -q <= 2p < q. No floating point is
used anywhere; all comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ztop._kernels import wrap_half


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; decimal points are rejected."""
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal literals are not exact: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
    except ValueError:
        raise ValueError(f"not a rational p/q: {text!r}") from None


def rat_str(q: Fraction) -> str:
    """Canonical text form "p/q" with q > 0 and gcd(|p|, q) = 1."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class TorusPoint:
    """A circle-group element by its canonical representative in [-1/2, 1/2)."""

    rep: Fraction

    def __post_init__(self):
        rep = self.rep
        if type(rep) is not Fraction and type(rep) is not int:
            raise ValueError(f"representative {rep!r} is not an int or a Fraction")
        p, q = rep.numerator, rep.denominator
        if not -q <= p << 1 < q:
            raise ValueError(f"representative {rep} outside [-1/2, 1/2)")

    def __str__(self):
        return rat_str(self.rep)


def exact_rational(value, what: str):
    """``value`` if it is an int or a Fraction, parsed if it is "p/q" text. A
    float is refused rather than converted: its exact value is seldom the
    number meant (0.1 is 3602879701896397/36028797018963968). Any other type
    is refused too; ``what`` names the value in the message."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"{what} {value!r} is not an int, a Fraction or 'p/q' text")


def canonicalize(q) -> TorusPoint:
    """The unique point r with r = q (mod 1) and -1/2 <= r < 1/2.

    Accepts Fraction, int, or "p/q" text; a float is refused. Note 1/2 maps
    to -1/2: the range is half-open on the right.
    """
    q = exact_rational(q, "circle value")
    return TorusPoint(Fraction(wrap_half(q.numerator, q.denominator), q.denominator))


def add(x: TorusPoint, y: TorusPoint) -> TorusPoint:
    """Group law; negation and subtraction come from add with int_scale(-1, .)."""
    return canonicalize(x.rep + y.rep)


def int_scale(k: int, x: TorusPoint) -> TorusPoint:
    """k-fold sum of x, i.e. the canonical representative of k*rep(x) mod 1."""
    return canonicalize(k * x.rep)


def check_int(value, what: str) -> int:
    """``value`` if it is an int; a bool, a float or a Fraction is refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def check_positive_int(value, what: str) -> int:
    """``value`` if it is an int >= 1; bools, floats and other types are
    refused rather than truncated."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def check_nonnegative_int(value, what: str) -> int:
    """``value`` if it is an int >= 0, refused as ``check_positive_int``
    refuses: a chain index or a window."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    return value


def check_level(m: int) -> int:
    return check_positive_int(m, "arc level")


def in_arc(x: TorusPoint, m: int) -> bool:
    """Whether x lies in the closed arc [-1/(4m), 1/(4m)] (endpoints included)."""
    check_level(m)
    rep = x.rep
    p = rep.numerator
    if p < 0:
        p = -p
    return 4 * m * p <= rep.denominator
