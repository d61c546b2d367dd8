"""Configurable-precision real arithmetic conventions.

Every quantitative routine in this package computes with mpmath
arbitrary-precision floats at an explicit number of decimal digits,
passed down as a ``precision`` argument (default 50), which is
``_bits(precision)`` bits of mantissa.  Five conventions are fixed here
so all modules agree:

* verdicts: ``_slack_sign`` is the only place where a margin is
  compared with its slack.  Every ``holds`` and ``meets_*`` flag, and
  every sign a scan reads off a margin, comes from it.  The slack is
  ``eps_for(P) = 10**-(P-10)`` unless the caller passes its own: the
  smoothed increments pass their two reported errors, and the
  command line's bound flags pass 0.  Error model: a margin within
  the slack of 0 reads as 0, and a flag counts it as holding.  The
  eps slack is neither rigorous nor reported: it is not derived from
  the error of the margin it is compared with, and no output shows
  it.  The same eps bounds the mass check of ``IntegerPmf``.
* conversion: ``as_mpf`` rounds an int or an mpf once to nearest at
  ``_bits(precision)`` bits, on mpmath's raw ``libmp`` tuples (sign,
  man, exp, bc), with no change of the global working precision.  A
  Fraction is its numerator over its denominator, each rounded so and
  then divided with one more rounding: the roundings of the mpf
  expression ``mpf(num) / mpf(den)``.  Strings and floats go through
  mpmath's own constructor at the working precision.
* probabilities: ``_probability`` is the only place where the range
  of a p is checked, on the raw tuple; it enters
  ``working_precision`` only to format a refusal.  It raises one of
  two messages, "p must lie in [0, 1], got ..." or "p must lie
  strictly in (0, 1), got ...".
* arguments: ``_count`` and ``_positive`` are the only places where a
  count or a positive real is checked.  A count is an int of at least
  its least value: "<name> must be a nonnegative integer, got ...",
  "... a positive integer, got ..." or "... an integer >= <least>,
  got ...".  A positive real such as sigma or a tolerance is refused
  with "<name> must be positive, got ..." or "<name> must be finite,
  got +inf".
* determinism: evaluating the same operation twice at the same
  precision yields bit-identical values (mpmath round-to-nearest at a
  fixed working precision, no hidden global state left behind).

Callers who care about exact decimal inputs should pass strings or
Fractions; a Python float is converted at its exact binary value.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional, Tuple, Union

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, fnan, fone, fzero, from_int, mpf_div, mpf_gt, mpf_pos

__all__ = [
    "DEFAULT_PRECISION",
    "MIN_PRECISION",
    "as_mpf",
    "eps_for",
    "working_precision",
]
DEFAULT_PRECISION = 50
MIN_PRECISION = 20

RealLike = Union[int, float, str, Fraction, mpf]


def _count(value: int, name: str, least: int = 0) -> int:
    """value, refused unless it is an int of at least ``least``.

    Raises ValueError with the count message of the module docstring.
    """
    if not isinstance(value, int) or value < least:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}
        raise ValueError(
            f"{name} must be {kind.get(least, f'an integer >= {least}')}, got {value!r}"
        )
    return value


def check_precision(precision: int) -> int:
    return _count(precision, "precision", MIN_PRECISION)


@functools.lru_cache(maxsize=None)
def _bits(precision: int) -> int:
    """Working precision in bits at ``precision`` decimal digits."""
    return dps_to_prec(check_precision(precision))


def working_precision(precision: int):
    """Context manager setting the mpmath working precision in digits."""
    return mpmath.workdps(check_precision(precision))


@functools.lru_cache(maxsize=None)
def eps_for(precision: int) -> mpf:
    """Comparison slack 10**-(precision-10) at the given precision.

    Computed once per precision; mpf values are immutable.
    """
    check_precision(precision)
    with mpmath.workdps(precision):
        return mpf(10) ** (-(precision - 10))


def as_mpf(value: RealLike, precision: int) -> mpf:
    """Convert a number-like value to an mpf at the given precision.

    Ints and mpfs are rounded once to the working precision; a Fraction
    is its numerator over its denominator, each rounded so, divided with
    one more rounding.  Strings go through mpmath's decimal parser.
    Floats keep their exact binary value.
    """
    if isinstance(value, (int, mpf, Fraction)):
        prec = _bits(precision)
        if isinstance(value, int):
            return mp.make_mpf(from_int(value, prec, "n"))
        if isinstance(value, mpf):
            return mp.make_mpf(mpf_pos(value._mpf_, prec, "n"))
        num, den = from_int(value.numerator, prec, "n"), from_int(value.denominator, prec, "n")
        return mp.make_mpf(mpf_div(num, den, prec, "n"))
    with working_precision(precision):
        if isinstance(value, str):
            return mpf(value)
        return mpf(value) * 1  # round float inputs to working precision


def _probability(p: RealLike, precision: int, strict: bool = False) -> mpf:
    """p at the given precision, refused unless it lies in [0, 1].

    With ``strict`` the endpoints are refused too.  Raises ValueError
    with one of the two messages in the module docstring.
    """
    pv = as_mpf(p, precision)
    x = pv._mpf_
    if x[0] or x == fnan or mpf_gt(x, fone) or strict and x in (fzero, fone):
        with working_precision(precision):
            if strict:
                raise ValueError(f"p must lie strictly in (0, 1), got {pv}")
            raise ValueError(f"p must lie in [0, 1], got {pv}")
    return pv


def _positive(value: RealLike, name: str, precision: int) -> mpf:
    """value at the given precision, refused unless it is positive and finite.

    Raises ValueError with one of the two messages in the module
    docstring.
    """
    v = as_mpf(value, precision)
    with working_precision(precision):
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")
        if v == mpmath.inf:
            raise ValueError(f"{name} must be finite, got +inf")
    return v


def _slack_sign(margin: mpf, precision: int, slack: Optional[RealLike] = None) -> int:
    """1 if margin > slack, -1 if margin < -slack, else 0.

    ``slack`` defaults to ``eps_for(precision)``; pass 0 to read the
    sign of a margin exactly.  Call it inside
    ``working_precision(precision)``, where -slack is exact.
    """
    bound = eps_for(precision) if slack is None else slack
    return (margin > bound) - (margin < -bound)


def _exact_weight(pv: mpf) -> Tuple[int, int, int]:
    """A weight pv in [0, 1] and 1 - pv, exactly, as (a, b, e).

    pv = a / 2**e and 1 - pv = b / 2**e with b = 2**e - a; no rounding.
    """
    a, exp = pv.man_exp
    return a, (1 << -exp) - a, -exp
