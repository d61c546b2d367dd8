"""Configurable-precision real arithmetic conventions.

Every quantitative routine in this package computes with mpmath
arbitrary-precision floats at an explicit number of decimal digits,
passed down as a ``precision`` argument (default 50).  Two conventions
are fixed here so all modules agree:

* comparison slack: ``eps_for(P) = 10**-(P-10)``.  The same slack is
  used for probability-mass conservation checks and for "holds up to
  rounding" decisions on inequalities.
* determinism: evaluating the same operation twice at the same
  precision yields bit-identical values (mpmath round-to-nearest at a
  fixed working precision, no hidden global state left behind).

Callers who care about exact decimal inputs should pass strings or
Fractions; a Python float is converted at its exact binary value.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Tuple, Union

import mpmath
from mpmath import mpf

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


def check_precision(precision: int) -> int:
    if not isinstance(precision, int) or precision < MIN_PRECISION:
        raise ValueError(
            f"precision must be an integer >= {MIN_PRECISION}, got {precision!r}"
        )
    return precision


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

    Fractions are converted by one exact division at working precision.
    Strings go through mpmath's decimal parser.  Floats keep their exact
    binary value.
    """
    with working_precision(precision):
        if isinstance(value, Fraction):
            return mpf(value.numerator) / mpf(value.denominator)
        if isinstance(value, (int, str)):
            return mpf(value)
        return mpf(value) * 1  # round mpf/float inputs to working precision


def _exact_weight(pv: mpf) -> Tuple[int, int, int]:
    """A weight pv in [0, 1] and 1 - pv, exactly, as (a, b, e).

    pv = a / 2**e and 1 - pv = b / 2**e with b = 2**e - a; no rounding.
    """
    a, exp = pv.man_exp
    return a, (1 << -exp) - a, -exp
