"""Shared test helpers: high-precision comparison and exact oracles."""

from fractions import Fraction
from math import comb
from typing import List

import mpmath
import pytest

from discrete_epi.precision import working_precision

# The denominator-cleared slack polynomial g(n, t), frozen
# coefficient-for-coefficient.  Keys are (n-degree, t-degree).
G_EXPECTED = {
    exponents: Fraction(c)
    for exponents, c in {
        (7, 1): 35, (6, 2): 35, (6, 1): 315, (6, 0): 70,
        (5, 3): -721, (5, 2): -3339, (5, 1): -2989, (5, 0): -315,
        (4, 4): -546, (4, 3): -1568, (4, 2): 371, (4, 1): 721, (4, 0): -826,
        (3, 5): -10, (3, 4): -66, (3, 3): -157, (3, 2): -135, (3, 1): -90,
        (3, 0): -826, (2, 0): -630, (1, 0): -315, (0, 0): -70,
    }.items()
}


@pytest.fixture
def dps50():
    """Run the test body at 50 working digits."""
    with working_precision(50):
        yield 50


def assert_close(actual, expected, tol="1e-40"):
    """Absolute-difference assertion evaluated in mpf arithmetic."""
    diff = abs(mpmath.mpf(actual) - mpmath.mpf(expected))
    bound = mpmath.mpf(tol)
    assert diff <= bound, f"|{actual} - {expected}| = {diff} > {bound}"


def exact_value(x: mpmath.mpf) -> Fraction:
    """The exact binary value of an mpf."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def exact_binomial_weights(n: int, p: Fraction) -> List[Fraction]:
    """Binomial(n, p) weights in exact rational arithmetic."""
    q = 1 - p
    return [comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)]


def exact_central_moment(n: int, p: Fraction, k: int) -> Fraction:
    """k-th central moment of Binomial(n, p), exact."""
    weights = exact_binomial_weights(n, p)
    mean = n * p
    return sum(w * (Fraction(i) - mean) ** k for i, w in enumerate(weights))


def exact_taylor_coeff(k: int, p: Fraction) -> Fraction:
    """F_k(p) = ((1-p)**(1-k) + (-1)**k p**(1-k)) / (k (k-1)), exact, k >= 2."""
    return ((1 - p) ** (1 - k) + (-1) ** k * p ** (1 - k)) / (k * (k - 1))


def exact_bernoulli_cumulants(p: Fraction, max_order: int) -> List[Fraction]:
    """kappa_1 .. kappa_K of Bernoulli(p), exact.

    Every raw moment m_n equals p, and the standard recurrence gives
    kappa_n = m_n - sum_{j=1}^{n-1} C(n-1, j-1) kappa_j m_{n-j}.
    """
    kappas: List[Fraction] = []
    for n in range(1, max_order + 1):
        kappas.append(p - sum(comb(n - 1, j - 1) * kappas[j - 1] * p for j in range(1, n)))
    return kappas


def skew_parameter(p: Fraction) -> Fraction:
    """The squared-skewness reparametrisation (2p-1)**2 / (p(1-p))."""
    return (2 * p - 1) ** 2 / (p * (1 - p))
