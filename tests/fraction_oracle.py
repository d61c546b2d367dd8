"""The exact kernels written in Fraction arithmetic: oracles for the integer ones.

``polycert`` runs its substitutions, and ``moments_bounds`` its moment
coefficients and Laurent tables, on integer numerators over one common
denominator.  The functions here are the same computations spelled with
Fractions, term by term as the package once ran them: Horner over
``BivarPoly`` products and sums for ``compose_first``, one ``BivarPoly``
product by a power of (1 + t) per term for the skew reparametrisation,
and the moment rows and F_k(p) summed as Fractions.  The tests assert
that the integer kernels give equal values.
"""

import functools
import math
from fractions import Fraction
from typing import Dict, Tuple

from discrete_epi.moments_bounds import _moment_poly
from discrete_epi.polycert import BivarPoly


def compose_first(poly: BivarPoly, replacement: BivarPoly) -> BivarPoly:
    """poly with its first variable replaced, by Horner over Fraction products."""
    slices: Dict[int, Dict[Tuple[int, int], Fraction]] = {}
    for (i, j), c in poly.coeffs.items():
        slices.setdefault(i, {})[(0, j)] = c
    result = BivarPoly.zero(replacement.vars)
    for d in range(poly.degree(0), -1, -1):
        result = result * replacement
        if d in slices:
            result = result + BivarPoly(replacement.vars, slices[d])
    return result


def rational_substitute_t(g: BivarPoly) -> BivarPoly:
    """g at n = 7 + m and t -> t/(4(1+t)), cleared by (4(1+t))**top."""
    mt = ("m", "t")
    shifted = compose_first(g, BivarPoly.from_terms(mt, {(1, 0): 1, (0, 0): 7}))
    top = shifted.degree(1)
    one_plus_t = BivarPoly.from_terms(mt, {(0, 1): 1, (0, 0): 1})
    out = BivarPoly.zero(mt)
    for (i, j), c in shifted.coeffs.items():
        piece = BivarPoly.from_terms(mt, {(i, j): c * Fraction(4) ** (top - j)})
        out = out + piece * one_plus_t.power(top - j)
    return out


@functools.lru_cache(maxsize=None)
def moment_coeffs(p: Fraction, k: int) -> Tuple[Tuple[int, ...], int]:
    """(N, L) with mu_k of Binomial(n, p) = sum_i (N[i] / L) n**i, in Fractions."""
    r = p - Fraction(1, 2)
    c = [sum(a * r**j for j, a in enumerate(row)) for row in _moment_poly(k)]
    den = math.lcm(*(x.denominator for x in c))
    return tuple(x.numerator * (den // x.denominator) for x in c), den


def laurent_table(p: Fraction, l: int) -> Tuple[Tuple[int, ...], int]:
    """(N, L) with Gamma_l(j) = sum_w (N[w-1] / L) j**-w, in Fractions."""
    q = 1 - p
    table = [Fraction(0)] * (2 * l + 1)
    for k in range(2, 2 * l + 2):
        fk = (q ** (1 - k) + (-1) ** k * p ** (1 - k)) / (k * (k - 1))
        nums, den = moment_coeffs(p, k)
        for i in range(1, len(nums)):  # mu_k(0) = 0
            table[k - i] += fk * Fraction(nums[i], den)
    den = math.lcm(*(d.denominator for d in table[1:]))
    return tuple(d.numerator * (den // d.denominator) for d in table[1:]), den
