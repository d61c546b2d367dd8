"""The exact kernels written in Fraction arithmetic: oracles for the integer ones.

``polycert`` keeps its polynomials, and ``moments_bounds`` its moment
coefficients and Laurent tables, as integer numerators over one common
denominator.  The functions here are the same computations spelled with
Fractions, term by term as the package once ran them: Horner over
products and sums of Fraction coefficient maps for ``compose_first``,
one product by a power of (1 + t) per term for the skew
reparametrisation, and the moment rows and F_k(p) summed as Fractions.
The product and sum are this module's own, so no ``BivarPoly``
arithmetic enters an oracle.  The tests assert that the integer kernels
give equal values.
"""

import functools
import math
from fractions import Fraction
from typing import Dict, Tuple

from discrete_epi.moments_bounds import _moment_poly
from discrete_epi.polycert import BivarPoly

Coeffs = Dict[Tuple[int, int], Fraction]


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return out


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out: Coeffs = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


def _compose_first(coeffs: Coeffs, replacement: Coeffs) -> Coeffs:
    slices: Dict[int, Coeffs] = {}
    for (i, j), c in coeffs.items():
        slices.setdefault(i, {})[(0, j)] = c
    result: Coeffs = {}
    for d in range(max((i for i, _ in coeffs), default=-1), -1, -1):
        result = _add(_mul(result, replacement), slices.get(d, {}))
    return result


def compose_first(poly: BivarPoly, replacement: BivarPoly) -> BivarPoly:
    """poly with its first variable replaced, by Horner over Fraction products."""
    coeffs = _compose_first(dict(poly.coeffs), dict(replacement.coeffs))
    return BivarPoly.from_terms(replacement.vars, coeffs)


def rational_substitute_t(g: BivarPoly) -> BivarPoly:
    """g at n = 7 + m and t -> t/(4(1+t)), cleared by (4(1+t))**top."""
    shifted = _compose_first(dict(g.coeffs), {(1, 0): Fraction(1), (0, 0): Fraction(7)})
    top = max(j for _, j in shifted)
    out: Coeffs = {}
    for (i, j), c in shifted.items():
        piece = {(i, j): c * Fraction(4) ** (top - j)}
        for _ in range(top - j):
            piece = _mul(piece, {(0, 1): Fraction(1), (0, 0): Fraction(1)})
        out = _add(out, piece)
    return BivarPoly.from_terms(("m", "t"), out)


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
