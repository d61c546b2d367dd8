"""Exact rational certificates for the half-log step condition.

Everything here is exact; no floats enter at any point.  A polynomial
is integer numerators over one common denominator, so products, sums
and substitutions run on integers alone; Fractions are only the way
coefficients come in (``BivarPoly.from_terms``) and go out
(``BivarPoly.coeffs``).

The object being certified is the step-condition slack

    f(n, t) = sum_{k=2}^{7} F_k j**-k mu_k(j) |_{j=n+1}
              - 1/(2n) + 1/(4n**2) - 1/(6n**3),

written in the skew variable t >= 0 with r**2 = t/(4(t+4)), where the
last three terms over-estimate (1/2) ln((n+1)/n).  f(n, t) >= 0 hence
implies the half-log entropy step at size n for the Bernoulli parameter
with that skew.  Clearing denominators,

    g(n, t) = 420 (n+1)**6 n**3 f(n, t)

is a polynomial with integer coefficients.  Nonnegativity of f from a
threshold n0(t) onward is certified by substituting n = (shift) + m and
checking that every coefficient of the resulting polynomial in (m, t)
is nonnegative: positivity then holds for all real m, t >= 0 at once.

Substitutions shipped:

    A        n = 111/25 t + 7 + m      linear threshold
    Aprime   n = 2219/500 t + 7 + m    sharper linear threshold
    B        n = t**2 + 117/50 t + 7 + m   quadratic threshold
    C        n = 7 + m with t -> t/(4(1+t))    certifies n0 = 7 for
             skew in (0, 1/4) after clearing the (1+t) denominators
    control  n = t + 1 + m             must FAIL: keeps the engine
             falsifiable

Construction of g.  Polynomials are ``BivarPoly``: maps from exponent
pairs to integer numerators over one denominator.  Write N = n + 1,
p = 1/2 + r, q = 1/2 - r and u = pq = 1/4 - r**2 = 1/(t+4).  Since
F_k(p) k (k-1) (pq)**(k-1) = p**(k-1) + (-1)**k q**(k-1), and the
moment table gives mu_k(N) = sum_{b>=1} N**b P_kb(r)
(``moments_bounds._moment_poly``),

    h(n, r) = u**6 g
            = sum_{k=2}^{7} 420/(k(k-1)) n**3 [p**(k-1) + (-1)**k q**(k-1)]
                  u**(7-k) sum_b N**(b+6-k) P_kb(r)
              - 420 N**6 u**6 (n**2/2 - n/4 + 1/6).

Every exponent is >= 0 because b >= 1 and k <= 7, so h is a plain
polynomial in (r, N), built with n = N - 1.  h is even in r, so
r**2 = 1/4 - u gives h = sum_j h_j(n) u**j, and then
g = sum_j h_j(n) (t+4)**(6-j), a polynomial exactly when deg_u h <= 6.
Each substitution is one Horner ``compose_first``: r**2 -> 1/4 - u,
then v -> t + 4 after reflecting u**j to v**(6-j), then N -> n + 1.
A moment row with an n**0 term, an odd power of r in h, or deg_u h > 6
raises ConsistencyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple, Union

from .errors import ConsistencyError
from .moments_bounds import _moment_poly
from .precision import _count

__all__ = [
    "BivarPoly",
    "CertificateReport",
    "QUAD_LINEAR_COEFF",
    "THRESHOLD_SLOPE",
    "THRESHOLD_SLOPE_REFINED",
    "build_g",
    "certify",
    "quadratic_shift_expand",
    "rational_substitute_t",
    "shift_expand",
]

THRESHOLD_SLOPE = Fraction(111, 25)
THRESHOLD_SLOPE_REFINED = Fraction(2219, 500)
QUAD_LINEAR_COEFF = Fraction(117, 50)

FractionLike = Union[int, str, Fraction]

Exponents = Tuple[int, int]


def _frac(x: FractionLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, eq=True)
class BivarPoly:
    """Polynomial in two named variables: integer numerators over one denominator.

    ``nums`` maps (deg_first, deg_second) to a nonzero integer and ``den``
    is one positive integer; the polynomial is sum nums[e] x**i y**j / den.
    Both are reduced by their gcd, so equal polynomials compare equal, and
    the zero polynomial is an empty map over 1.  ``coeffs`` is the same
    polynomial as a map to Fractions.  Instances are immutable (both maps
    are read-only); all arithmetic returns new objects and requires
    matching variable names.
    """

    vars: Tuple[str, str]
    nums: Mapping[Exponents, int]
    den: int = 1

    def __post_init__(self):
        den = _count(self.den, "den", 1)
        nums = {
            (_count(i, "exponent"), _count(j, "exponent")): c
            for (i, j), c in self.nums.items()
            if c
        }
        g = math.gcd(den, *nums.values())
        object.__setattr__(self, "nums", MappingProxyType({e: c // g for e, c in nums.items()}))
        object.__setattr__(self, "den", den // g)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, vars: Tuple[str, str]) -> "BivarPoly":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: Tuple[str, str], c: FractionLike) -> "BivarPoly":
        return cls.from_terms(vars, {(0, 0): c})

    @classmethod
    def from_terms(
        cls, vars: Tuple[str, str], terms: Dict[Exponents, FractionLike]
    ) -> "BivarPoly":
        """The polynomial with the given Fraction-like coefficients."""
        fracs = {e: _frac(c) for e, c in terms.items()}
        den = math.lcm(*(c.denominator for c in fracs.values()))
        return cls(vars, {e: c.numerator * (den // c.denominator) for e, c in fracs.items()}, den)

    # -- queries -------------------------------------------------------
    @cached_property
    def coeffs(self) -> Mapping[Exponents, Fraction]:
        """Read-only map from exponent pairs to nonzero Fractions."""
        return MappingProxyType({e: Fraction(c, self.den) for e, c in self.nums.items()})

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self, axis: int) -> int:
        """Largest exponent along axis (zero polynomial reports -1)."""
        if not self.nums:
            return -1
        return max(e[axis] for e in self.nums)

    def sorted_terms(self) -> List[Tuple[int, int, Fraction]]:
        """Terms ordered by first-variable degree descending, then second ascending."""
        return [
            (i, j, self.coeffs[(i, j)])
            for (i, j) in sorted(self.nums, key=lambda e: (-e[0], e[1]))
        ]

    def evaluate(self, x: FractionLike, y: FractionLike) -> Fraction:
        """Exact value at (x, y), summed on integers over one denominator."""
        (a, b), (c, d) = _frac(x).as_integer_ratio(), _frac(y).as_integer_ratio()
        di, dj = max(self.degree(0), 0), max(self.degree(1), 0)
        total = sum(
            v * a**i * b ** (di - i) * c**j * d ** (dj - j) for (i, j), v in self.nums.items()
        )
        return Fraction(total, self.den * b**di * d**dj)

    # -- arithmetic ----------------------------------------------------
    def _check_vars(self, other: "BivarPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        self._check_vars(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {e: c * a for e, c in self.nums.items()}
        for e, c in other.nums.items():
            out[e] = out.get(e, 0) + c * b
        return BivarPoly(self.vars, out, den)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly(self.vars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        self._check_vars(other)
        return BivarPoly(self.vars, _product(self.nums, other.nums), self.den * other.den)

    def scale(self, c: FractionLike) -> "BivarPoly":
        a, b = _frac(c).as_integer_ratio()
        return BivarPoly(self.vars, {e: v * a for e, v in self.nums.items()}, self.den * b)

    def power(self, k: int) -> "BivarPoly":
        nums: Dict[Exponents, int] = {(0, 0): 1}
        for _ in range(_count(k, "k")):
            nums = _product(nums, self.nums)
        return BivarPoly(self.vars, nums, self.den**k)

    def compose_first(self, replacement: "BivarPoly") -> "BivarPoly":
        """Substitute the first variable by a polynomial in new variables.

        The result is in the replacement's variables.  The second variable
        is carried over unchanged, so the replacement's second variable
        must mean the same quantity.  Evaluation is Horner over descending
        first-variable degree on the numerators: with self = sum_d S_d x**d / E
        and replacement = R / D, the steps acc <- acc R + S_d D**(deg - d)
        leave acc = E D**deg self(R / D), which is reduced once at the end.
        """
        if self.is_zero():
            return BivarPoly.zero(replacement.vars)
        slices: Dict[int, List[Tuple[int, int]]] = {}
        for (i, j), c in self.nums.items():
            slices.setdefault(i, []).append((j, c))
        deg = self.degree(0)
        acc: Dict[Exponents, int] = {}
        scale = 1  # D**(deg - d)
        for d in range(deg, -1, -1):
            acc = _product(acc, replacement.nums)
            for j, c in slices.get(d, ()):
                acc[(0, j)] = acc.get((0, j), 0) + c * scale
            scale *= replacement.den
        return BivarPoly(replacement.vars, acc, self.den * replacement.den**deg)

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for i, j, c in self.sorted_terms():
            factors = [str(c)]
            if i:
                factors.append(f"{self.vars[0]}^{i}" if i > 1 else self.vars[0])
            if j:
                factors.append(f"{self.vars[1]}^{j}" if j > 1 else self.vars[1])
            parts.append("*".join(factors))
        return " + ".join(parts)


def _product(a: Mapping[Exponents, int], b: Mapping[Exponents, int]) -> Dict[Exponents, int]:
    """Product of two polynomials held as integer coefficient maps."""
    out: Dict[Exponents, int] = {}
    b_terms = b.items()  # one view, not one per term of a
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b_terms:
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


_NT = ("n", "t")


def _affine(vars: Tuple[str, str], slope: FractionLike, const: FractionLike) -> BivarPoly:
    """slope * x + const in the first variable x."""
    return BivarPoly.from_terms(vars, {(1, 0): slope, (0, 0): const})


def _relabel(poly: BivarPoly, vars: Tuple[str, str], key) -> BivarPoly:
    """The same coefficients under new variables, exponent pairs mapped by key."""
    return BivarPoly(vars, {key(i, j): c for (i, j), c in poly.nums.items()}, poly.den)


@lru_cache(maxsize=None)
def build_g() -> BivarPoly:
    """Denominator-cleared slack g(n, t) = 420 (n+1)**6 n**3 f(n, t).

    Builds h = u**6 g in (r, N) from the moment table and substitutes
    r**2 = 1/4 - u, u**j -> (t+4)**(6-j) and N = n + 1, one Horner pass
    each; the derivation is in the module docstring.  Raises
    ConsistencyError if a moment row has an n**0 term, if h has an odd
    power of r, or if its degree in u exceeds 6.
    """
    rn = ("r", "N")
    p, q = _affine(rn, 1, Fraction(1, 2)), _affine(rn, -1, Fraction(1, 2))
    u = p * q
    n = BivarPoly.from_terms(rn, {(0, 1): 1, (0, 0): -1})
    h = BivarPoly.zero(rn)
    for k in range(2, 8):
        rows = _moment_poly(k)
        if any(rows[0]):
            raise ConsistencyError(f"mu_{k} has a nonzero n**0 term")
        mu = BivarPoly.from_terms(rn, {
            (j, b + 6 - k): c for b, row in enumerate(rows[1:], 1) for j, c in enumerate(row)
        })
        taylor = p.power(k - 1) + q.power(k - 1).scale((-1) ** k)
        h = h + (taylor * u.power(7 - k) * mu).scale(Fraction(420, k * (k - 1)))
    tail = (
        (n * n).scale(Fraction(1, 2)) - n.scale(Fraction(1, 4))
        + BivarPoly.constant(rn, Fraction(1, 6))
    )
    h = n.power(3) * h - tail * u.power(6) * BivarPoly.from_terms(rn, {(0, 6): 420})
    if any(j % 2 for j, _ in h.nums):
        raise ConsistencyError("h(n, r) has an odd power of r")
    in_u = _relabel(h, ("s", "N"), lambda j, i: (j // 2, i)).compose_first(
        _affine(("u", "N"), -1, Fraction(1, 4)))
    if in_u.degree(0) > 6:
        raise ConsistencyError(f"h has degree {in_u.degree(0)} > 6 in u = 1/(t+4)")
    in_t = _relabel(in_u, ("v", "N"), lambda j, i: (6 - j, i)).compose_first(
        _affine(("t", "N"), 1, 4))
    return _relabel(in_t, ("N", "t"), lambda j, i: (i, j)).compose_first(_affine(_NT, 1, 1))


def shift_expand(
    g: BivarPoly, slope: FractionLike, intercept: FractionLike
) -> BivarPoly:
    """Substitute n = slope * t + intercept + m and expand in (m, t)."""
    return quadratic_shift_expand(g, 0, slope, intercept)


def quadratic_shift_expand(
    g: BivarPoly,
    quad: FractionLike,
    slope: FractionLike,
    intercept: FractionLike,
) -> BivarPoly:
    """Substitute n = quad t**2 + slope t + intercept + m and expand."""
    repl = BivarPoly.from_terms(
        ("m", "t"), {(1, 0): 1, (0, 2): quad, (0, 1): slope, (0, 0): intercept}
    )
    return g.compose_first(repl)


def rational_substitute_t() -> BivarPoly:
    """Reparametrise the skew: n = 7 + m, then t -> t/(4(1+t)).

    The image of t >= 0 under t/(4(1+t)) is the skew interval [0, 1/4),
    so nonnegative coefficients of the cleared polynomial certify the
    threshold 7 for every skew below 1/4.  The (1+t) and 4 powers
    introduced by the substitution are cleared against the maximal
    t-degree, leaving a polynomial in (m, t): each term c m**i t**j
    becomes c 4**k t**j (1+t)**k with k = top - j, expanded by binomial
    coefficients on the integer numerators of the shifted polynomial.
    """
    shifted = shift_expand(build_g(), 0, 7)
    top = shifted.degree(1)
    out: Dict[Exponents, int] = {}
    for (i, j), c in shifted.nums.items():
        k = top - j
        c *= 4**k
        for l in range(k + 1):
            e = (i, j + l)
            out[e] = out.get(e, 0) + c * math.comb(k, l)
    return BivarPoly(("m", "t"), out, shifted.den)


@dataclass(frozen=True)
class CertificateReport:
    """Result of one positivity certificate.

    ``polynomial`` is the fully expanded polynomial in (m, t);
    ``all_nonneg`` says whether every coefficient is nonnegative, which
    is the certificate itself; ``min_coefficient`` locates the margin
    (or the violation when negative).
    """

    substitution: str
    polynomial: BivarPoly
    min_coefficient: Fraction
    all_nonneg: bool

    def sorted_coefficients(self) -> List[Tuple[int, int, Fraction]]:
        return self.polynomial.sorted_terms()

    def to_json_dict(self) -> dict:
        return {
            "substitution": self.substitution,
            "coefficients": [
                [i, j, f"{c.numerator}/{c.denominator}"]
                for i, j, c in self.sorted_coefficients()
            ],
            "min_coefficient": (
                f"{self.min_coefficient.numerator}/{self.min_coefficient.denominator}"
            ),
            "all_nonneg": self.all_nonneg,
        }


# Each shipped substitution, as the polynomial in (m, t) it certifies.
# Every entry looks its function up by module name at call time, so a
# wrapper set on the module (perfbench's layer spans) sees the call.
CERT_SUBSTITUTIONS = {
    "A": lambda: shift_expand(build_g(), THRESHOLD_SLOPE, 7),
    "Aprime": lambda: shift_expand(build_g(), THRESHOLD_SLOPE_REFINED, 7),
    "B": lambda: quadratic_shift_expand(build_g(), 1, QUAD_LINEAR_COEFF, 7),
    "C": lambda: rational_substitute_t(),
    "control": lambda: shift_expand(build_g(), 1, 1),
}


def certify(sub_id: str) -> CertificateReport:
    """Run one of the shipped substitutions and report coefficient signs.

    The four production certificates (A, Aprime, B, C) must come out
    all-nonnegative; the deliberately weak ``control`` substitution must
    not, which guards the machinery against vacuous positivity.
    """
    if sub_id not in CERT_SUBSTITUTIONS:
        raise ValueError(
            f"unknown substitution {sub_id!r}; choose from {sorted(CERT_SUBSTITUTIONS)}"
        )
    poly = CERT_SUBSTITUTIONS[sub_id]()
    if poly.is_zero():
        raise ConsistencyError("certificate polynomial collapsed to zero")
    min_c = Fraction(min(poly.nums.values()), poly.den)
    return CertificateReport(
        substitution=sub_id,
        polynomial=poly,
        min_coefficient=min_c,
        all_nonneg=min_c >= 0,
    )
