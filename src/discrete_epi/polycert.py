"""Exact rational certificates for the half-log step condition.

Everything here is exact; no floats enter at any point.  Coefficients
are Fractions, but each substitution runs on integer numerators over
one common denominator and builds one Fraction per output coefficient
at the end, so no gcd is paid inside its products and sums.

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

Construction of g.  Polynomials are ``BivarPoly``: dicts from exponent
pairs to Fractions.  Write N = n + 1, p = 1/2 + r, q = 1/2 - r and
u = pq = 1/4 - r**2 = 1/(t+4).  Since F_k(p) k (k-1) (pq)**(k-1) =
p**(k-1) + (-1)**k q**(k-1), and the moment table gives
mu_k(N) = sum_{b>=1} N**b P_kb(r) (``moments_bounds._moment_poly``),

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple, Union

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
    """Polynomial in two named variables with Fraction coefficients.

    ``coeffs`` maps (deg_first, deg_second) to a nonzero Fraction; the
    zero polynomial has an empty map.  Instances are immutable; all
    arithmetic returns new objects and requires matching variable names.
    """

    vars: Tuple[str, str]
    coeffs: Dict[Exponents, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {
            (_count(i, "exponent"), _count(j, "exponent")): _frac(c)
            for (i, j), c in self.coeffs.items()
            if c != 0
        }
        object.__setattr__(self, "coeffs", cleaned)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, vars: Tuple[str, str]) -> "BivarPoly":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: Tuple[str, str], c: FractionLike) -> "BivarPoly":
        return cls(vars, {(0, 0): _frac(c)})

    @classmethod
    def from_terms(
        cls, vars: Tuple[str, str], terms: Dict[Exponents, FractionLike]
    ) -> "BivarPoly":
        return cls(vars, {e: _frac(c) for e, c in terms.items()})

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self, axis: int) -> int:
        """Largest exponent along axis (zero polynomial reports -1)."""
        if not self.coeffs:
            return -1
        return max(e[axis] for e in self.coeffs)

    def sorted_terms(self) -> List[Tuple[int, int, Fraction]]:
        """Terms ordered by first-variable degree descending, then second ascending."""
        return [
            (i, j, self.coeffs[(i, j)])
            for (i, j) in sorted(self.coeffs, key=lambda e: (-e[0], e[1]))
        ]

    def evaluate(self, x: FractionLike, y: FractionLike) -> Fraction:
        xv, yv = _frac(x), _frac(y)
        return sum((c * xv**i * yv**j for (i, j), c in self.coeffs.items()), Fraction(0))

    # -- arithmetic ----------------------------------------------------
    def _check_vars(self, other: "BivarPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        self._check_vars(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return BivarPoly(self.vars, out)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        self._check_vars(other)
        out: Dict[Exponents, Fraction] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return BivarPoly(self.vars, out)

    def scale(self, c: FractionLike) -> "BivarPoly":
        cv = _frac(c)
        return BivarPoly(self.vars, {e: cv * v for e, v in self.coeffs.items()})

    def power(self, k: int) -> "BivarPoly":
        _count(k, "k")
        result = BivarPoly.constant(self.vars, 1)
        base = self
        e = k
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def compose_first(self, replacement: "BivarPoly") -> "BivarPoly":
        """Substitute the first variable by a polynomial in new variables.

        The result is in the replacement's variables.  The second variable
        is carried over unchanged, so the replacement's second variable
        must mean the same quantity.  Evaluation is Horner over descending
        first-variable degree, on integers: with self = sum_d S_d x**d / E
        and replacement = R / D for integer S_d and R, the steps
        acc <- acc R + S_d D**(deg - d) leave acc = E D**deg self(R / D),
        and each coefficient of acc becomes one Fraction at the end.
        """
        if self.is_zero():
            return BivarPoly.zero(replacement.vars)
        ints, den = _cleared(self.coeffs)
        repl, step = _cleared(replacement.coeffs)
        slices: Dict[int, List[Tuple[int, int]]] = {}
        for (i, j), c in ints.items():
            slices.setdefault(i, []).append((j, c))
        deg = self.degree(0)
        acc: Dict[Exponents, int] = {}
        scale = 1  # D**(deg - d)
        for d in range(deg, -1, -1):
            acc = _int_product(acc, repl)
            for j, c in slices.get(d, ()):
                acc[(0, j)] = acc.get((0, j), 0) + c * scale
            scale *= step
        den *= step**deg
        return BivarPoly(replacement.vars, {e: Fraction(c, den) for e, c in acc.items() if c})

    def __str__(self) -> str:
        if not self.coeffs:
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


def _cleared(coeffs: Dict[Exponents, Fraction]) -> Tuple[Dict[Exponents, int], int]:
    """Integer numerators over one common denominator: (N, D) with coeffs[e] = N[e] / D."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}, den


def _int_product(a: Dict[Exponents, int], b: Dict[Exponents, int]) -> Dict[Exponents, int]:
    """Product of two polynomials held as integer coefficient maps."""
    out: Dict[Exponents, int] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


_NT = ("n", "t")


def _affine(vars: Tuple[str, str], slope: FractionLike, const: FractionLike) -> BivarPoly:
    """slope * x + const in the first variable x."""
    return BivarPoly.from_terms(vars, {(1, 0): slope, (0, 0): const})


def _relabel(poly: BivarPoly, vars: Tuple[str, str], key) -> BivarPoly:
    """The same coefficients under new variables, exponent pairs mapped by key."""
    return BivarPoly(vars, {key(i, j): c for (i, j), c in poly.coeffs.items()})


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
        mu = BivarPoly(rn, {
            (j, b + 6 - k): c for b, row in enumerate(rows[1:], 1) for j, c in enumerate(row)
        })
        taylor = p.power(k - 1) + q.power(k - 1).scale((-1) ** k)
        h = h + (taylor * u.power(7 - k) * mu).scale(Fraction(420, k * (k - 1)))
    tail = (
        (n * n).scale(Fraction(1, 2)) - n.scale(Fraction(1, 4))
        + BivarPoly.constant(rn, Fraction(1, 6))
    )
    h = n.power(3) * h - tail * u.power(6) * BivarPoly.from_terms(rn, {(0, 6): 420})
    if any(j % 2 for j, _ in h.coeffs):
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
    ints, den = _cleared(shifted.coeffs)
    out: Dict[Exponents, int] = {}
    for (i, j), c in ints.items():
        k = top - j
        c *= 4**k
        for l in range(k + 1):
            e = (i, j + l)
            out[e] = out.get(e, 0) + c * math.comb(k, l)
    return BivarPoly(("m", "t"), {e: Fraction(c, den) for e, c in out.items() if c})


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
    min_c = min(poly.coeffs.values())
    return CertificateReport(
        substitution=sub_id,
        polynomial=poly,
        min_coefficient=min_c,
        all_nonneg=min_c >= 0,
    )
