"""Exact rational certificates for the half-log step condition.

Everything here is Fraction arithmetic; no floats enter at any point.

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

Internal representation: bivariate polynomials are dicts mapping
exponent pairs to Fractions; rational expressions keep a polynomial
numerator over a denominator drawn from the fixed factor basis
{n, n+1, t+4, 1+t} plus an explicit parity flag for a dangling factor
of r.  Every multiplication folds r*r into t/(4(t+4)) and cancels
denominator factors that divide the numerator exactly; the pipeline
asserts that the final parity is even and the final denominator is
exactly n**3 (n+1)**6, raising ConsistencyError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .errors import ConsistencyError
from .moments_bounds import _moment_poly

__all__ = [
    "BivarPoly",
    "CertificateReport",
    "FactorExponents",
    "QUAD_LINEAR_COEFF",
    "RationalExpr",
    "THRESHOLD_SLOPE",
    "THRESHOLD_SLOPE_REFINED",
    "build_g",
    "certify",
    "f_exact",
    "quadratic_shift_expand",
    "rational_substitute_t",
    "shift_expand",
    "symbolic_f",
    "symbolic_moments",
    "symbolic_taylor_coeff",
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
            (int(i), int(j)): _frac(c)
            for (i, j), c in self.coeffs.items()
            if c != 0
        }
        for (i, j) in cleaned:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in {(i, j)}")
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

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j), Fraction(0))

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
        if k < 0:
            raise ValueError("negative power")
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

    def compose_first(
        self, replacement: "BivarPoly", new_vars: Tuple[str, str]
    ) -> "BivarPoly":
        """Substitute the first variable by a polynomial in new variables.

        The second variable is carried over unchanged, so the
        replacement's second variable must mean the same quantity.
        Evaluation is Horner over descending first-variable degree.
        """
        if replacement.vars != new_vars:
            raise ValueError("replacement must be expressed in the new variables")
        slices: Dict[int, Dict[Exponents, Fraction]] = {}
        for (i, j), c in self.coeffs.items():
            slices.setdefault(i, {})[(0, j)] = c
        result = BivarPoly.zero(new_vars)
        for d in range(self.degree(0), -1, -1):
            result = result * replacement
            if d in slices:
                result = result + BivarPoly(new_vars, slices[d])
        return result

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


def _try_divide_linear(
    poly: BivarPoly, axis: int, c: Fraction
) -> Optional[BivarPoly]:
    """Exact quotient of poly by (x + c) along the given axis, else None.

    The divisor involves one variable only, so division acts slice-wise
    on the other variable's exponent (synthetic division at root -c).
    """
    root = -c
    slices: Dict[int, Dict[int, Fraction]] = {}
    for (i, j), v in poly.coeffs.items():
        dx, other = (i, j) if axis == 0 else (j, i)
        slices.setdefault(other, {})[dx] = v
    out: Dict[Exponents, Fraction] = {}
    for other, uni in slices.items():
        deg = max(uni)
        if deg == 0:
            return None  # nonzero constant slice cannot be divisible
        q: Dict[int, Fraction] = {deg - 1: uni[deg]}
        for d in range(deg - 1, 0, -1):
            q[d - 1] = uni.get(d, Fraction(0)) + root * q[d]
        remainder = uni.get(0, Fraction(0)) + root * q[0]
        if remainder != 0:
            return None
        for d, v in q.items():
            if v != 0:
                out[(d, other) if axis == 0 else (other, d)] = v
    return BivarPoly(poly.vars, out)


@dataclass(frozen=True, eq=True)
class FactorExponents:
    """Exponents of the fixed denominator basis {n, n+1, t+4, 1+t}."""

    n: int = 0
    n1: int = 0
    t4: int = 0
    t1: int = 0

    def __post_init__(self):
        if min(self.n, self.n1, self.t4, self.t1) < 0:
            raise ValueError("denominator exponents must be nonnegative")

    def combine(self, other: "FactorExponents") -> "FactorExponents":
        return FactorExponents(
            self.n + other.n, self.n1 + other.n1,
            self.t4 + other.t4, self.t1 + other.t1,
        )

    def is_trivial(self) -> bool:
        return self == FactorExponents()


_FACTOR_SPECS = {
    "n": (0, Fraction(0)),
    "n1": (0, Fraction(1)),
    "t4": (1, Fraction(4)),
    "t1": (1, Fraction(1)),
}

_NT = ("n", "t")
_NR = ("n", "r")


def _factor_poly(name: str) -> BivarPoly:
    axis, c = _FACTOR_SPECS[name]
    e_var = (1, 0) if axis == 0 else (0, 1)
    return BivarPoly.from_terms(_NT, {e_var: 1, (0, 0): c})


@dataclass(frozen=True, eq=True)
class RationalExpr:
    """num / (n**e1 (n+1)**e2 (t+4)**e3 (1+t)**e4), times r**parity.

    parity in {0, 1} records a dangling odd power of r = p - 1/2; two
    odd factors multiply into r**2 = t / (4 (t+4)).  Construction
    cancels denominator factors dividing the numerator exactly, so an
    expression that is secretly a polynomial normalises to one.
    """

    num: BivarPoly
    den: FactorExponents = FactorExponents()
    parity: int = 0

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity!r}")

    @classmethod
    def zero(cls) -> "RationalExpr":
        return cls(BivarPoly.zero(_NT))

    @classmethod
    def from_poly(cls, num: BivarPoly, **den_exponents: int) -> "RationalExpr":
        return cls(num, FactorExponents(**den_exponents))._reduced()

    def _reduced(self) -> "RationalExpr":
        num = self.num
        exps = {"n": self.den.n, "n1": self.den.n1, "t4": self.den.t4, "t1": self.den.t1}
        if num.is_zero():
            return RationalExpr(num, FactorExponents(), self.parity)
        for name in exps:
            axis, c = _FACTOR_SPECS[name]
            while exps[name] > 0:
                q = _try_divide_linear(num, axis, c)
                if q is None:
                    break
                num = q
                exps[name] -= 1
        return RationalExpr(
            num,
            FactorExponents(exps["n"], exps["n1"], exps["t4"], exps["t1"]),
            self.parity,
        )

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        if self.parity != other.parity:
            raise ConsistencyError("adding expressions of different r-parity")
        den = FactorExponents(
            max(self.den.n, other.den.n),
            max(self.den.n1, other.den.n1),
            max(self.den.t4, other.den.t4),
            max(self.den.t1, other.den.t1),
        )
        num_a = self.num * _den_fill(self.den, den)
        num_b = other.num * _den_fill(other.den, den)
        return RationalExpr(num_a + num_b, den, self.parity)._reduced()

    def __neg__(self) -> "RationalExpr":
        return RationalExpr(-self.num, self.den, self.parity)

    def __sub__(self, other: "RationalExpr") -> "RationalExpr":
        return self + (-other)

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        num = self.num * other.num
        den = self.den.combine(other.den)
        parity = self.parity + other.parity
        if parity == 2:
            # r * r = t / (4 (t + 4))
            num = num * BivarPoly.from_terms(_NT, {(0, 1): Fraction(1, 4)})
            den = den.combine(FactorExponents(t4=1))
            parity = 0
        return RationalExpr(num, den, parity)._reduced()

    def scale(self, c: FractionLike) -> "RationalExpr":
        return RationalExpr(self.num.scale(c), self.den, self.parity)

    def shift_n_plus_1(self) -> "RationalExpr":
        """Substitute n -> n + 1; only for expressions free of n-denominators."""
        if self.den.n or self.den.n1:
            raise ConsistencyError("n-shift on an expression with n in the denominator")
        repl = BivarPoly.from_terms(_NT, {(1, 0): 1, (0, 0): 1})
        return RationalExpr(self.num.compose_first(repl, _NT), self.den, self.parity)

    def evaluate(self, n: FractionLike, t: FractionLike) -> Fraction:
        """Exact value at rational (n, t); parity must be even."""
        if self.parity != 0:
            raise ConsistencyError("cannot evaluate an expression with odd r-parity")
        nv, tv = _frac(n), _frac(t)
        value = self.num.evaluate(nv, tv)
        for name, exp in (("n", self.den.n), ("n1", self.den.n1),
                          ("t4", self.den.t4), ("t1", self.den.t1)):
            if exp:
                axis, c = _FACTOR_SPECS[name]
                base = (nv if axis == 0 else tv) + c
                if base == 0:
                    raise ZeroDivisionError(f"denominator factor {name} vanishes")
                value /= base**exp
        return value


def _den_fill(have: FactorExponents, want: FactorExponents) -> BivarPoly:
    """Product of the missing denominator factors, as a polynomial."""
    out = BivarPoly.constant(_NT, 1)
    for name, h, w in (("n", have.n, want.n), ("n1", have.n1, want.n1),
                       ("t4", have.t4, want.t4), ("t1", have.t1, want.t1)):
        for _ in range(w - h):
            out = out * _factor_poly(name)
    return out


def _from_nr(poly_nr: BivarPoly) -> RationalExpr:
    """Convert a polynomial in (n, r) into the (n, t) representation.

    Requires every monomial to share one r-parity; r**(2b) maps to
    t**b / (4**b (t+4)**b) via r**2 = t / (4 (t+4)).
    """
    if poly_nr.is_zero():
        return RationalExpr.zero()
    parities = {j % 2 for (_, j) in poly_nr.coeffs}
    if len(parities) > 1:
        raise ConsistencyError("mixed r-parity inside one closed form")
    parity = parities.pop()
    cap = max((j - parity) // 2 for (_, j) in poly_nr.coeffs)
    out: Dict[Exponents, Fraction] = {}
    t4 = _factor_poly("t4")
    for (i, j), c in poly_nr.coeffs.items():
        b = (j - parity) // 2
        piece = BivarPoly.from_terms(_NT, {(i, b): c * Fraction(1, 4**b)})
        piece = piece * t4.power(cap - b)
        for e, v in piece.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + v
    return RationalExpr(BivarPoly(_NT, out), FactorExponents(t4=cap), parity)._reduced()


def _nr(terms: Dict[Exponents, FractionLike]) -> BivarPoly:
    return BivarPoly.from_terms(_NR, terms)


@lru_cache(maxsize=None)
def symbolic_moments(k: int) -> RationalExpr:
    """Central moment mu_k of Binomial(n, p) as an exact expression in (n, t).

    Row k of the exact moment table (``moments_bounds``), a polynomial
    in n and r = p - 1/2, with even powers of r eliminated through
    r**2 = t/(4(t+4)).  Odd k carries parity 1.
    """
    if not isinstance(k, int) or not 1 <= k <= 7:
        raise ValueError(f"symbolic moments cover k in 1..7, got {k!r}")
    terms = {(i, j): c for i, row in enumerate(_moment_poly(k)) for j, c in enumerate(row)}
    return _from_nr(BivarPoly(_NR, terms))


@lru_cache(maxsize=None)
def symbolic_taylor_coeff(k: int) -> RationalExpr:
    """Taylor coefficient F_k at p = 1/2 + r as an exact expression in t.

    For k >= 2, with 1/4 - r**2 = 1/(t+4),

        F_k = [ (1/2+r)**(k-1) + (-1)**k (1/2-r)**(k-1) ]
              * (t+4)**(k-1) / (k (k-1)).
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"rational Taylor coefficients need k >= 2, got {k!r}")
    half_plus = _nr({(0, 1): 1, (0, 0): Fraction(1, 2)})
    half_minus = _nr({(0, 1): -1, (0, 0): Fraction(1, 2)})
    sign = 1 if k % 2 == 0 else -1
    numer = half_plus.power(k - 1) + half_minus.power(k - 1).scale(sign)
    expr = _from_nr(numer).scale(Fraction(1, k * (k - 1)))
    t4_power = RationalExpr(_factor_poly("t4").power(k - 1))
    return (expr * t4_power)._reduced()


def _inverse_n1_power(k: int) -> RationalExpr:
    return RationalExpr(BivarPoly.constant(_NT, 1), FactorExponents(n1=k))


@lru_cache(maxsize=None)
def symbolic_f() -> RationalExpr:
    """The step-condition slack f(n, t) as one exact rational expression.

    Sum of F_k (n+1)**-k mu_k(n+1) over k = 2..7 (the k = 1 term
    vanishes with the first central moment) minus the half-log tail
    1/(2n) - 1/(4n**2) + 1/(6n**3).  The result must come out with even
    parity and denominator exactly dividing n**3 (n+1)**6; anything else
    raises ConsistencyError.
    """
    total = RationalExpr.zero()
    for k in range(2, 8):
        mu_shifted = symbolic_moments(k).shift_n_plus_1()
        term = symbolic_taylor_coeff(k) * mu_shifted * _inverse_n1_power(k)
        total = total + term
    tail = RationalExpr.from_poly(
        BivarPoly.from_terms(
            _NT,
            {(2, 0): Fraction(-1, 2), (1, 0): Fraction(1, 4), (0, 0): Fraction(-1, 6)},
        ),
        n=3,
    )
    total = total + tail
    if total.parity != 0:
        raise ConsistencyError("step-condition slack came out with odd r-parity")
    if total.den.t4 or total.den.t1:
        raise ConsistencyError(
            f"skew-variable denominators failed to cancel: {total.den}"
        )
    if total.den.n > 3 or total.den.n1 > 6:
        raise ConsistencyError(f"denominator exceeds n**3 (n+1)**6: {total.den}")
    return total


@lru_cache(maxsize=None)
def build_g() -> BivarPoly:
    """Denominator-cleared slack g(n, t) = 420 (n+1)**6 n**3 f(n, t).

    Exact polynomial in (n, t); the construction fails loudly if any
    denominator factor survives the clearing.
    """
    f = symbolic_f()
    num = f.num.scale(420)
    num = num * _factor_poly("n").power(3 - f.den.n)
    num = num * _factor_poly("n1").power(6 - f.den.n1)
    return num


def f_exact(n: FractionLike, t: FractionLike) -> Fraction:
    """Exact rational value of the slack f at rational arguments."""
    return symbolic_f().evaluate(n, t)


def shift_expand(
    g: BivarPoly, slope: FractionLike, intercept: FractionLike
) -> BivarPoly:
    """Substitute n = slope * t + intercept + m and expand in (m, t)."""
    repl = BivarPoly.from_terms(
        ("m", "t"), {(1, 0): 1, (0, 1): _frac(slope), (0, 0): _frac(intercept)}
    )
    return g.compose_first(repl, ("m", "t"))


def quadratic_shift_expand(
    g: BivarPoly,
    quad: FractionLike,
    slope: FractionLike,
    intercept: FractionLike,
) -> BivarPoly:
    """Substitute n = quad t**2 + slope t + intercept + m and expand."""
    repl = BivarPoly.from_terms(
        ("m", "t"),
        {(1, 0): 1, (0, 2): _frac(quad), (0, 1): _frac(slope), (0, 0): _frac(intercept)},
    )
    return g.compose_first(repl, ("m", "t"))


def rational_substitute_t(n_shift: int = 7) -> BivarPoly:
    """Reparametrise the skew: n = n_shift + m, then t -> t/(4(1+t)).

    The image of t >= 0 under t/(4(1+t)) is the skew interval [0, 1/4),
    so nonnegative coefficients of the cleared polynomial certify the
    threshold n_shift for every skew below 1/4.  The (1+t) and 4 powers
    introduced by the substitution are cleared against the maximal
    t-degree, leaving a polynomial in (m, t).
    """
    shifted = shift_expand(build_g(), 0, n_shift)
    top = shifted.degree(1)
    mt = ("m", "t")
    one_plus_t = BivarPoly.from_terms(mt, {(0, 1): 1, (0, 0): 1})
    out = BivarPoly.zero(mt)
    for (i, j), c in shifted.coeffs.items():
        piece = BivarPoly.from_terms(mt, {(i, j): c * Fraction(4) ** (top - j)})
        out = out + piece * one_plus_t.power(top - j)
    return out


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


CERT_SUBSTITUTIONS = {
    "A": ("linear", THRESHOLD_SLOPE, Fraction(7)),
    "Aprime": ("linear", THRESHOLD_SLOPE_REFINED, Fraction(7)),
    "B": ("quadratic", Fraction(1), QUAD_LINEAR_COEFF, Fraction(7)),
    "C": ("rational", 7),
    "control": ("linear", Fraction(1), Fraction(1)),
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
    spec = CERT_SUBSTITUTIONS[sub_id]
    if spec[0] == "linear":
        poly = shift_expand(build_g(), spec[1], spec[2])
    elif spec[0] == "quadratic":
        poly = quadratic_shift_expand(build_g(), spec[1], spec[2], spec[3])
    else:
        poly = rational_substitute_t(spec[1])
    if poly.is_zero():
        raise ConsistencyError("certificate polynomial collapsed to zero")
    min_c = min(poly.coeffs.values())
    return CertificateReport(
        substitution=sub_id,
        polynomial=poly,
        min_coefficient=min_c,
        all_nonneg=min_c >= 0,
    )
