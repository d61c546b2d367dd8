"""Central moments, cumulants, and entropy lower bounds for binomial sums.

The entropy increment of an iid-sum process admits a lower bound by
Taylor-expanding the binary-entropy defect around the success
probability p:

    H(X_(j)) - H(X_(j-1))  >=  Gamma_l(j)
                            =  sum_{k=1}^{2l+1} F_k(p) j**-k mu_k(j),

where mu_k(j) is the k-th central moment of Binomial(j, p), F_1(x) =
ln x - ln(1-x), and for k >= 2

    F_k(x) = [ (1-x)**-(k-1) + (-1)**k x**-(k-1) ] / (k (k-1)).

Even-order F_k are nonnegative, which is what makes truncation after an
odd order a valid lower bound.  Summing Gamma_l telescopes into a bound
on H itself, and expanding mu_k(j) in powers of j turns the sum into
generalised harmonic numbers with coefficients c(w):

    H(X_(n))  ~  sum_w c(w) H_n^(w),   c(1) = 1/2,
    c(2) = (1 - p(1-p)) / (12 p(1-p)).

The harmonic form drops remainder terms, so it is only trustworthy
where the direct cumulative bound confirms it; the helper
``harmonic_bound_violations`` reports the region empirically.

The binomial moments are one exact table (``_moment_poly``), built by
Romanovsky's recurrence mu_(k+1) = p q (n k mu_(k-1) + d mu_k / dp)
(V. Romanovsky, "Note on the moments of a binomial (p + q)^n about its
mean", Biometrika 15 (1923) 410-412).  With p = 1/2 + r, p q = 1/4 - r**2
and d/dp = d/dr, so mu_k(n) = sum_i n**i P_ki(r) exactly, with

    P_(k+1, i) = (1/4 - r**2) (k P_(k-1, i-1) + P'_(k, i)),

from mu_0 = 1 and mu_1 = 0.  Cumulants of an n-fold sum scale by n and
mu_k(n) = n kappa_k + O(n**2), so the Bernoulli cumulant kappa_k is the
n**1 row P_k1 for k >= 2, and kappa_1 = p.  ``polycert.build_g`` takes
the rows as they are.  p rounded to the working precision is an
exact binary fraction, so ``central_moment_closed`` and
``bernoulli_cumulants`` evaluate the rows exactly and round once to
nearest, and ``gamma_l`` and ``c_coeff`` read the exact Laurent table
Gamma_l(j) = sum_{w=1}^{2l} D_w j**-w, D_w = sum_k F_k(p) P_(k, k-w)
(``_laurent_table``, per (p, l)), rounding once: every value is within
half an ulp.  With p = a/d, the rows at p (``_moment_coeffs``) and the
Laurent table are each summed on integers over one common denominator
and reduced once, so no gcd is paid per term.  Routes independent of
the table are ``faa_di_bruno_poly`` (the moment-cumulant recurrence
over any cumulants, in integers and rounded once),
``central_moment_brute`` and the exact oracles of the tests.

Every caller asks the table for its top order first, and an order past
``MAX_MOMENT_ORDER`` = 65 is refused before any row is built
(BudgetExceededError).  On a 2-core Xeon (Python 3.11.7, pure-Python
mpmath 1.3.0) the table to order 65 took 0.3 s, the Laurent table at
depth 32 (p = 0.3, 50 digits) 0.26 s more, and ``bound --p 0.3 --n 4
--l 16``, which asks for order 65, 0.8 s end to end.

Error model of ``central_moment_brute``.  Every weight is exactly
N_i / 2**E over one common power of two, so the power sums
S_j = sum_i N_i (i - offset)**j are integers, and so is the numerator
of the mean: mu - offset = A / 2**E with A = offset (S_0 - 2**E) + S_1.
Hence

    mu_k = sum_j C(k, j) S_j (-A)**(k-j) 2**(E j) / 2**(E (k + 1))

is the exact central moment of the given weights, rounded once to
nearest: within half an ulp.

Error model of ``harmonic_number``.  H_n^(w) is summed as
sum_{i<=n} floor(2**b / i**w) with b = prec + 64 working bits, which is
below 2**b H_n^(w) by less than n units, and rounded once to nearest.
H_n^(w) >= 1, so for 1 <= n < 2**48 the result is within half an ulp plus
2**-15 ulp of the exact value.  One running prefix sum is kept per
(w, b) (``_harmonic_cursor``), so a scan over increasing n costs n
integer steps in all; the value does not depend on earlier calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational

from .dist_core import IntegerPmf, binomial_entropy_chain
from .errors import BudgetExceededError
from .precision import (
    DEFAULT_PRECISION,
    RealLike,
    _bits,
    _count,
    _exact_weight,
    _probability,
    _slack_sign,
    as_mpf,
    working_precision,
)

__all__ = [
    "CumulantSet",
    "MomentPolynomial",
    "bernoulli_cumulants",
    "c_coeff",
    "central_moment_brute",
    "central_moment_closed",
    "cumulants_from_raw_moments",
    "cumulative_gamma_bound",
    "faa_di_bruno_poly",
    "gamma_l",
    "harmonic_lower_bound",
    "harmonic_number",
    "harmonic_bound_violations",
    "taylor_coeff",
    "taylor_lower_bound",
]
MAX_MOMENT_ORDER = 65


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants kappa_1 .. kappa_K of a distribution, 1-indexed."""

    kappas: Tuple[mpf, ...]
    precision: int

    @property
    def order(self) -> int:
        return len(self.kappas)

    def kappa(self, g: int) -> mpf:
        if not 1 <= g <= self.order:
            raise ValueError(f"cumulant order {g} outside 1..{self.order}")
        return self.kappas[g - 1]


def cumulants_from_raw_moments(
    moments: List[RealLike], precision: int = DEFAULT_PRECISION
) -> CumulantSet:
    """Cumulants from raw moments m_1 .. m_K via the standard recurrence

        kappa_n = m_n - sum_{j=1}^{n-1} C(n-1, j-1) kappa_j m_{n-j}.
    """
    with working_precision(precision):
        m = [as_mpf(x, precision) for x in moments]
        kappas: List[mpf] = []
        for n in range(1, len(m) + 1):
            acc = m[n - 1]
            for j in range(1, n):
                acc -= math.comb(n - 1, j - 1) * kappas[j - 1] * m[n - j - 1]
            kappas.append(acc)
    return CumulantSet(kappas=tuple(kappas), precision=precision)


def bernoulli_cumulants(
    p: RealLike, max_order: int, precision: int = DEFAULT_PRECISION
) -> CumulantSet:
    """Cumulants of a single Bernoulli(p) draw, correctly rounded (module docstring)."""
    _moment_poly(_count(max_order, "max_order", 1))
    pv = _exact_p(p, precision, strict=False)
    r = pv - Fraction(1, 2)
    # kappa_1 = p; kappa_g is the n**1 row of mu_g
    exact = [pv] + [
        sum(c * r**j for j, c in enumerate(_moment_poly(g)[1]))
        for g in range(2, max_order + 1)
    ]
    kappas = tuple(_round_ratio(x.numerator, x.denominator, precision) for x in exact)
    return CumulantSet(kappas=kappas, precision=precision)


def central_moment_brute(pmf: IntegerPmf, k: int) -> mpf:
    """k-th central moment by direct summation over the support.

    Summed exactly in integers and rounded once (module docstring),
    about the exact mean sum of i w_i.
    """
    _count(k, "k")
    # w_i = N_i / 2**E exactly; power sums S_j = sum_i N_i i**j count i
    # from the first point of the support, which shifts mu by `offset`.
    column, E = _over_common_power(pmf.weights, "w", pmf.offset)
    sums = [sum(column)]
    for _ in range(max(k, 1)):
        column = [n * i for i, n in enumerate(column)]
        sums.append(sum(column))
    # mu - offset = A / 2**E exactly
    A = pmf.offset * (sums[0] - (1 << E)) + sums[1]
    # sum_j C(k, j) S_j (-mu)**(k-j), over the common 2**(E (k + 1))
    total = sum(
        math.comb(k, j) * sums[j] * (-A) ** (k - j) << (E * j) for j in range(k + 1)
    )
    with working_precision(pmf.precision):
        return mpf((total, -E * (k + 1)))


def central_moment_closed(
    n: int, p: RealLike, k: int, precision: int = DEFAULT_PRECISION
) -> mpf:
    """k-th central moment of Binomial(n, p), correctly rounded.

    Row k of the moment table, summed in integers (module docstring).
    """
    _count(n, "n")
    _count(k, "k")
    nums, den = _moment_coeffs(_exact_p(p, precision, strict=False), k)
    acc = 0
    for c in reversed(nums):
        acc = acc * n + c
    return _round_ratio(acc, den, precision)


def _over_common_power(xs: Sequence[mpf], name: str, first: int) -> Tuple[List[int], int]:
    """Integers N_i and E with x_i = N_i / 2**E exactly.

    An infinite or NaN x_i is refused (ValueError) under its name: ``name``
    with the index first + i.
    """
    parts = []
    for i, x in enumerate(xs, first):
        sign, man, exp, _ = x._mpf_
        if not man and exp:
            raise ValueError(f"{name}_{i} = {x} is not finite")
        parts.append((sign, man, exp))
    E = -min([exp for _, man, exp in parts if man], default=0)
    return [(-man if sign else man) << (exp + E) for sign, man, exp in parts], E


def _round_ratio(num: int, den: int, precision: int) -> mpf:
    """num / den rounded once to nearest at the given precision."""
    return mp.make_mpf(from_rational(num, den, _bits(precision), "n"))


def _exact_p(p: RealLike, precision: int, strict: bool = True) -> Fraction:
    """p at the working precision as an exact fraction, in (0, 1) if strict."""
    a, _, e = _exact_weight(_probability(p, precision, strict))
    return Fraction(a, 1 << e)


@functools.lru_cache(maxsize=None)
def _moment_poly(k: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """mu_k of Binomial(n, 1/2 + r) = sum_i n**i P_i(r), as (P_0, P_1, ...).

    Each P_i is its k + 1 coefficients in r, by Romanovsky's recurrence
    (module docstring).  An order past ``MAX_MOMENT_ORDER`` is refused
    before any row is built (BudgetExceededError).
    """
    if k > MAX_MOMENT_ORDER:
        raise BudgetExceededError(
            f"moment order {k} is past the {MAX_MOMENT_ORDER}-order budget"
        )
    if k < 2:
        return ((Fraction(1 - k),) * (k + 1),)  # mu_0 = 1, mu_1 = 0
    lower, prev = _moment_poly(k - 2), _moment_poly(k - 1)
    zero = (Fraction(0),) * k
    pad = [Fraction(0)] * 2
    rows = []
    for i in range(k // 2 + 1):
        a = lower[i - 1] if i else zero
        b = prev[i] if i < len(prev) else zero
        # (k-1) P_(k-2, i-1) + P'_(k-1, i), times 1/4 - r**2
        s = [(k - 1) * a[j] + (j + 1) * b[j + 1] for j in range(k - 1)]
        rows.append(tuple(x / 4 - y for x, y in zip(s + pad, pad + s)))
    return tuple(rows)


@functools.lru_cache(maxsize=256)
def _moment_coeffs(p: Fraction, k: int) -> Tuple[Tuple[int, ...], int]:
    """(N, L) with mu_k of Binomial(n, p) = sum_i (N[i] / L) n**i, exact.

    With p = a / d, r = p - 1/2 = s / (2d) for s = 2a - d, so every row
    of the moment table sums on integers over the one denominator
    Q (2d)**k, Q the least common denominator of the table's entries;
    the sums and that denominator are then divided by their gcd.
    """
    rows = _moment_poly(k)
    common = math.lcm(*(c.denominator for row in rows for c in row))
    s, two_d = 2 * p.numerator - p.denominator, 2 * p.denominator
    powers = [s**j * two_d ** (k - j) for j in range(k + 1)]  # (2d)**k r**j
    nums = [
        sum(c.numerator * (common // c.denominator) * x for c, x in zip(row, powers))
        for row in rows
    ]
    den = common * two_d**k
    g = math.gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


@dataclass(frozen=True)
class MomentPolynomial:
    """Central moment of a j-fold iid sum as a polynomial in j.

    coeffs maps the power of j to its coefficient; evaluating at j gives
    mu_k of the sum of j iid copies of the base distribution.
    """

    k: int
    coeffs: Dict[int, mpf]
    precision: int

    def evaluate(self, j: int) -> mpf:
        with working_precision(self.precision):
            return mpmath.fsum(c * mpf(j) ** e for e, c in sorted(self.coeffs.items()))


def faa_di_bruno_poly(k: int, cumulants: CumulantSet) -> MomentPolynomial:
    """k-th central moment of an iid sum, as a polynomial in the number of copies j.

    The moment-cumulant recurrence m_n = sum_{i=0}^{n-1} C(n-1, i)
    kappa_(i+1) m_(n-1-i) (P. J. Smith, "A recursive formulation of the
    old problem of obtaining moments from cumulants and vice versa", The
    American Statistician 49(2), 1995, 217-218), applied to the centred
    j-fold sum, whose kappa_1 is 0 and whose other cumulants scale by j:

        mu_n(j) = j sum_{i=1}^{n-1} C(n-1, i) kappa_(i+1) mu_(n-1-i)(j),

    from mu_0 = 1 and mu_1 = 0, in O(k**3) integer steps.  Every cumulant
    is exactly K_g / 2**E over one common power of two, so the j**d
    coefficient of mu_n is an integer over 2**(d E), and each coefficient
    of mu_k is rounded once to nearest: within half an ulp of the exact
    polynomial of the given cumulants.  The keys are {0} for k = 0, none
    for k = 1 and 1 .. k // 2 otherwise, zero coefficients included.
    """
    _count(k, "k")
    if k >= 2 and cumulants.order < k:
        raise ValueError(
            f"need cumulants up to order {k}, got only {cumulants.order}"
        )
    K, E = _over_common_power(cumulants.kappas[1:k], "kappa", 2)  # kappa_g = K[g - 2] / 2**E
    # mus[n][d] is the j**d coefficient of mu_n times 2**(d E)
    mus = [[1], [0]]
    for n in range(2, k + 1):
        row = [0] * (n // 2 + 1)
        for i in range(1, n):
            c = math.comb(n - 1, i) * K[i - 1]
            for d, m in enumerate(mus[n - 1 - i]):
                row[d + 1] += c * m
        mus.append(row)
    bits = _bits(cumulants.precision)
    coeffs = {
        d: mp.make_mpf(from_man_exp(mus[k][d], -d * E, bits, "n"))
        for d in ([0] if k == 0 else range(1, k // 2 + 1))
    }
    return MomentPolynomial(k=k, coeffs=coeffs, precision=cumulants.precision)


def taylor_coeff(k: int, x: RealLike, precision: int = DEFAULT_PRECISION) -> mpf:
    """k-th Taylor coefficient F_k(x) of the binary-entropy defect.

    F_1(x) = ln x - ln(1-x); for k >= 2,
    F_k(x) = [ (1-x)**-(k-1) + (-1)**k x**-(k-1) ] / (k (k-1)).
    Even orders are nonnegative on (0, 1).
    """
    _count(k, "k", 1)
    xv = as_mpf(x, precision)
    with working_precision(precision):
        if not (0 < xv < 1):
            raise ValueError(f"x must lie strictly in (0, 1), got {xv}")
        y = 1 - xv
        if k == 1:
            return mpmath.ln(xv) - mpmath.ln(y)
        sign = 1 if k % 2 == 0 else -1
        return (y ** (-(k - 1)) + sign * xv ** (-(k - 1))) / (k * (k - 1))


def taylor_lower_bound(
    x: RealLike, p: RealLike, l: int, precision: int = DEFAULT_PRECISION
) -> mpf:
    """Odd-truncated Taylor polynomial of H(p) - H(x) around p.

    sum_{k=1}^{2l+1} F_k(p) (x - p)**k.  The paper's lemma: this odd
    truncation is a pointwise lower bound on the defect.  With d = x - p
    and phi(y) = (1 - y) ln(1 - y) + y, the defect is
    F_1(p) d + q phi(d/q) + p phi(-d/p), so the omitted tail is two
    Taylor remainders of phi of even order 2l + 2, each nonnegative
    because every derivative of phi past the first is positive on y < 1.
    Averaged over B(n + 1, p) it makes the Taylor sum behind the slack
    f(n, t) a lower bound on H_(n+1) - H_n, which the certificates
    trust; the tests check the lemma pointwise over x, p and l.
    """
    _count(l, "l")
    xv = as_mpf(x, precision)
    pv = _probability(p, precision, strict=True)
    with working_precision(precision):
        d = xv - pv
        acc = mpf(0)
        power = mpf(1)
        for k in range(1, 2 * l + 2):
            power *= d
            acc += taylor_coeff(k, pv, precision) * power
        return acc


@functools.lru_cache(maxsize=64)
def _laurent_table(p: Fraction, l: int) -> Tuple[Tuple[int, ...], int]:
    """Exact Laurent coefficients of Gamma_l at the exact p.

    Returns (N, L) with Gamma_l(j) = sum_{w=1}^{2l} (N[w-1] / L) j**-w:
    for every Taylor order k = 2 .. 2l+1, F_k(p) times the n**i
    coefficient of mu_k lands in D_(k-i).  With p = a / d and b = d - a,
    F_k(p) = d**(k-1) (a**(k-1) + (-1)**k b**(k-1)) / ((ab)**(k-1) k (k-1)),
    so the terms sum on integers over one common denominator, the lcm
    of (ab)**(k-1) k (k-1) L_k over k, and are divided by their gcd once.
    """
    _moment_poly(2 * l + 1)
    a, d = p.numerator, p.denominator
    b = d - a
    terms = []
    for k in range(2, 2 * l + 2):
        nums, den = _moment_coeffs(p, k)
        fk = d ** (k - 1) * (a ** (k - 1) + (-1) ** k * b ** (k - 1))
        terms.append((k, fk, (a * b) ** (k - 1) * k * (k - 1) * den, nums))
    common = math.lcm(*(den for _, _, den, _ in terms))
    table = [0] * (2 * l + 1)
    for k, fk, den, nums in terms:
        fk *= common // den
        for i in range(1, len(nums)):  # mu_k(0) = 0
            table[k - i] += fk * nums[i]
    g = math.gcd(common, *table[1:])
    return tuple(x // g for x in table[1:]), common // g


def gamma_l(j: int, p: RealLike, l: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """Entropy-increment lower bound Gamma_l(j) at truncation depth l.

    sum_{k=2}^{2l+1} F_k(p) j**-k mu_k(j); the k = 1 term vanishes with
    the first central moment.  Summed exactly in j from the Laurent
    table of (p, l) and rounded once.
    """
    _count(j, "j", 1)
    _count(l, "l", 1)
    return _gamma_from(_laurent_table(_exact_p(p, precision), l), j, precision)


def _gamma_from(table: Tuple[Tuple[int, ...], int], j: int, precision: int) -> mpf:
    """Gamma_l(j) summed exactly in j from its Laurent table, rounded once."""
    nums, den = table
    acc = 0
    for n_w in nums:
        acc = acc * j + n_w
    return _round_ratio(acc, den * j ** len(nums), precision)


def _coeff_from(table: Tuple[Tuple[int, ...], int], w: int, precision: int) -> mpf:
    """D_w of a Laurent table of depth at least w, rounded once.

    D_w collects the Taylor orders k <= 2w only, so every table deep
    enough holds the same exact value.
    """
    nums, den = table
    return _round_ratio(nums[w - 1], den, precision)


def c_coeff(w: int, p: RealLike, precision: int = DEFAULT_PRECISION) -> mpf:
    """Coefficient c(w) of the generalised harmonic number H_n^(w).

    The j**-w coefficient D_w of Gamma_l: across Taylor orders k = 2 ..
    2w, F_k(p) times the n**(k-w) row of the moment table at the exact
    p.  That is D_w of the Laurent table at depth w, rounded once.
    c(1) = 1/2 for every p; c(2) = (1 - p(1-p))/(12 p(1-p)).
    """
    _count(w, "w", 1)
    return _coeff_from(_laurent_table(_exact_p(p, precision), w), w, precision)


@functools.lru_cache(maxsize=64)
def _harmonic_cursor(w: int, bits: int) -> List[Tuple[int, int]]:
    """The last (n, sum_{i<=n} floor(2**bits / i**w)) reached, one per (w, bits)."""
    return [(0, 0)]


def harmonic_number(n: int, w: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """Generalised harmonic number H_n^(w) = sum_{i<=n} i**-w.

    Summed in fixed point from a running prefix sum, so scans over
    increasing n take linear time; rounded once (module docstring).
    """
    _count(n, "n")
    _count(w, "w", 1)
    with working_precision(precision):
        bits = mpmath.mp.prec + 64
        cursor = _harmonic_cursor(w, bits)
        start, acc = cursor[0]
        if n < start:
            start, acc = 0, 0
        one = 1 << bits
        for i in range(start + 1, n + 1):
            acc += one // i**w
        cursor[0] = (n, acc)
        return mpf((acc, -bits))


def harmonic_lower_bound(
    n: int, p: RealLike, bound_order: int, precision: int = DEFAULT_PRECISION
) -> mpf:
    """Harmonic-series entropy approximant sum_{w<=W} c(w) H_n^(w).

    Not a certified bound for small n: the expansion drops remainder
    terms, and at p = 1/2 it overshoots the exact entropy for n <= 3.
    Use ``harmonic_bound_violations`` to map the trustworthy region.
    """
    _count(bound_order, "bound_order", 1)
    table = _laurent_table(_exact_p(p, precision), bound_order)
    with working_precision(precision):
        return mpmath.fsum(
            _coeff_from(table, w, precision) * harmonic_number(n, w, precision)
            for w in range(1, bound_order + 1)
        )


def cumulative_gamma_bound(
    n: int, p: RealLike, l: int, precision: int = DEFAULT_PRECISION
) -> mpf:
    """Telescoped increment bound sum_{j=1}^{n} Gamma_l(j) <= H[Binomial(n, p)].

    Valid for every n and l because each increment bound is valid.
    """
    _count(n, "n", 1)
    _count(l, "l", 1)
    table = _laurent_table(_exact_p(p, precision), l)
    with working_precision(precision):
        return mpmath.fsum(_gamma_from(table, j, precision) for j in range(1, n + 1))


def harmonic_bound_violations(
    p: RealLike,
    n_max: int,
    bound_order: int,
    precision: int = DEFAULT_PRECISION,
) -> List[int]:
    """All n <= n_max where the harmonic approximant exceeds the entropy.

    Comparison uses the standard eps slack, so only genuine overshoots
    are reported.
    """
    p = _probability(p, precision, strict=True)
    _count(bound_order, "bound_order", 1)
    chain = binomial_entropy_chain(p, n_max, precision)
    out = []
    with working_precision(precision):
        for n in range(1, n_max + 1):
            bound = harmonic_lower_bound(n, p, bound_order, precision)
            if _slack_sign(chain[n] - bound, precision) < 0:
                out.append(n)
    return out
