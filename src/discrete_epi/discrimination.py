"""Divergence measures for weighted pairs of integer pmfs.

For pmfs P, Q and a mixing weight p in (0, 1), with q = 1 - p and
M = pP + qQ, the weighted capacitory discrimination is

    C(P, Q; p) = p D(P || M) + q D(Q || M),

a mutual information between the mixture label and the outcome; it is
bounded by the binary entropy H(p), with equality when P and Q have
disjoint supports.  The weighted triangular discriminations

    Delta_nu(P, Q; p) = sum_i |p P_i - q Q_i|**(2 nu) / (p P_i + q Q_i)**(2 nu - 1)

refine it through the expansion

    C(P, Q; p) = sum_nu Delta_nu / (2 nu (2 nu - 1)) - (ln 2 - H(p)),

whose terms are nonnegative and nonincreasing, so the tail after K
terms is at most Delta_K * (ln 2 - sum_{nu <= K} 1/(2 nu (2 nu - 1))).

The binomial specialisations at the bottom exploit that mixing a
binomial with its unit shift reproduces the next binomial, which turns
entropy increments into capacitory discriminations.

``cap_discrimination`` skips the points where P_i = Q_i: there the
mixture weight equals both, so both logarithms are exactly 0, and
C(P, P; p) is exactly 0 rather than a rounding residue.

Error model of ``kl_divergence``, ``cap_discrimination`` and
``mixture``.  They run on raw mpf tuples with the roundings of the mpf
expressions they stand for (``dist_core`` module docstring), and sum
their terms w ln(w / v) with the entropy kernel: each term's roundings,
an exact sum, then one rounding.  With u = 2**-prec, the relative error
of one rounding to nearest:

* ``kl_divergence``: the quotient w / v is rounded (u), which moves its
  logarithm by at most 1.01 u; ln is within 2u relative and the product
  adds u.  A term t = w ln(w/v) is within 3.01 u |t| + 1.02 u w.
* ``mixture``: each weight p P_i + q Q_i takes three roundings, two
  products and the sum, all of nonnegative values: within 2.01 u.
* ``cap_discrimination``: the prefactor p w and the mixture weight m
  are rounded as in ``mixture``, so w / m is within 3.02 u and moves the
  logarithm by at most 3.03 u; with ln, the product and the prefactor a
  term t = p w ln(w/m) is within 4.02 u |t| + 3.04 u p w.

Summed exactly and rounded once, |kl - D| <= 3.01 u sum |t| + 1.03 u
+ u |D|, and |cap - C| <= 4.02 u sum |t| + 3.05 u + u C, for pmfs of
mass at most 1 + 1e-10 (the eps slack at 20 digits, the least
precision).

Roundings of ``binomial_step_c``.  It is the mpf expression
sum_i (H(p) - H(i / (n + 1))) w_i over the weights w_i of B(n + 1, p),
evaluated on raw tuples with that expression's roundings, bit for bit:
x = i / (n + 1) is one rounded division; H(x) = -x ln x - q ln q takes
q = 1 - x, two logarithms, two products and the difference, each
rounded (``dist_core._binary_entropy``, which ``bernoulli_entropy``
also uses); H(p) - H(x) and its product with w_i are rounded once
each; and ``mpf_sum`` adds the terms as ``mpmath.fsum`` does, exactly
but for terms more than 2 prec bits below the running sum, with one
final rounding.  p is checked and H(p) computed once per call, not per
point.

Error model of ``cap_via_series``.  p rounded to the working precision
is exactly a / 2**e and q is the exact b / 2**e, b = 2**e - a; every
weight is exactly man * 2**exp.  So at each point X = p P_i and
Y = q Q_i are exact binary fractions, and s = (X - Y)**2 / (X + Y) and
rho**2 = (X - Y)**2 / (X + Y)**2 are exact rationals.  The series runs
in integers scaled by 2**B, with B = bits(10**(2 P)) + prec + 32 for P
digits and prec working bits, so a contribution at the drop floor
10**(-2 P) still carries prec + 32 bits.  Errors are in units of 2**-B:

* state: s and rho**2 are floored once.  Points with rho**2 = 1 (mass
  on one side only) never decay; their s are summed once into a
  constant.  A term is S <- floor(S R / 2**B) per point, then one
  integer sum D.
* Delta: each floor loses less than 1 unit and S < 2**(B + 1), so the
  exact s rho**(2 (nu - 1)) exceeds the held S by less than 3 nu, and
  Delta_nu lies in [D, D + slack] with slack = (number of constant
  points) + 3 nu (number of decaying points).
* dropping: a point whose S falls to F = floor(2**B 10**(-2 P)) leaves
  the iteration; all it would still add is below its exact value, less
  than F + 3 nu.
* sums: sum 1/(2 nu (2 nu - 1)) adds floored terms, so it is low; ln 2
  is taken 2 units high; the partial sum adds floor(D / (2 nu (2 nu -
  1))), off by at most 1 + ceil(slack / (2 nu (2 nu - 1))) per term;
  ln 2 - H(p) is evaluated at B + 32 bits, within 2 units.
* rounding: ``partial_sum`` is rounded once to nearest, less than one
  ulp; ``tail_bound`` is (D + slack)(ln 2 - sum) plus every error above
  and that ulp, rounded once upward.

So |partial_sum - C(P, Q; p)| <= tail_bound, with C the exact
capacitory discrimination of the given weights at p rounded to the
working precision.  The stopping test compares the integer bound with
``tol`` exactly, so ``tail_bound <= tol`` whenever a value is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Tuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import finf, fone, from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_sub, mpf_sum

from .dist_core import (
    IntegerPmf,
    _binary_entropy,
    _check_same_precision,
    _log_sum,
    _rounded,
    binomial_pmf,
)
from .errors import SeriesTruncationError
from .precision import (
    DEFAULT_PRECISION,
    RealLike,
    _bits,
    _count,
    _exact_weight,
    _positive,
    _probability,
    working_precision,
)

__all__ = [
    "SeriesEvaluation",
    "binomial_step_c",
    "cap_discrimination",
    "cap_via_series",
    "kl_divergence",
    "mixture",
]

SERIES_TERM_CAP = 10000


@dataclass(frozen=True)
class SeriesEvaluation:
    """Partial sum of the discrimination series with a rigorous tail bound."""

    partial_sum: mpf
    terms_used: int
    tail_bound: mpf
    precision: int


def _aligned(P: IntegerPmf, Q: IntegerPmf) -> Tuple[int, List[Tuple[tuple, tuple]]]:
    """Zero-padded pairs of raw mpf weights over the union of the two supports."""
    _check_same_precision(P, Q)
    lo = min(P.offset, Q.offset)
    hi = max(P.last, Q.last)

    def padded(pmf: IntegerPmf) -> List[tuple]:
        weights = [w._mpf_ for w in pmf.weights]
        return [fzero] * (pmf.offset - lo) + weights + [fzero] * (hi - pmf.last)

    return lo, list(zip(padded(P), padded(Q)))


def kl_divergence(P: IntegerPmf, Q: IntegerPmf) -> mpf:
    """Relative entropy D(P || Q) in nats.

    Returns +inf when P puts mass where Q has none (the divergence is
    genuinely infinite there, so no exception is raised).
    """
    _, pairs = _aligned(P, Q)
    terms = []
    for x, y in pairs:
        if not x[1]:
            continue
        if not y[1]:
            return mp.make_mpf(finf)
        terms.append((x, x, y))
    prec = _bits(P.precision)
    return _rounded(_log_sum(terms, prec), prec)


def mixture(P: IntegerPmf, Q: IntegerPmf, p: RealLike) -> IntegerPmf:
    """The mixture pP + (1-p)Q on the union support."""
    lo, pairs = _aligned(P, Q)
    prec, make = _bits(P.precision), mp.make_mpf
    a = _probability(p, P.precision, strict=True)._mpf_
    b = mpf_sub(fone, a, prec, "n")
    weights = tuple(
        make(mpf_add(mpf_mul(a, x, prec, "n"), mpf_mul(b, y, prec, "n"), prec, "n"))
        for x, y in pairs
    )
    return IntegerPmf(offset=lo, weights=weights, precision=P.precision)


def cap_discrimination(P: IntegerPmf, Q: IntegerPmf, p: RealLike) -> mpf:
    """Weighted capacitory discrimination p D(P||M) + q D(Q||M), M = pP + qQ.

    Nonnegative and at most H(p); zero iff P = Q.  Note the weighting is
    tied to the argument order: swapping P and Q without replacing p by
    1 - p changes the value.
    """
    _, pairs = _aligned(P, Q)
    prec = _bits(P.precision)
    a = _probability(p, P.precision, strict=True)._mpf_
    b = mpf_sub(fone, a, prec, "n")
    terms = []
    for x, y in pairs:
        if x == y:
            continue  # m = pw = qw: both logarithms are exactly 0
        px, qy = mpf_mul(a, x, prec, "n"), mpf_mul(b, y, prec, "n")
        m = mpf_add(px, qy, prec, "n")
        if x[1]:
            terms.append((px, x, m))
        if y[1]:
            terms.append((qy, y, m))
    return _rounded(_log_sum(terms, prec), prec)


def _floor_fixed(x: mpf, bits: int) -> int:
    """floor(x * 2**bits), exactly."""
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    shift = exp + bits
    return man << shift if shift >= 0 else man >> -shift


def cap_via_series(
    P: IntegerPmf,
    Q: IntegerPmf,
    p: RealLike,
    tol: RealLike,
) -> SeriesEvaluation:
    """Capacitory discrimination through its triangular series.

    Terms are added until the rigorous tail bound drops to ``tol``.
    Hitting the term cap ``SERIES_TERM_CAP`` first raises
    :class:`SeriesTruncationError` with the partial evaluation attached;
    the series converges slowly exactly when some point carries one-sided
    mass (pointwise ratio 1), e.g. the endpoint atoms of a shifted
    binomial pair.

    Per-point contributions that fall below 10**(-2 precision) are
    dropped from the iteration.  The sums run in fixed point, and
    ``tail_bound`` bounds |partial_sum - C| with the dropped points and
    every rounding included (module docstring).
    """
    precision = P.precision
    _, pairs = _aligned(P, Q)
    pv = _probability(p, precision, strict=True)
    tolv = _positive(tol, "tol", precision)
    prec = _bits(precision)
    B = (10 ** (2 * precision)).bit_length() + prec + 32
    floor = (1 << B) // 10 ** (2 * precision)
    a, b, e = _exact_weight(pv)  # p = a / 2**e and q = b / 2**e exactly

    # Per point, with X = p P_i 2**(e-E) and Y = q Q_i 2**(e-E) exact
    # integers: s = (X - Y)**2 / (X + Y) 2**(E-e) and rho**2 = (X - Y)**2
    # / (X + Y)**2, both floored to units of 2**-B.  One-sided atoms
    # (rho**2 = 1) never decay, so they are summed once into `atoms`.
    atoms = n_atoms = lost = 0
    state: List[int] = []  # s per decaying point
    ratios: List[int] = []  # its rho**2
    for (_, u, eu, _), (_, v, ev, _) in pairs:
        if not (u or v):
            continue
        E = min(eu if u else ev, ev if v else eu)
        X = a * u << (eu - E) if u else 0
        Y = b * v << (ev - E) if v else 0
        d2, m = (X - Y) ** 2, X + Y
        if not d2:
            continue
        shift = B + E - e
        s = (d2 << shift) // m if shift >= 0 else d2 // (m << -shift)
        if s <= floor:
            lost += floor + 1
        elif not (X and Y):
            atoms += s
            n_atoms += 1
        else:
            state.append(s)
            ratios.append((d2 << B) // (m * m))

    with mpmath.workprec(B + 32):
        ln2 = _floor_fixed(+mpmath.ln2, B) + 2
        pf = mpf((a, -e))
        # ln 2 - H(p), within 2 units
        offset = _floor_fixed(mpmath.ln2 + pf * mpmath.ln(pf) + (1 - pf) * mpmath.log1p(-pf), B)
    tol_units = _floor_fixed(tolv, 2 * B)

    one = 1 << B
    partial = coeff_sum = partial_err = nu = 0
    while True:
        nu += 1
        k = 2 * nu * (2 * nu - 1)
        delta = atoms + sum(state)
        slack = n_atoms + 3 * nu * len(state)
        coeff_sum += one // k
        partial += delta // k
        partial_err += 1 - (-slack // k)
        x = partial - offset
        err = partial_err + 2 + lost + (1 << max(abs(x).bit_length() - prec, 0))
        tail = (delta + slack) * (ln2 - coeff_sum) + (err << B)
        if tail <= tol_units or nu >= SERIES_TERM_CAP:
            with working_precision(precision):
                evaluation = SeriesEvaluation(
                    partial_sum=mpf((x, -B)),
                    terms_used=nu,
                    tail_bound=mpf((tail, -2 * B), rounding="c"),
                    precision=precision,
                )
            if tail <= tol_units:
                return evaluation
            raise SeriesTruncationError(
                f"series tail bound {mpmath.nstr(evaluation.tail_bound, 8)} still above "
                f"tol after {nu} terms",
                partial=evaluation,
            )
        state = list(map(B.__rrshift__, map(mul, state, ratios)))
        if state and min(state) <= floor:
            kept = [i for i, s in enumerate(state) if s > floor]
            lost += (len(state) - len(kept)) * (floor + 3 * (nu + 1))
            state, ratios = [state[i] for i in kept], [ratios[i] for i in kept]


def binomial_step_c(n: int, p: RealLike, precision: int = DEFAULT_PRECISION) -> mpf:
    """Entropy increment H[Binomial(n+1, p)] - H[Binomial(n, p)].

    Computed as the mean binary-entropy defect
    sum_i (H(p) - H(i / (n+1))) P[Binomial(n+1, p)](i), which equals the
    capacitory discrimination of the shifted/unshifted binomial pair
    weighted by p.  For n = 1 this reduces to H(p) - 2 p (1-p) ln 2.
    """
    _count(n, "n")
    pv = _probability(p, precision, strict=True)
    nxt = binomial_pmf(n + 1, pv, precision)
    prec = _bits(precision)
    hp, size = _binary_entropy(pv._mpf_, prec), from_int(n + 1)
    terms = []
    for i, w in enumerate(nxt.weights):
        x = mpf_div(from_int(i), size, prec, "n")
        terms.append(mpf_mul(mpf_sub(hp, _binary_entropy(x, prec), prec, "n"), w._mpf_, prec, "n"))
    return mp.make_mpf(mpf_sum(terms, prec, "n"))

