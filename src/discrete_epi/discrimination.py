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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import mpmath
from mpmath import mpf

from .dist_core import IntegerPmf, _check_same_precision, bernoulli_entropy, binomial_pmf
from .errors import SeriesTruncationError
from .precision import DEFAULT_PRECISION, RealLike, as_mpf, working_precision

__all__ = [
    "SeriesEvaluation",
    "binomial_ratio",
    "binomial_step_c",
    "cap_discrimination",
    "cap_via_series",
    "kl_divergence",
    "mixture",
    "tri_discrimination",
]

SERIES_TERM_CAP = 10000


@dataclass(frozen=True)
class SeriesEvaluation:
    """Partial sum of the discrimination series with a rigorous tail bound."""

    partial_sum: mpf
    terms_used: int
    tail_bound: mpf
    precision: int


def _aligned(P: IntegerPmf, Q: IntegerPmf) -> Tuple[int, List[Tuple[mpf, mpf]]]:
    """Zero-padded weight pairs over the union of the two supports."""
    _check_same_precision(P, Q)
    lo = min(P.offset, Q.offset)
    hi = max(P.last, Q.last)
    pairs = [(P.weight_at(k), Q.weight_at(k)) for k in range(lo, hi + 1)]
    return lo, pairs


def _check_weight(p: RealLike, precision: int) -> Tuple[mpf, mpf]:
    pv = as_mpf(p, precision)
    with working_precision(precision):
        if not (0 < pv < 1):
            raise ValueError(f"mixing weight must lie strictly in (0, 1), got {pv}")
        return pv, 1 - pv


def kl_divergence(P: IntegerPmf, Q: IntegerPmf) -> mpf:
    """Relative entropy D(P || Q) in nats.

    Returns +inf when P puts mass where Q has none (the divergence is
    genuinely infinite there, so no exception is raised).
    """
    _, pairs = _aligned(P, Q)
    with working_precision(P.precision):
        terms = []
        for pw, qw in pairs:
            if pw == 0:
                continue
            if qw == 0:
                return mpf("+inf")
            terms.append(pw * mpmath.ln(pw / qw))
        return mpmath.fsum(terms)


def mixture(P: IntegerPmf, Q: IntegerPmf, p: RealLike) -> IntegerPmf:
    """The mixture pP + (1-p)Q on the union support."""
    lo, pairs = _aligned(P, Q)
    pv, qv = _check_weight(p, P.precision)
    with working_precision(P.precision):
        weights = tuple(pv * pw + qv * qw for pw, qw in pairs)
    return IntegerPmf(offset=lo, weights=weights, precision=P.precision)


def cap_discrimination(P: IntegerPmf, Q: IntegerPmf, p: RealLike) -> mpf:
    """Weighted capacitory discrimination p D(P||M) + q D(Q||M), M = pP + qQ.

    Nonnegative and at most H(p); zero iff P = Q.  Note the weighting is
    tied to the argument order: swapping P and Q without replacing p by
    1 - p changes the value.
    """
    _, pairs = _aligned(P, Q)
    pv, qv = _check_weight(p, P.precision)
    with working_precision(P.precision):
        terms = []
        for pw, qw in pairs:
            m = pv * pw + qv * qw
            if m == 0:
                continue
            if pw > 0:
                terms.append(pv * pw * mpmath.ln(pw / m))
            if qw > 0:
                terms.append(qv * qw * mpmath.ln(qw / m))
        return mpmath.fsum(terms)


def tri_discrimination(P: IntegerPmf, Q: IntegerPmf, p: RealLike, nu: int) -> mpf:
    """Weighted triangular discrimination of order nu (nu >= 1).

    Lies in [0, 1]; for P = Q it collapses to |2p - 1|**(2 nu).
    """
    if not isinstance(nu, int) or nu < 1:
        raise ValueError(f"nu must be a positive integer, got {nu!r}")
    _, pairs = _aligned(P, Q)
    pv, qv = _check_weight(p, P.precision)
    with working_precision(P.precision):
        terms = []
        for pw, qw in pairs:
            m = pv * pw + qv * qw
            if m == 0:
                continue
            d = abs(pv * pw - qv * qw)
            terms.append(d ** (2 * nu) / m ** (2 * nu - 1))
        return mpmath.fsum(terms)


def cap_via_series(
    P: IntegerPmf,
    Q: IntegerPmf,
    p: RealLike,
    tol: RealLike,
    nu_max: int = SERIES_TERM_CAP,
) -> SeriesEvaluation:
    """Capacitory discrimination through its triangular series.

    Terms are added until the rigorous tail bound drops to ``tol``.
    Hitting ``nu_max`` first raises :class:`SeriesTruncationError` with
    the partial evaluation attached; the series converges slowly exactly
    when some point carries one-sided mass (pointwise ratio 1), e.g. the
    endpoint atoms of a shifted binomial pair.

    Per-point contributions that fall below 10**(-2 precision) are
    dropped from the iteration; they are orders of magnitude below any
    admissible tolerance and the drop rule is deterministic.
    """
    precision = P.precision
    _, pairs = _aligned(P, Q)
    pv, qv = _check_weight(p, precision)
    with working_precision(precision):
        tolv = as_mpf(tol, precision)
        if not tolv > 0:
            raise ValueError(f"tol must be positive, got {tolv}")
        ln2 = mpmath.ln(2)
        offset = ln2 - bernoulli_entropy(pv, precision)
        floor = mpf(10) ** (-2 * precision)

        # state: per-point (mass * rho**(2 nu), rho**2); Delta_nu is the
        # sum of the first components at each nu
        state = []
        for pw, qw in pairs:
            m = pv * pw + qv * qw
            if m == 0:
                continue
            rho2 = ((pv * pw - qv * qw) / m) ** 2
            s = m * rho2
            if s > floor:
                state.append((s, rho2))

        partial = mpf(0)
        coeff_sum = mpf(0)
        nu = 0
        delta = mpmath.fsum(s for s, _ in state)
        while True:
            nu += 1
            coeff_sum += mpf(1) / (2 * nu * (2 * nu - 1))
            partial += delta / (2 * nu * (2 * nu - 1))
            tail = delta * (ln2 - coeff_sum)
            if tail <= tolv:
                return SeriesEvaluation(
                    partial_sum=partial - offset,
                    terms_used=nu,
                    tail_bound=tail,
                    precision=precision,
                )
            if nu >= nu_max:
                raise SeriesTruncationError(
                    f"series tail bound {mpmath.nstr(tail, 8)} still above "
                    f"tol after {nu} terms",
                    partial=SeriesEvaluation(
                        partial_sum=partial - offset,
                        terms_used=nu,
                        tail_bound=tail,
                        precision=precision,
                    ),
                )
            state = [(s * rho2, rho2) for s, rho2 in state if s * rho2 > floor]
            delta = mpmath.fsum(s for s, _ in state)


def binomial_step_c(n: int, p: RealLike, precision: int = DEFAULT_PRECISION) -> mpf:
    """Entropy increment H[Binomial(n+1, p)] - H[Binomial(n, p)].

    Computed as the mean binary-entropy defect
    sum_i (H(p) - H(i / (n+1))) P[Binomial(n+1, p)](i), which equals the
    capacitory discrimination of the shifted/unshifted binomial pair
    weighted by p.  For n = 1 this reduces to H(p) - 2 p (1-p) ln 2.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    pv, _ = _check_weight(p, precision)
    nxt = binomial_pmf(n + 1, pv, precision)
    with working_precision(precision):
        hp = bernoulli_entropy(pv, precision)
        terms = []
        for i, w in nxt.items():
            if w == 0:
                continue
            x = mpf(i) / (n + 1)
            terms.append((hp - bernoulli_entropy(x, precision)) * w)
        return mpmath.fsum(terms)


def binomial_ratio(i: int, n: int) -> Fraction:
    """Pointwise mass ratio |2i - n - 1| / (n + 1) of the binomial pair.

    For P = Binomial(n, p) shifted by one and Q = Binomial(n, p), the
    ratio |pP_i - qQ_i| / (pP_i + qQ_i) at point i is exactly this
    fraction, independent of p.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if not isinstance(i, int):
        raise ValueError(f"i must be an integer, got {i!r}")
    return Fraction(abs(2 * i - n - 1), n + 1)
