"""Entropy power checks for binomial sums and for sums of iid copies of any pmf.

For independent X and Y, the entropy power inequality asks whether

    exp(2 H[X + Y])  >=  exp(2 H[X]) + exp(2 H[Y]).

For binomial sums with a common success probability it can fail at
small sizes (already at one summand each for p != 1/2) and holds from a
p-dependent threshold onward.  The workable sufficient condition is a
half-log step growth of the entropy along the iid-sum process:

    H[Binomial(n+1, p)] - H[Binomial(n, p)]  >=  (1/2) ln((n+1)/n),

because exp(2 H[Binomial(n, p)]) / n nondecreasing in n turns
super-additivity over sizes into the inequality itself.

Each check is written once, over an entropy table: anything indexed by
size n that gives H_n.  ``_gaps`` turns a table into gaps
exp(2 H_(m+n)) - exp(2 H_m) - exp(2 H_n), taking each exp once, and
``_step_signs`` into half-log step margins and their signs, reading each
ln((n+1)/n) / 2 from one table per precision (``_half_logs``).  The
public functions differ only in the table they build:

    epi_gap                 binomial chain to m + n
    epi_grid_check          binomial chain to m_max + n_max
    iid_epi_gap             {m: H[S_m], n: H[S_n], m + n: H[S_m * S_n]},
                            S_k the k-fold sum from one squaring ladder
    sufficient_step_check   binomial chain to n + 1
    empirical_threshold,
    zero_crossing_scan      binomial chain to cap + 1

A chain's last bit depends on its length (see ``binomial_entropy_chain``),
so each keeps its own length rather than reading a longer shared chain.
``semi_asymptotic_condition`` reads entropy(binomial_pmf(m)), a route
independent of the chain.  The closed-form threshold candidates

    ceil(111/25 t + 7)   and   ceil(t**2 + 117/50 t + 7)

are both in the skew parameter t = omega(p); the exact rationals live in
:mod:`discrete_epi.polycert` next to the certificates that justify them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_div, mpf_log, mpf_shift, mpf_sub

from .dist_core import (
    IntegerPmf,
    _check_sum_support,
    _iid_ladder,
    binomial_entropy_chain,
    binomial_pmf,
    convolve,
    entropy,
    omega,
)
from .errors import BudgetExceededError
from .polycert import QUAD_LINEAR_COEFF, THRESHOLD_SLOPE
from .precision import (
    DEFAULT_PRECISION,
    RealLike,
    _bits,
    _count,
    _probability,
    _slack_sign,
    as_mpf,
    working_precision,
)

__all__ = [
    "EpiReport",
    "SemiAsymptoticCheck",
    "StepCheck",
    "ThresholdReport",
    "empirical_threshold",
    "epi_gap",
    "epi_grid_check",
    "formula_thresholds",
    "iid_epi_gap",
    "semi_asymptotic_condition",
    "sufficient_step_check",
    "zero_crossing_scan",
]

MAX_GRID_CELLS = 1 << 16


@dataclass(frozen=True)
class EpiReport:
    """Outcome of one entropy power comparison.

    gap = exp(2 H[sum]) - exp(2 H[X]) - exp(2 H[Y]); ``holds`` allows
    the usual eps slack so exact-zero cases do not flap on rounding.
    ``p`` is None for reports about a generic (non-binomial) base pmf.
    """

    m: int
    n: int
    p: Optional[mpf]
    gap: mpf
    holds: bool
    precision: int


class StepCheck(NamedTuple):
    holds: bool
    margin: mpf


class SemiAsymptoticCheck(NamedTuple):
    holds: bool
    lhs: mpf
    rhs: mpf


@dataclass(frozen=True)
class ThresholdReport:
    """Empirical and closed-form size thresholds for one p.

    ``empirical_n0`` is the smallest size from which the half-log step
    condition holds all the way to ``cap`` (None when even the cap
    fails); the two formula values are the closed-form candidates, valid
    whenever they evaluate to at least 7.
    """

    p: mpf
    t: mpf
    empirical_n0: Optional[int]
    formula_a: int
    formula_b: int
    cap: int
    precision: int


def _gaps(
    h, pairs: Iterable[Tuple[int, int]], p: Optional[mpf], precision: int
) -> Dict[Tuple[int, int], EpiReport]:
    """Reports for each (m, n), gap = e[m + n] - e[m] - e[n] with e = exp(2 h).

    h is an entropy table, indexed by size; each exp is taken once.
    """
    pairs = list(pairs)
    sizes = {k for m, n in pairs for k in (m, n, m + n)}
    with working_precision(precision):
        e = {k: mpmath.exp(2 * h[k]) for k in sizes}
        out = {}
        for m, n in pairs:
            gap = e[m + n] - e[m] - e[n]
            out[(m, n)] = EpiReport(
                m=m, n=n, p=p, gap=gap, holds=_slack_sign(gap, precision) >= 0,
                precision=precision,
            )
    return out


def epi_gap(m: int, n: int, p: RealLike, precision: int = DEFAULT_PRECISION) -> EpiReport:
    """Entropy power gap for Binomial(m, p) + Binomial(n, p)."""
    _count(m, "m", 1)
    _count(n, "n", 1)
    pv = as_mpf(p, precision)
    return _gaps(binomial_entropy_chain(pv, m + n, precision), [(m, n)], pv, precision)[(m, n)]


def iid_epi_gap(base: IntegerPmf, m: int, n: int) -> EpiReport:
    """Entropy power gap for m and n iid copies of an arbitrary base pmf.

    A single-point base yields entropies zero and gap exactly -1, which
    is reported rather than rejected: it is the honest degenerate case.
    """
    _count(m, "m", 1)
    _count(n, "n", 1)
    _check_sum_support(base, m + n)
    sums = _iid_ladder(base, (m, n))
    sums[m + n] = convolve(sums[m], sums[n])
    h = {k: entropy(pmf) for k, pmf in sums.items()}
    return _gaps(h, [(m, n)], None, base.precision)[(m, n)]


@functools.lru_cache(maxsize=None)
def _half_logs(prec: int) -> List[tuple]:
    """ln((n + 1) / n) / 2 at prec bits as raw tuples, at index n >= 1.

    One table per precision, extended on demand by ``_step_margin``;
    index 0 holds no value.
    """
    return [None]


def _step_margin(h_next: mpf, h_cur: mpf, n: int, precision: int) -> mpf:
    """h_next - h_cur - ln((n + 1) / n) / 2, rounded as that mpf expression.

    The half-log is read from the table of the precision, and each new
    entry is the halved log of the rounded ratio (n + 1) / n.
    """
    prec = _bits(precision)
    half_logs = _half_logs(prec)
    for m in range(len(half_logs), n + 1):
        ratio = mpf_div(from_int(m + 1), from_int(m), prec, "n")
        half_logs.append(mpf_shift(mpf_log(ratio, prec, "n"), -1))
    return mp.make_mpf(
        mpf_sub(mpf_sub(h_next._mpf_, h_cur._mpf_, prec, "n"), half_logs[n], prec, "n")
    )


def _step_signs(h, ns: Iterable[int], precision: int) -> List[Tuple[int, mpf, int]]:
    """(n, margin, sign) of the half-log step at each n, in order.

    h is an entropy table, indexed by size, holding n and n + 1.
    """
    margins = [(n, _step_margin(h[n + 1], h[n], n, precision)) for n in ns]
    with working_precision(precision):
        return [(n, margin, _slack_sign(margin, precision)) for n, margin in margins]


def sufficient_step_check(
    n: int, p: RealLike, precision: int = DEFAULT_PRECISION
) -> StepCheck:
    """Half-log step condition at size n; margin is the slack in nats."""
    _count(n, "n", 1)
    chain = binomial_entropy_chain(p, n + 1, precision)
    [(_, margin, sign)] = _step_signs(chain, [n], precision)
    return StepCheck(holds=sign >= 0, margin=margin)


def formula_thresholds(
    t: RealLike, precision: int = DEFAULT_PRECISION
) -> Tuple[int, int]:
    """Closed-form threshold candidates at skew t >= 0.

    Returns (ceil(111/25 t + 7), ceil(t**2 + 117/50 t + 7)).  The linear
    form wins for t <= ~1, the quadratic beyond.
    """
    tv = as_mpf(t, precision)
    with working_precision(precision):
        if not tv >= 0:
            raise ValueError(f"t must be nonnegative, got {tv}")
        a = as_mpf(THRESHOLD_SLOPE, precision) * tv + 7
        b = tv * tv + as_mpf(QUAD_LINEAR_COEFF, precision) * tv + 7
        return int(mpmath.ceil(a)), int(mpmath.ceil(b))


def empirical_threshold(
    p: RealLike, cap: int, precision: int = DEFAULT_PRECISION
) -> ThresholdReport:
    """Smallest size from which the step condition holds through cap.

    Scans every margin up to cap, so the result is exact relative to the
    scan horizon: a later re-failure beyond cap would be caught only by
    a larger cap.
    """
    _count(cap, "cap", 1)
    pv = as_mpf(p, precision)
    t = omega(pv, precision)
    chain = binomial_entropy_chain(pv, cap + 1, precision)
    signs = _step_signs(chain, range(1, cap + 1), precision)
    fa, fb = formula_thresholds(t, precision)
    last_bad = max((n for n, _, sign in signs if sign < 0), default=0)
    n0: Optional[int] = last_bad + 1 if last_bad < cap else None
    return ThresholdReport(
        p=pv, t=t, empirical_n0=n0, formula_a=fa, formula_b=fb, cap=cap,
        precision=precision,
    )


def zero_crossing_scan(
    p: RealLike, cap: int, precision: int = DEFAULT_PRECISION
) -> List[int]:
    """Sizes where the step margin strictly changes sign.

    Margins within eps of zero are treated as zero and never create a
    crossing by themselves; the returned n is the first size carrying
    the new sign.
    """
    _count(cap, "cap", 1)
    chain = binomial_entropy_chain(p, cap + 1, precision)
    crossings = []
    last_sign = 0
    for n, _, sign in _step_signs(chain, range(1, cap + 1), precision):
        if sign != 0:
            if last_sign != 0 and sign != last_sign:
                crossings.append(n)
            last_sign = sign
    return crossings


def epi_grid_check(
    m_max: int, n_max: int, p: RealLike, precision: int = DEFAULT_PRECISION
) -> Dict[Tuple[int, int], EpiReport]:
    """Entropy power reports for every 1 <= m <= m_max, 1 <= n <= n_max.

    A grid of more than ``MAX_GRID_CELLS`` cells is refused before the
    chain is built (BudgetExceededError): at 50 digits and p = 0.3,
    256 x 256 = 65,536 cells took 0.7 s and 50 MB of peak memory, and
    512 x 512 took 3.3 s and 146 MB, on a 2-core Xeon (Python 3.11.7,
    pure-Python mpmath 1.3.0).
    """
    _count(m_max, "m_max", 1)
    _count(n_max, "n_max", 1)
    if m_max * n_max > MAX_GRID_CELLS:
        raise BudgetExceededError(
            f"a {m_max} x {n_max} grid is past the {MAX_GRID_CELLS}-cell budget"
        )
    pv = as_mpf(p, precision)
    chain = binomial_entropy_chain(pv, m_max + n_max, precision)
    pairs = itertools.product(range(1, m_max + 1), range(1, n_max + 1))
    return _gaps(chain, pairs, pv, precision)


def semi_asymptotic_condition(
    m: int, p: RealLike, precision: int = DEFAULT_PRECISION
) -> SemiAsymptoticCheck:
    """Gaussian-entropy comparison H[Binomial(m, p)] <= (1/2) ln(2 pi e m p q).

    The right side is the differential entropy of the moment-matched
    Gaussian; once it dominates, half-log step growth from m onward is
    enough to give the inequality against any larger partner size.
    """
    _count(m, "m", 1)
    pv = _probability(p, precision, strict=True)
    with working_precision(precision):
        lhs = entropy(binomial_pmf(m, pv, precision))
        rhs = mpmath.ln(2 * mpmath.pi * mpmath.e * m * pv * (1 - pv)) / 2
        return SemiAsymptoticCheck(holds=_slack_sign(rhs - lhs, precision) >= 0, lhs=lhs, rhs=rhs)
