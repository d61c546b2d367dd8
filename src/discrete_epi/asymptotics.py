"""Large-n entropy corrections and Gaussian-smoothed comparisons.

Two empirical instruments live here:

* The lattice correction g(n) = H(X^(n)) - (1/2) ln(2 pi e n sigma**2)
  for the n-fold iid sum X^(n) of an integer-valued base distribution,
  computed exactly and compared against its predicted leading decay:
  -kappa_3**2 / (12 sigma**6 n) when the third cumulant survives, and
  -kappa_{N+1}**2 / (2 (N+1)! sigma**(2N+2)) * n**(1-N) when cumulants
  3..N vanish (so a symmetric base decays like 1/n**2).  Only leading
  constants, fully determined by cumulants, are ever asserted; deeper
  expansion coefficients are treated as fitted residuals.

* The differential entropy h(S) of a lattice distribution smoothed by a
  Gaussian, from a closed form when its proven error fits the tolerance
  and from the trapezoidal rule with a proven bound otherwise.
  This feeds the continuous entropy-power comparison: half-log
  increments of h(S^(n)) hold unconditionally, and the discrete
  inequality upgrades them to full-log increments once n clears the
  empirical threshold.

Closed-form route.  Let K ~ P be the lattice point and X = K + sigma Z.
Then h(X) = h(X | K) + I(K; X), so, exactly,

    h(S) = H(P) + (1/2) ln(2 pi e sigma**2) - delta,   delta = H(K | X) >= 0.

``gaussian_smoothed_entropy`` returns H(P) + (1/2) ln(2 pi e sigma**2)
without quadrature when the bound below on its error is at most the
tolerance, and reports that bound as ``quadrature_error`` (the field
name is kept for the JSON output; it is the reported error bound on
either route).  The bound has four parts:

* Bhattacharyya: distinct nonzero weights sit at least d apart, d the
  smallest gap between them (1 for every binomial), and the
  Bhattacharyya coefficient of two N(., sigma**2) peaks at distance
  d' >= d is exp(-d'**2/(8 sigma**2)) <= exp(-d**2/(8 sigma**2)), so the
  union bound puts the error of guessing K from X at
  P_e <= beta = (1/2) (sum_k sqrt(w_k))**2 exp(-d**2/(8 sigma**2)).
  The exponent d**2/(8 sigma**2) is rounded down, so its rounding, which
  grows with it, can only enlarge beta.
* Fano: delta <= h_b(P_e) + P_e ln(M - 1) with M the number of nonzero
  weights; h_b(x) <= x (1 - ln x), and x (1 - ln x + ln(M - 1)) grows
  on (0, 1), so delta <= beta (1 - ln beta + ln(M - 1)).  The route
  is only taken when beta <= 1/2; M = 1 gives delta = 0.  The bound is
  evaluated in about a dozen roundings of at most one ulp and doubled.
* mass: rounded weights need not sum to exactly 1.  For weights of mass
  m the integrated density is m times a normalised mixture, so its
  entropy is H(w) + m (1/2) ln(2 pi e sigma**2) - m delta', where
  delta' is bounded as above with beta divided by m; the closed form
  is off by a further |m - 1| |(1/2) ln(2 pi e sigma**2)|.
* rounding: with u one ulp at the working precision, H(P) (each term
  -w ln w within 2u, summed exactly by the entropy kernel of
  ``dist_core`` and rounded once), the log term (its argument within
  6u) and their sum are within 4u (H(P) + |ln term| + 1); twice that is
  reported.

The reported error is therefore never exactly 0.  At sigma = 1e-3 sqrt(n)
with n <= 64 (criterion 9) delta is below 1e-800 and the bound is the
rounding term alone; for binomial pmfs from sigma near 0.07 up the bound
no longer fits a tolerance like 1e-9, and the trapezoidal route answers.

Trapezoidal route.  It answers every pmf that the closed form does not.
The nonzero weights sit on lo..hi (span s = hi - lo), and w_lo..w_hi,
zeros included, are taken as one dense run.  Its log-concavity ratio

    rho = min(1, min_k w_k**2 / (w_(k-1) w_(k+1))),

with the minimum over lo < k < hi, is taken on the rounded weights read
as man * 2**exp: rho = 1 exactly when the run is log-concave (decided
exactly), rho = 0 when a weight is zero, and otherwise it is rounded
down.  Every binomial pmf has rho = 1: its exact ratio
w_k**2 / (w_(k-1) w_(k+1)) = (k + 1)(n - k + 1) / (k (n - k)) exceeds
1 + 1/n**2, far above the 2**-prec rounding of the weights.  With
g = -f ln f, the rule T_M = (1/M) sum_j g(j/M) over the grid samples in
[lo - 8 sigma, hi + 8 sigma] is returned with the bound

    |T_M - h(S)| <= D_M + G_M + R_M,

scaled by 1 + 2**-32 for the few dozen roundings of its evaluation; M is
the smallest integer at which that fits the tolerance, found before any
sample is taken.  The parts:

* discretisation D_M (L. N. Trefethen and J. A. C. Weideman, "The
  exponentially convergent trapezoidal rule", SIAM Review 56(3), 2014,
  Theorem 5.1): if g is analytic in the strip |Im x| < a, decays in it,
  and int |g(x + iy)| dx <= M_a for |y| < a, the trapezoidal sum over
  all of Z/M is within D_M = 2 M_a / (exp(2 pi a M) - 1) of the integral.
  With a_k(x) = w_k phi_sigma(x - k), g = -f ln f and z = x + iy, the
  bound on M_a below needs two facts on |y| <= a: for every k with
  w_k > 0, ln|f(z)| >= ln a_k(x) - loss, and the branch of ln f that is
  real on the axis is analytic there with
  |Im ln f| <= (a/sigma**2) |x - k*| + turn for some k* in lo..hi.
  ``_strip`` gives a, loss and turn from one of two strips.
  - Real-rooted strip, taken when rho > 0 and sigma**2 ln(4/rho) < 1
    (decided with upward rounding).  With v = e^((z - lo)/sigma**2),
        f(z) = phi_sigma(z - lo) Q(v),   Q(v) = sum_j c_j v**j,
        c_j = w_(lo+j) e^(-j**2/(2 sigma**2)),
    and, with k = lo + j, c_j**2 / (c_(j-1) c_(j+1)) =
    e^(1/sigma**2) w_k**2 / (w_(k-1) w_(k+1)) >= e^(1/sigma**2) rho > 4.
    By D. C. Kurtz, "A sufficient condition for all the roots of a
    polynomial to be real", Amer. Math. Monthly 99 (1992) 259-263, a
    polynomial with positive coefficients and c_j**2 > 4 c_(j-1) c_(j+1)
    has only real roots, here negative: Q(v) = c_s prod_i (v + rho_i)
    with rho_i > 0.  So f vanishes only where v < 0, that is on the
    lines |Im z| = (2m + 1) pi sigma**2, and not in |Im z| < pi sigma**2.
    (For rho = 1 the test is sigma**2 ln 4 < 1, and ln(4/rho) only
    narrows the range of sigma for runs that are not log-concave.)  Take
    a = theta sigma**2 with theta = 2 pi / 3.  On |y| <= a, v has
    argument phi = y/sigma**2 with |phi| <= theta, so for rho' > 0,
    |v + rho'|**2 - (|v| + rho')**2 cos(theta/2)**2
    >= (1 - cos theta)(|v| - rho')**2 / 2 >= 0, and arg(v + rho') lies
    between 0 and phi.  With
    |phi_sigma(z - lo)| = e^(y**2/2 sigma**2) phi_sigma(x - lo) and
    f(x) = phi_sigma(x - lo) Q(|v|), that gives
    |f(z)| >= e^(y**2/2 sigma**2) 2**-s f(x) >= 2**-s a_k(x), so
    loss = s ln 2.  ln f = ln phi_sigma(z - lo) + ln c_s
    + sum_i Log(v + rho_i) is analytic there and real on the axis, and
    Im ln f = -(x - lo) y/sigma**2 + sum_i arg(v + rho_i), so k* = lo
    and turn = s theta.
  - Lag strip, otherwise.  Let k* maximise a_k(x) and D >= 1 be a lag
    such that the far terms, |k - k*| > D, sum to at most a_(k*)/4.
    When rho < 1, D = s (1 for a single point): no term is that far,
    so nothing about the weights is needed.  When rho = 1 the weights
    are log-concave, so the second differences of k -> ln a_k(x) are
    at most -1/sigma**2 and a_(k*+d) <= a_(k*) exp(-|d| (|d| - 1)/(2 sigma**2));
    D is the smallest lag whose far terms sum to at most a_(k*)/4 by
    that bound, capped at s.  Take a = pi sigma**2 / (3 D).  Then
    S = e^(-y**2/2 sigma**2) e^(iy (x - k*)/sigma**2) f = sum_k a_k e^(iy (k - k*)/sigma**2)
    has its near terms within pi/3 of the real axis, so
    Re S >= a_(k*) - a_(k*)/4 > 0 for |y| <= a: |f| >= (3/4) a_(k*)(x)
    and loss = ln(4/3).  f has no zero in the strip, and along the
    vertical segment at x the branch of ln f is
    y**2/(2 sigma**2) - iy (x - k*)/sigma**2 + Log S, so turn = pi/2.
  - M_a: |f| <= E sum_k a_k(x) with E = exp(a**2/(2 sigma**2)), and
    ln|f| lies between ln a_k(x) - loss (any k with w_k > 0) and
    ln E + ln(m/(sigma sqrt(2 pi))), m the mass.  With
    |ln a_k| <= |ln w_k| + |ln(sigma sqrt(2 pi))| + (x - k)**2/(2 sigma**2)
    and |x - k*| <= |x - k| + s, integrating peak by peak gives
    M_a <= E [H + m (L + 1/2 + loss + ln E + L0)
              + m ((a/sigma**2)(sigma sqrt(2/pi) + s) + turn)],
    H = sum_k w_k |ln w_k|, L = |ln(sigma sqrt(2 pi))|,
    L0 = |ln(m/(sigma sqrt(2 pi)))|.
* grid truncation G_M: outside the region every peak is more than
  8 sigma away and f <= m phi(8)/sigma <= 1 (the route refuses
  otherwise), so |g| <= sum_k a_k |ln a_k| there.  Each such tail is
  decreasing, so its grid sum is at most its integral plus 1/M times its
  value at 8 sigma: G_M is the integral bound of ``_truncation_bound``
  plus (2 phi(8)/(sigma M)) (H + m (L + 32)).
* rounding R_M, with u = 2**(1 - prec) one ulp at 1:
  - The Gaussian table phi_sigma(t/M), |t| <= reach, comes from one
    ``exp`` for q = exp(-1/(2 sigma**2 M**2)) and the recurrence
    G_(t+1) = G_t r_t, r_(t+1) = r_t q**2 from G_0 = 1/(sigma sqrt(2 pi))
    and r_0 = q.  Entry t is G_0 q**(t**2) after at most 3 t**2 + 5
    roundings, with q's relative error at most 5 ulps times its exponent
    plus 2, taken t**2 times: at most 5 + 5 z + 3 reach**2 ulps, with
    z = reach**2 times the exponent of q.  The recurrence runs with
    20 guard bits more than the bit length of twice that count, each
    product rounded to nearest on integers as an mpf product at that
    precision would be, so every entry is within 2**-(prec+20) before it
    is rounded once to prec bits.
  - Sample j, at lo + j/M, is the sum of w_k G_|j - M k| over the peaks
    with |j - M k| <= reach.  The weights and the symmetric table
    G_-reach .. G_reach are each cut into runs of exact integers once
    (``_runs`` of dist_core, exponents spanning at most 2 prec bits), and
    for each pair of a weight run and a table run the pair's terms at
    every sample are summed exactly, as one slot of packed shift-and-add
    products (``_samples``).  A sample has at most one such sum per pair
    of runs.  Those more than prec + g bits below the sample's largest,
    g = 17 plus the bit length of the number of pairs, are dropped; they
    weigh less than 2**-(prec+16) of the largest, so each sample's sum
    is within 2**-(prec+16) of the exact sum of its terms, relative,
    and the sample, rounded once, within u/2 (1 + 2**-16) of it.
    When rho < 1 the table covers the whole run and no peak is left
    out.  When rho = 1, peaks farther than R = reach/M from the sample
    are left out.  The support point k0 nearest the sample is at most
    nu = max(8 sigma + 1/M, 1/2) away.  The differences of ln w
    fall along the run, so Lambda, the larger |ln(w_(k+1)/w_k)| of the
    two ends plus 1 for rounding, bounds them all, and
    w_j <= w_k0 e^(Lambda |j - k0|).  A peak at distance d from the
    sample therefore weighs at most e^E(d) times the one at k0, with
    E(d) = Lambda (d + nu) - (d**2 - nu**2)/(2 sigma**2).  With
    c = (prec + 18) ln 2, E(d) <= -c once d is past the larger root
    sigma**2 Lambda + sqrt((nu + sigma**2 Lambda)**2 + 2 sigma**2 c) of
    E(d) = -c, and E(d + 1) - E(d) <= Lambda - d/sigma**2 <= -ln 2 once
    d >= sigma**2 (Lambda + ln 2).  R is the larger of the two, so the
    peaks left out on one side weigh at most 2**-(prec+17) of the one
    at k0, and both sides 2**-(prec+16).  (The 1 added to Lambda also
    covers the roundings of R.)  So every sample is within 1.03 u of f,
    relative.
  - Each term f ln f (one ``ln``, one product) is summed exactly, and
    the sum is rounded once and divided by M.  Per sample the error is
    below 3 u f (|ln f| + 1), so the total is below 4 u B with
    B >= (1/M) sum_j f (|ln f| + 1) over all of Z/M; bounding each peak's
    grid sum by its integral plus 1/M times its peak gives
    B = (H + m (L0 + L + 1))(1 + c) + m (1/2 + 2c/e), c = 1/(M sigma sqrt(2 pi)).
    Four times that, R_M = 16 u B, is reported.

For binomial rows with n from 3 to 64 at 30 digits and tolerance 1e-9,
M is 30 to 34 at sigma = 1/4, 8 or 9 at sigma = 1/2 and 4 at
sigma = 0.8, against 58 to 63, 15 or 16 and 12 with the lag strip, which
still gives 8 at sigma = 1.  The angle theta was set from this table
of M (30 digits, p as given, tolerance 1e-9 unless marked):

    row                        pi/2   7pi/12   2pi/3   3pi/4   5pi/6
    B(6, 1/2), sigma 1/4       41     35       31      28      25
    B(64, 0.3), sigma 1/4      44     38       34      30      27
    B(1000, 0.3), sigma 0.1    300    259      228     204     184
    B(3, 0.3), 0.065, 1e-12    747    643      565     504     456

M keeps falling as theta grows toward pi, because the loss
s ln(1/cos(theta/2)) and the turn enter only through ln M_a.  At
theta = 2 pi/3, cos(theta/2) = 1/2 is exact and most of the gain over
the lag strip is taken; a wider angle is left open.

Refusals.  The route raises QuadratureError, before any sample is
taken, when the tolerance is at or below the truncation floor (twice
the bound on the -f ln f mass outside the 8-sigma region), when sigma
is too small for f <= 1 outside the region, or when M would pass
``MAX_TRAPEZOID_STEPS`` = 1100.  The closed form is tried first, so it
answers whenever its own bound fits, even below the floor.

M grows like 1/sigma**2 as sigma falls toward the closed form's edge, and
like ln(1/tolerance).  The cap was set from the largest M that a
binomial row allowed by the chain budget (n < 16,384) needs at the
tightest tolerance the floor admits: for each sigma the tolerance just
above the floor, at the smallest sigma where the closed form's bound
does not fit it (found by bisection).  At 30 digits, p = 0.3 and 1/2:

    n              3       64      1000    4000    16,383
    M, p = 0.3     735     831     925     974     1025
    M, p = 1/2     737     833     927     976     1027
    sigma          0.0599  0.0584  0.0573  0.0568  0.0563
    tolerance      9.0e-14 9.4e-14 9.7e-14 9.9e-14 1.0e-13

So every binomial row fits the cap at every tolerance above the floor.
At tolerance 1e-9 the closed form answers up to sigma = 0.070, 0.068,
0.066, 0.065 and 0.064 at n = 3, 64, 1000, 4000 and 16,383 (p = 0.3),
and 0.001 above that the trapezoid needs M = 369, 435, 507, 547 and 589.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    mpf_abs,
    mpf_add,
    mpf_log,
    mpf_mul,
    mpf_shift,
    mpf_sqrt,
    mpf_sum,
    normalize,
)

from .dist_core import (
    MAX_CHAIN_ROWS,
    IntegerPmf,
    _exact_sum,
    _iid_ladder,
    _log_sum,
    _pack,
    _rounded,
    _runs,
    binomial_pmf,
    entropy,
)
from .errors import BudgetExceededError, QuadratureError
from .moments_bounds import CumulantSet, cumulants_from_raw_moments
from .precision import (
    DEFAULT_PRECISION,
    RealLike,
    _count,
    _positive,
    _slack_sign,
    working_precision,
)

__all__ = [
    "KnesslProfile",
    "LeadingFit",
    "SmoothedEntropy",
    "TulinoRow",
    "gaussian_smoothed_entropy",
    "iid_power_pmfs",
    "knessl_profile",
    "leading_constant_fit",
    "tulino_verdu_compare",
]

REGION_PAD_SIGMAS = 8
MAX_TRAPEZOID_STEPS = 1100

_CUMULANT_ORDERS = 8


# ---------------------------------------------------------------------------
# Exact iid-power entropies
# ---------------------------------------------------------------------------

def iid_power_pmfs(
    base: IntegerPmf, n_values: Iterable[int]
) -> Dict[int, IntegerPmf]:
    """Distributions of the n-fold iid sum for every requested n.

    Binary decomposition over a shared ladder of repeated squarings, so
    a geometric family like {512, 1024, 2048, 4096} costs one chain.
    """
    targets = [_count(n, "fold count", 1) for n in sorted(set(n_values))]
    return _iid_ladder(base, targets)


def _gaussian_reference(n: int, sigma2: mpf) -> mpf:
    return mpmath.ln(2 * mpmath.pi * mpmath.e * n * sigma2) / 2


@dataclass(frozen=True)
class KnesslProfile:
    """Computed lattice corrections g(n) for one base distribution.

    g(n) = H(X^(n)) - (1/2) ln(2 pi e n sigma**2) with sigma**2 the base
    variance; negative once the sum is close enough to its Gaussian
    limit, and decaying at a cumulant-determined rate.
    """

    base: IntegerPmf
    sigma2: mpf
    kappa: CumulantSet
    g_values: Dict[int, mpf]
    precision: int

    def negativity_onset(self) -> Optional[int]:
        """Smallest computed n from which every computed g(n) is negative."""
        onset: Optional[int] = None
        for n in sorted(self.g_values):
            if self.g_values[n] < 0:
                if onset is None:
                    onset = n
            else:
                onset = None
        return onset

    def fit(self) -> LeadingFit:
        """Fit g(n) ~ -C / n**k by least squares on (ln n, ln |g(n)|)."""
        ns = sorted(self.g_values)
        if len(ns) < 2:
            raise ValueError(f"need at least 2 fold counts for a fit, got {len(ns)}")
        g_abs = [abs(float(self.g_values[n])) for n in ns]
        if any(v == 0 for v in g_abs):
            raise ValueError("g(n) vanished exactly; nothing to fit on a log scale")
        xs = [math.log(n) for n in ns]
        ys = [math.log(v) for v in g_abs]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        sxx = sum((x - mean_x) ** 2 for x in xs)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        exponent = -slope
        constant = math.exp(intercept)
        monotone = all(a > b for a, b in zip(g_abs, g_abs[1:]))
        residuals = {
            n: float(self.g_values[n]) + constant / n**exponent for n in ns
        }
        return LeadingFit(
            constant=constant, exponent=exponent, monotone=monotone,
            residuals=residuals,
        )


def knessl_profile(
    base: IntegerPmf, n_values: Iterable[int], precision: int = DEFAULT_PRECISION
) -> KnesslProfile:
    """Lattice corrections g(n) over a family of fold counts."""
    if sum(1 for w in base.weights if w) < 2:
        raise ValueError("the base distribution must have at least 2 support points")
    pmfs = iid_power_pmfs(base, n_values)
    if not pmfs:
        raise ValueError("no fold counts supplied")
    with working_precision(precision):
        # Moments about the offset: about 0 they would cancel every digit
        # of the higher cumulants once the base sits far from 0.
        raw = [
            mpmath.fsum(w * mpf(k - base.offset) ** j for k, w in base.items())
            for j in range(1, _CUMULANT_ORDERS + 1)
        ]
        kappas = cumulants_from_raw_moments(raw, precision).kappas
        kappa = CumulantSet((kappas[0] + base.offset,) + kappas[1:], precision)
        sigma2 = kappa.kappa(2)
        g_values = {
            n: entropy(pmf) - _gaussian_reference(n, sigma2)
            for n, pmf in pmfs.items()
        }
    return KnesslProfile(
        base=base, sigma2=sigma2, kappa=kappa, g_values=g_values,
        precision=precision,
    )


@dataclass(frozen=True)
class LeadingFit:
    """Log-log fit of |g(n)| to C * n**-k over a geometric n-family.

    ``monotone`` is the health flag: when |g| is not strictly decreasing
    over the family the asymptotic regime was not reached and the fitted
    pair is unreliable.  ``residuals`` records g(n) + C / n**k, the data
    left after removing the fitted leading term.
    """

    constant: float
    exponent: float
    monotone: bool
    residuals: Dict[int, float]


def leading_constant_fit(
    base: IntegerPmf,
    n_range: Iterable[int],
    precision: int = DEFAULT_PRECISION,
) -> LeadingFit:
    """Fit g(n) ~ -C / n**k by least squares on (ln n, ln |g(n)|)."""
    ns = sorted(set(n_range))
    if len(ns) < 4:
        raise ValueError(f"need at least 4 fold counts for a fit, got {len(ns)}")
    return knessl_profile(base, ns, precision).fit()


# ---------------------------------------------------------------------------
# Gaussian-smoothed entropies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothedEntropy:
    """Differential entropy of a Gaussian-smoothed lattice distribution.

    ``quadrature_error`` is the reported error bound on ``h_value``, from
    whichever route computed it (closed form or trapezoid).
    """

    n: Optional[int]
    sigma: mpf
    h_value: mpf
    quadrature_error: mpf


class _Constants(NamedTuple):
    """Constants of the smoothed-entropy routes at one working precision."""

    pi: mpf
    e: mpf
    ln2: mpf
    root2pi: mpf  # sqrt(2 pi)
    root2_pi: mpf  # sqrt(2 / pi)
    ln4_up: mpf  # 1.38629436112, above ln 4 (see ``_strip``)
    decay: mpf  # exp(-a**2/2) at the region's edge, a = 8
    q_a: mpf  # Q(a)
    z2_tail: mpf  # integral of z**2 phi(z) beyond a


@functools.lru_cache(maxsize=None)
def _constants(prec: int) -> _Constants:
    """The constants at prec bits, taken on first use at each precision."""
    with mpmath.workprec(prec):
        pi, a = +mpmath.pi, mpf(REGION_PAD_SIGMAS)
        root2pi = mpmath.sqrt(2 * pi)
        decay = mpmath.exp(-a * a / 2)
        q_a = mpmath.erfc(a / mpmath.sqrt(2)) / 2
        return _Constants(
            pi=pi, e=+mpmath.e, ln2=mpmath.ln(2), root2pi=root2pi,
            root2_pi=mpmath.sqrt(2 / pi), ln4_up=mpf("1.38629436112"), decay=decay,
            q_a=q_a, z2_tail=q_a + a * (decay / root2pi),
        )


class _Peaks(NamedTuple):
    """A pmf's weights as raw tuples, read once per call.

    ``run`` holds the weights from the first nonzero one to the last,
    zeros included, and ``weights`` the nonzero ones; ``spacing`` is the
    smallest gap between those (1 for a single one) and ``mass`` their
    ``fsum``.  ``logs`` and ``terms`` are each nonzero weight's ln w and
    w ln w, rounded once at the working precision.
    """

    run: List[tuple]
    weights: List[tuple]
    spacing: int
    mass: mpf
    logs: List[tuple]
    terms: List[tuple]


def _peaks(pmf: IntegerPmf) -> _Peaks:
    prec = mpmath.mp.prec
    raw = [w._mpf_ for w in pmf.weights]
    where = [i for i, x in enumerate(raw) if x[1]]
    weights = [raw[i] for i in where]
    logs = [mpf_log(x, prec, "n") for x in weights]
    return _Peaks(
        run=raw[where[0]:where[-1] + 1],
        weights=weights,
        spacing=min((b - a for a, b in zip(where, where[1:])), default=1),
        mass=mp.make_mpf(mpf_sum(weights, prec, "n")),
        logs=logs,
        terms=[mpf_mul(x, y, prec, "n") for x, y in zip(weights, logs)],
    )


def _truncation_bound(peaks: _Peaks, sig: mpf) -> mpf:
    """Upper bound on the -f ln f mass lost outside the 8-sigma region.

    Each peak loses at most its own two Gaussian tails beyond 8 standard
    deviations; with z = (x - k)/sigma, -ln(w phi) = -ln w
    + ln(sigma sqrt(2 pi)) + z**2/2, and the z-integrals reduce to the
    Gaussian tail Q(8) and density phi(8).  Absolute values make this an
    upper bound regardless of the signs of the log terms.
    """
    prec = mpmath.mp.prec
    constants = _constants(prec)
    log_norm = abs(mpmath.ln(sig * constants.root2pi))._mpf_
    q, half = constants.q_a._mpf_, mpf_shift(constants.z2_tail._mpf_, -1)
    terms = []
    for x, y in zip(peaks.weights, peaks.logs):
        # w (z2_tail / 2 + Q(8) (|ln w| + log_norm)), every step rounded
        inner = mpf_mul(q, mpf_add(mpf_abs(y), log_norm, prec, "n"), prec, "n")
        terms.append(mpf_mul(x, mpf_add(half, inner, prec, "n"), prec, "n"))
    return 2 * mp.make_mpf(mpf_sum(terms, prec, "n"))


def _disjoint_peaks(peaks: _Peaks, sig: mpf) -> Optional[Tuple[mpf, mpf]]:
    """Closed form H(P) + (1/2) ln(2 pi e sigma**2) and a bound on its error.

    None when the Bhattacharyya bound beta exceeds 1/2.  The error model
    is in the module docstring.
    """
    prec, mass, weights, spacing = mpmath.mp.prec, peaks.mass, peaks.weights, peaks.spacing
    fano = mpf(0)
    if len(weights) > 1:
        sig2_up = mpmath.fmul(sig, sig, rounding="u")
        exponent = mpmath.fdiv(
            spacing * spacing, mpmath.fmul(8, sig2_up, rounding="u"), rounding="d"
        )
        root_sum = mp.make_mpf(mpf_sum([mpf_sqrt(x, prec, "n") for x in weights], prec, "n"))
        beta = root_sum * root_sum / (2 * mass) * mpmath.exp(-exponent)
        if beta > mpf(1) / 2:
            return None
        fano = beta * (1 - mpmath.ln(beta) + mpmath.ln(len(weights) - 1))
    man, exp = _exact_sum([(-m if s else m, e) for s, m, e, _ in peaks.terms])
    h_p = _rounded((-man, exp), prec)
    log_term = mpmath.ln(2 * mpmath.pi * mpmath.e * sig * sig) / 2
    rounding = 8 * mpmath.eps * (h_p + abs(log_term) + 1)
    error = 2 * mass * fano + abs(mass - 1) * abs(log_term) + rounding
    return h_p + log_term, error


def _concavity(run: Sequence[tuple]) -> mpf:
    """rho = min(1, w_k**2 / (w_(k-1) w_(k+1)) over the run), rounded down.

    ``run`` holds raw tuples.  rho is exactly 1 when the weights are
    log-concave, decided exactly on the rounded weights, each read as
    man * 2**exp; 0 when a weight is zero.
    """
    exact = [x[1:3] for x in run]
    if not all(m for m, _ in exact):
        return mpf(0)
    rho = mpf(1)
    for (m0, e0), (m1, e1), (m2, e2) in zip(exact, exact[1:], exact[2:]):
        shift = 2 * e1 - e0 - e2
        square, outer = m1 * m1 << max(shift, 0), m0 * m2 << max(-shift, 0)
        if square < outer:
            rho = min(rho, mpmath.fdiv(square, outer, rounding="d"))
    return rho


def _strip(sig: mpf, span: int, rho: mpf) -> Tuple[mpf, mpf, mpf]:
    """Strip where ln f is analytic: its half-width a, loss and turn.

    On |Im x| <= a, ln|f(x + iy)| >= ln a_k(x) - loss for every peak k,
    and |Im ln f| <= (a / sigma**2) |x - k*| + turn for some k* in the
    run (module docstring); ``rho`` is the run's ``_concavity``.  When
    rho > 0 and sigma**2 ln(4 / rho) < 1, decided with upward rounding,
    f has no zero in |Im x| < pi sigma**2 and a = theta sigma**2 with
    theta = 2 pi / 3, loss = span ln 2 and turn = span theta.
    Otherwise a = pi sigma**2 / (3 D), loss = ln(4/3) and turn = pi/2.
    When rho < 1, D is the span (at least 1).  When rho = 1, D >= 1 is
    the smallest lag whose far terms, the lags d > D, weigh at most a
    quarter of the largest term, capped at the span.  They are bounded
    by 2 sum_(d > D) exp(-d (d - 1) / (2 sigma**2)), whose ratios fall
    below r = exp(-(D + 1) / sigma**2), so the sum is at most its first
    term over 1 - r.
    """
    sig2, constants = sig * sig, _constants(mpmath.mp.prec)
    # 1.38629436112 rounds to above ln 4 = 1.38629436111989... at the
    # package's 20-digit minimum precision and above.
    log_up = constants.ln4_up
    if 0 < rho < 1:
        # ln(1/rho), widened by 2**8 ulps for the error of ln.
        widen = 1 + mpmath.ldexp(1, 8 - mpmath.mp.prec)
        log_up = mpmath.fadd(log_up, mpmath.fmul(-mpmath.ln(rho), widen, rounding="u"), rounding="u")
    if rho > 0 and mpmath.fmul(mpmath.fmul(sig, sig, rounding="u"), log_up, rounding="u") < 1:
        theta = 2 * constants.pi / 3
        return theta * sig2, span * constants.ln2, span * theta
    inv = 1 / (2 * sig2)
    lag = 1 if rho >= 1 else max(span, 1)
    while lag < span:
        first = mpmath.exp(-lag * (lag + 1) * inv)
        if 2 * first <= -mpmath.expm1(-2 * (lag + 1) * inv) / 4:
            break
        lag += 1
    return constants.pi * sig2 / (3 * lag), mpmath.ln(mpf(4) / 3), constants.pi / 2


def _reach(run: Sequence[tuple], sig: mpf, near: mpf, prec: int) -> mpf:
    """Distance R past which the peaks of a log-concave run are left out.

    ``run`` holds raw tuples.  For a sample whose nearest support point
    is at most ``near`` away, the peaks farther than R weigh at most
    2**-(prec+16) of that one (module docstring, rounding of the samples).
    """
    slope = mpf(0)
    if len(run) > 1:
        w = [mp.make_mpf(x) for x in (run[0], run[1], run[-2], run[-1])]
        slope = max(abs(mpmath.ln(w[1] / w[0])), abs(mpmath.ln(w[3] / w[2]))) + 1
    ln2 = _constants(prec).ln2
    drift, bits = sig * sig * slope, (prec + 18) * ln2
    root = drift + mpmath.sqrt((near + drift) ** 2 + 2 * sig * sig * bits)
    return max(root, drift + sig * sig * ln2)


def _gaussian_table(sig: mpf, steps: int, reach: int, prec: int) -> List[tuple]:
    """phi_sigma(t/M) for 0 <= t <= reach, raw tuples rounded once to prec bits.

    The recurrence and its guard bits are in the module docstring.  Each
    product is rounded to nearest, ties to even, at the guard precision,
    as ``mpf_mul`` rounds it, on the integers of the raw tuples.
    """
    z2 = int(mpmath.ceil(mpf(reach) ** 2 / (2 * (sig * steps) ** 2)))
    guard = (10 + 10 * z2 + 6 * reach * reach).bit_length() + 20
    with mpmath.workprec(prec + guard):
        ratio_step = mpmath.exp(-1 / (2 * (sig * steps) ** 2))
        _, value, e_value, _ = (1 / (sig * mpmath.sqrt(2 * mpmath.pi)))._mpf_
        _, ratio, e_ratio, _ = ratio_step._mpf_
        _, square, e_square, _ = (ratio_step * ratio_step)._mpf_
    wp = prec + guard
    table = []
    for _ in range(reach + 1):
        table.append(normalize(0, value, e_value, value.bit_length(), prec, "n"))
        value, e_value = _nearest(value * ratio, e_value + e_ratio, wp)
        ratio, e_ratio = _nearest(ratio * square, e_ratio + e_square, wp)
    return table


def _nearest(man: int, exp: int, bits: int) -> Tuple[int, int]:
    """man * 2**exp, man > 0, rounded to bits bits: to nearest, ties to even."""
    cut = man.bit_length() - bits
    if cut <= 0:
        return man, exp
    half = man >> (cut - 1)
    if half & 1 and (half & 2 or man & ((1 << (cut - 1)) - 1)):
        return (half >> 1) + 1, exp + cut
    return half >> 1, exp + cut


def _samples(
    weights: Sequence[tuple], table: Sequence[tuple], steps: int, first: int, last: int, prec: int
) -> Iterator[List[tuple]]:
    """The samples f(lo + j/M), first <= j <= last, rounded to prec bits.

    ``weights`` run from w_lo (zeros included) and ``table`` holds
    G_t = phi_sigma(t/M) for 0 <= t <= reach, both raw tuples; sample j
    is the sum of w_k G_|j - M k| over |j - M k| <= reach.  The weights
    and the symmetric table G_-reach .. G_reach are each cut into runs
    (``_runs``, span 2 prec) once, and each table run is packed once.
    Every pair of a weight run and a table run gives, at each sample,
    the exact sum of its terms (``_pair_sums``).  A pair's sum more than
    prec + g bits below the largest at that sample, g = 17 plus the bit
    length of the number of pairs, is dropped; the rest are summed
    exactly and rounded once.  The samples come in blocks of about the
    table's length.
    """
    reach = len(table) - 1
    weight_runs = _runs(weights, 2 * prec)
    table_runs = _runs(table[:0:-1] + table, 2 * prec)
    drop = prec + (len(weight_runs) * len(table_runs)).bit_length() + 16 + 1
    block = max(len(table), steps)
    edges = [(j0, min(j0 + block, last + 1)) for j0 in range(first, last + 1, block)]
    top = max(bits for *_, bits in weight_runs)
    pairs = []
    for start, ints, exp, bits in table_runs:
        # At most ceil(len / M) terms of one table run meet at a sample.
        width = (top + bits + (-(-len(ints) // steps)).bit_length() + 7) // 8
        packed = _pack(ints, width)
        for k0, xs, ek, _ in weight_runs:
            first_j = steps * k0 + start - reach
            pairs.append((ek + exp, _pair_sums(xs, first_j, len(ints), width, packed, steps, edges)))
    for j0, j1 in edges:
        columns = []
        for exp, stream in pairs:
            got = next(stream)
            if got is not None:
                lo, slots = got
                columns.append(([0] * (lo - j0) + slots + [0] * (j1 - lo - len(slots)), exp))
        # Each pair's sums at the block's samples, shifted to the lowest
        # exponent; a sum whose bit length is at or below the largest one's
        # less ``drop`` is dropped (a zero sum is a pair without terms there).
        low = min(exp for _, exp in columns)
        sums = [list(map((exp - low).__rlshift__, slots)) for slots, exp in columns]
        if len(sums) > 1:
            lengths = [list(map(int.bit_length, column)) for column in sums]
            floors = list(map(drop.__rsub__, map(max, *lengths)))
            sums = [list(map(mul, column, map(int.__gt__, bits, floors)))
                    for column, bits in zip(sums, lengths)]
        values = list(map(sum, zip(*sums)))
        yield list(map(normalize, repeat(0), values, repeat(low), map(int.bit_length, values),
                       repeat(prec), repeat("n")))


def _pair_sums(
    xs: Sequence[int], first_j: int, size: int, width: int, packed: int, steps: int,
    edges: Sequence[Tuple[int, int]],
) -> Iterator[Optional[Tuple[int, List[int]]]]:
    """Sums of one weight run times one table run, block by block.

    ``xs`` are the weight run's integers and ``packed`` the table run's
    ``size`` integers in ``width``-byte slots; weight i of the run meets
    the table run at the samples first_j + M i .. first_j + M i + size - 1.
    For each block [j0, j1) of ``edges`` this yields (lo, sums), the
    exact sums at the samples lo, lo + 1, ... of the block, or None when
    no term falls in it.  One accumulator carries the slots that the next
    block still adds to: each weight is one shift-and-add of x = m 2**s,
    m odd, times the packed run, so the product costs m's digits alone,
    and the accumulator never holds more than a block and a run.
    """
    last_j = first_j + steps * (len(xs) - 1) + size
    parts = []
    for x in xs:
        s = (x & -x).bit_length() - 1 if x else 0
        parts.append((x >> s, s))
    acc, i, j, base = 0, 0, first_j, first_j  # acc's slot 0 is sample base
    for j0, j1 in edges:
        if (j >= j1 and not acc) or last_j <= j0:
            yield None
            continue
        if not acc:
            base = j
        while i < len(parts) and j < j1:
            m, s = parts[i]
            if m:
                acc += m * packed << s + 8 * width * (j - base)
            i, j = i + 1, j + steps
        lo, hi = max(base, j0), min(j1, last_j)
        buf = acc.to_bytes(width * (j - steps + size - base), "little")
        yield lo, [int.from_bytes(buf[z:z + width], "little")
                   for z in range(width * (lo - base), width * (hi - base), width)]
        acc, base = acc >> 8 * width * (hi - base), hi


def _trapezoid(peaks: _Peaks, sig: mpf, tol: mpf) -> Tuple[mpf, mpf, int]:
    """Trapezoidal h(S) on the grid x = j/M, its proven error bound, and M.

    M is the smallest step count whose bound fits ``tol``.
    Raises QuadratureError, before any sample is taken, when ``tol`` is
    at or below the truncation floor, when sigma is too small for the
    grid-truncation bound (f <= 1 outside the region), or when M would
    pass ``MAX_TRAPEZOID_STEPS``.  The error model is in the module
    docstring.
    """
    truncation = _truncation_bound(peaks, sig)
    if tol <= 2 * truncation:
        raise QuadratureError(
            f"tolerance {mpmath.nstr(tol, 3)} is below the "
            f"{REGION_PAD_SIGMAS}-sigma truncation floor "
            f"{mpmath.nstr(2 * truncation, 3)} of the integration region"
        )
    span = len(peaks.run) - 1
    prec, u = mpmath.mp.prec, mpmath.eps
    constants = _constants(prec)
    pi, root2pi, decay = constants.pi, constants.root2pi, constants.decay
    mass, norm = peaks.mass, sig * root2pi
    if mass * decay > norm:
        raise QuadratureError(
            f"sigma {mpmath.nstr(sig, 3)} is too small for the trapezoid's "
            "grid-truncation bound"
        )
    h_w = mp.make_mpf(mpf_sum(peaks.terms, prec, "n", absolute=True))
    log_norm = abs(mpmath.ln(norm))
    log_peak = abs(mpmath.ln(mass / norm))
    rho = _concavity(peaks.run)
    a, loss, turn = _strip(sig, span, rho)
    excess = a * a / (2 * sig * sig)
    log_part = h_w + mass * (log_norm + mpf(1) / 2 + loss + excess + log_peak)
    phase_part = mass * (a / (sig * sig) * (sig * constants.root2_pi + span) + turn)
    strip_mass = mpmath.exp(excess) * (log_part + phase_part)

    # Per unit step: the grid tail beyond the integral's, and the rounding.
    pad_sigmas = mpf(REGION_PAD_SIGMAS)
    edge = 2 * decay / norm * (
        h_w + mass * (log_norm + pad_sigmas ** 2 / 2))
    log_sum = h_w + mass * (log_peak + log_norm + 1)
    coarse = log_sum / norm + 2 * mass / (constants.e * sig * root2pi)
    fixed = truncation + 16 * u * (log_sum + mass / 2)

    twice_mass, rate, per_unit = 2 * strip_mass, 2 * pi * a, edge + 16 * u * coarse
    widen = 1 + mpf(2) ** -32

    def bound(steps: int) -> mpf:
        discretisation = twice_mass / mpmath.expm1(rate * steps)
        return (discretisation + fixed + per_unit / steps) * widen

    share = tol - fixed
    if not share > 0:
        raise QuadratureError(
            f"tolerance {mpmath.nstr(tol, 3)} is below the trapezoid's fixed "
            f"error {mpmath.nstr(fixed, 3)}"
        )
    # The discretisation alone fixes a lower bound on M; the per-step
    # terms can push it up by a few steps.
    steps = max(1, int(mpmath.ceil(mpmath.log1p(twice_mass / share) / rate)))
    while True:
        if steps > MAX_TRAPEZOID_STEPS:
            raise QuadratureError(
                f"tolerance {mpmath.nstr(tol, 3)} needs a grid finer than "
                f"{MAX_TRAPEZOID_STEPS} steps per unit"
            )
        err = bound(steps)
        if err <= tol:
            break
        steps += 1
    pad = int(mpmath.ceil(REGION_PAD_SIGMAS * sig * steps))

    # Samples f(lo + j/M) for -pad <= j <= span M + pad, each from the
    # peaks within reach/M of it.
    reach = span * steps + pad
    if rho >= 1:
        near = max(mpf(pad) / steps, mpf(1) / 2)
        far = _reach(peaks.run, sig, near, prec)
        reach = min(int(mpmath.ceil(far * steps)), reach)
    table = _gaussian_table(sig, steps, reach, prec)

    # The terms f ln f, summed exactly (one block of samples at a time)
    # and rounded once.
    partials = [
        _log_sum(((f, f, None) for f in block), prec)
        for block in _samples(peaks.run, table, steps, -pad, span * steps + pad, prec)
    ]
    return -mpf(_exact_sum(partials)) / steps, err, steps


def gaussian_smoothed_entropy(
    pmf: IntegerPmf,
    sigma: RealLike,
    tol: RealLike = "1e-12",
    precision: int = DEFAULT_PRECISION,
    n: Optional[int] = None,
) -> SmoothedEntropy:
    """Differential entropy (nats) of the pmf convolved with N(0, sigma**2).

    Two routes, tried in order, each described in the module docstring:

    1. closed form: when the peaks are disjoint enough that
       H(P) + (1/2) ln(2 pi e sigma**2) is provably within the
       tolerance, that is returned with its error bound;
    2. trapezoidal rule: otherwise the density
       f(x) = sum_k P(k) phi_sigma(x - k) is summed as -f ln f on the
       grid x = j/M, with M the smallest step count whose proven bound
       fits the tolerance.

    ``quadrature_error`` is the reported error bound of the route taken.  ``n``
    is an optional label carried into the result (the fold count when
    the pmf is an iid sum).  Raises QuadratureError, before any sample
    is taken, when neither route can meet the tolerance: the closed
    form's bound does not fit it, and it is at or below the trapezoid's
    truncation floor or needs a grid past ``MAX_TRAPEZOID_STEPS``.
    """
    sig = _positive(sigma, "sigma", precision)
    tolerance = _positive(tol, "tolerance", precision)
    with working_precision(precision):
        peaks = _peaks(pmf)
        answer = _disjoint_peaks(peaks, sig)
        if answer is None or answer[1] > tolerance:
            answer = _trapezoid(peaks, sig, tolerance)
    return SmoothedEntropy(n=n, sigma=sig, h_value=answer[0], quadrature_error=answer[1])


@dataclass(frozen=True)
class TulinoRow:
    """One comparison row: the smoothed-entropy increment at fold n."""

    n: int
    increment: mpf
    half_log: mpf
    full_log: mpf
    meets_half: bool
    meets_full: bool


def tulino_verdu_compare(
    p: RealLike,
    sigma: RealLike,
    n_values: Iterable[int],
    tol: RealLike = "1e-9",
    precision: int = DEFAULT_PRECISION,
) -> List[TulinoRow]:
    """Smoothed-entropy increments for Bernoulli sums vs the two log bounds.

    S^(n) adds an independent N(0, sigma**2) to each of the n Bernoulli
    summands, so the lattice distribution of the sum is smoothed by a
    Gaussian of total variance n sigma**2.  For each requested n the row
    reports h(S^(n)) - h(S^(n-1)) against (1/2) ln(n/(n-1)) — the
    unconditional smoothed bound — and ln(n/(n-1)), the doubled rate
    that the discrete inequality implies for large enough n.  The meets_*
    flags allow the two reported errors as slack.

    When sigma sqrt(n) is small enough for the closed form (peaked
    regime), increment - ln(n/(n-1)) equals
    H_n - H_(n-1) - (1/2) ln(n/(n-1)), the discrete half-log step margin
    at size n - 1, up to the two reported errors: meets_full is then the
    step condition that ``epi_engine.sufficient_step_check(n - 1, p)``
    decides, and criterion 9 tests the same inequality as criterion 2.

    An n whose B(n) is past the ``MAX_CHAIN_ROWS`` weight budget is
    refused (BudgetExceededError) before any smoothed entropy is computed.
    """
    ns = [_count(n, "n", 2) for n in sorted(set(n_values))]
    if not ns:
        return []
    sig = _positive(sigma, "sigma", precision)
    if ns[-1] >= MAX_CHAIN_ROWS:
        # B(n_max) is the largest pmf the rows read: refuse it before any row.
        raise BudgetExceededError(f"n={ns[-1]}: B(n) is past the {MAX_CHAIN_ROWS}-weight budget")
    needed = sorted(set(ns) | {n - 1 for n in ns})
    results: Dict[int, SmoothedEntropy] = {}
    with working_precision(precision):
        for n in needed:
            pmf = binomial_pmf(n, p, precision)
            results[n] = gaussian_smoothed_entropy(
                pmf, sig * mpmath.sqrt(n), tol, precision, n=n
            )
        rows: List[TulinoRow] = []
        for n in ns:
            inc = results[n].h_value - results[n - 1].h_value
            half = mpmath.ln(mpf(n) / (n - 1)) / 2
            slack = results[n].quadrature_error + results[n - 1].quadrature_error
            rows.append(
                TulinoRow(
                    n=n,
                    increment=inc,
                    half_log=half,
                    full_log=2 * half,
                    meets_half=_slack_sign(inc - half, precision, slack) >= 0,
                    meets_full=_slack_sign(inc - 2 * half, precision, slack) >= 0,
                )
            )
    return rows
