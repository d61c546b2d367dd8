"""Deterministic adaptive quadrature: the oracle for smoothed entropies.

The mixture density with standard deviation sigma much below the lattice
spacing is a row of near-disjoint peaks, so the integration region
[min - 8 sigma, max + 8 sigma] is pre-split at k +- min(40 sigma, 1/2)
around every support point, then each panel is refined by bisection
under a fixed Gauss-Legendre rule until the local defect fits a
width-proportional share of the requested tolerance.  Every accepted
defect is accumulated, so the reported error is a true bound on the
acceptance slack and never exceeds the request; it is not a proven
bound on the error.  A density evaluation sums only peaks within
40 sigma (beyond that a peak's contribution is below any working
precision used here).

``gaussian_smoothed_entropy`` answers from a closed form or the
trapezoidal rule, each with a proven bound; the tests compare both with
this independent route.
"""

import bisect
from typing import Callable, Dict, List, Sequence, Tuple

import mpmath
from mpmath import mpf

from discrete_epi.asymptotics import REGION_PAD_SIGMAS, SmoothedEntropy, _truncation_bound
from discrete_epi.dist_core import IntegerPmf
from discrete_epi.errors import QuadratureError
from discrete_epi.precision import as_mpf, working_precision

QUADRATURE_ORDER = 12
MAX_BISECTION_DEPTH = 48
DENSITY_WINDOW_SIGMAS = 40

_NODE_CACHE: Dict[Tuple[int, int], Tuple[Tuple[mpf, mpf], ...]] = {}


def _gauss_legendre_nodes(order: int, dps: int) -> Tuple[Tuple[mpf, mpf], ...]:
    """Nodes and weights on [-1, 1], Newton-refined at the working precision."""
    key = (order, dps)
    cached = _NODE_CACHE.get(key)
    if cached is not None:
        return cached
    with mpmath.workdps(dps + 20):
        tol = mpf(10) ** (-(dps + 10))
        half: List[Tuple[mpf, mpf]] = []
        for i in range(1, order // 2 + 1):
            x = mpmath.cos(mpmath.pi * (i - mpf(1) / 4) / (order + mpf(1) / 2))
            dp = mpf(1)
            for _ in range(100):
                p_prev, p = mpf(1), x
                for k in range(2, order + 1):
                    p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
                dp = order * (x * p - p_prev) / (x * x - 1)
                step = p / dp
                x -= step
                if abs(step) < tol:
                    break
            half.append((x, 2 / ((1 - x * x) * dp * dp)))
        nodes = [(-x, w) for x, w in half]
        if order % 2:
            p_prev, p = mpf(1), mpf(0)
            for k in range(2, order + 1):
                p_prev, p = p, (-(k - 1) * p_prev) / k
            dp0 = order * (-p_prev) / (-1)
            nodes.append((mpf(0), 2 / (dp0 * dp0)))
        nodes.extend((x, w) for x, w in reversed(half))
    result = tuple((+x, +w) for x, w in nodes)
    _NODE_CACHE[key] = result
    return result


def _panel_value(
    fun: Callable[[mpf], mpf], a: mpf, b: mpf,
    nodes: Tuple[Tuple[mpf, mpf], ...],
) -> mpf:
    mid = (a + b) / 2
    scale = (b - a) / 2
    return scale * mpmath.fsum(w * fun(mid + scale * x) for x, w in nodes)


def _adaptive_integral(
    fun: Callable[[mpf], mpf],
    panels: Sequence[Tuple[mpf, mpf]],
    tol: mpf,
    order: int,
) -> Tuple[mpf, mpf]:
    """Integral over the given panels and a bound on the acceptance slack.

    Each panel is bisected until the two halves reproduce the parent
    value within tol * (panel width) / (total width); accepted defects
    are summed, so the returned error estimate never exceeds tol.
    """
    nodes = _gauss_legendre_nodes(order, mpmath.mp.dps)
    total_width = mpmath.fsum(b - a for a, b in panels)
    if total_width <= 0:
        raise ValueError("quadrature region has no width")
    pieces: List[mpf] = []
    defects: List[mpf] = []
    stack = [(a, b, _panel_value(fun, a, b, nodes), 0) for a, b in panels if b > a]
    while stack:
        a, b, parent, depth = stack.pop()
        mid = (a + b) / 2
        left = _panel_value(fun, a, mid, nodes)
        right = _panel_value(fun, mid, b, nodes)
        defect = abs(left + right - parent)
        if defect <= tol * (b - a) / total_width:
            pieces.append(left)
            pieces.append(right)
            defects.append(defect)
        elif depth >= MAX_BISECTION_DEPTH:
            raise QuadratureError(
                f"panel [{mpmath.nstr(a, 8)}, {mpmath.nstr(b, 8)}] still defective "
                f"at bisection depth {MAX_BISECTION_DEPTH}"
            )
        else:
            stack.append((a, mid, left, depth + 1))
            stack.append((mid, b, right, depth + 1))
    return mpmath.fsum(pieces), mpmath.fsum(defects)


def adaptive_smoothed_entropy(
    pmf: IntegerPmf, sigma, tol, precision: int
) -> SmoothedEntropy:
    """h(S) by the adaptive quadrature, with its acceptance slack plus the
    truncation bound as ``quadrature_error``."""
    sig = as_mpf(sigma, precision)
    tolerance = as_mpf(tol, precision)
    with working_precision(precision):
        positions = [k for k, w in pmf.items() if w > 0]
        weights = [w for w in pmf.weights if w > 0]
        truncation = _truncation_bound(weights, sig)
        window = DENSITY_WINDOW_SIGMAS * sig
        norm = 1 / (sig * mpmath.sqrt(2 * mpmath.pi))
        inv_two_s2 = 1 / (2 * sig * sig)
        pos_f = [mpf(k) for k in positions]
        panel_budget = tolerance - truncation

        def density(x: mpf) -> mpf:
            lo = bisect.bisect_left(positions, x - window)
            hi = bisect.bisect_right(positions, x + window)
            if lo >= hi:
                return mpf(0)
            return norm * mpmath.fsum(
                weights[i] * mpmath.exp(-((x - pos_f[i]) ** 2) * inv_two_s2)
                for i in range(lo, hi)
            )

        def integrand(x: mpf) -> mpf:
            v = density(x)
            return -v * mpmath.ln(v) if v > 0 else mpf(0)

        lo_edge = pos_f[0] - REGION_PAD_SIGMAS * sig
        hi_edge = pos_f[-1] + REGION_PAD_SIGMAS * sig
        cut = min(window, mpf(1) / 2)
        edges = {lo_edge, hi_edge}
        for x in pos_f:
            for candidate in (x - cut, x + cut):
                if lo_edge < candidate < hi_edge:
                    edges.add(candidate)
        ordered = sorted(edges)
        panels = [
            (a, b) for a, b in zip(ordered, ordered[1:]) if b > a
        ]
        h_value, defect = _adaptive_integral(
            integrand, panels, panel_budget, QUADRATURE_ORDER
        )
    return SmoothedEntropy(n=None, sigma=sig, h_value=h_value, quadrature_error=defect + truncation)
