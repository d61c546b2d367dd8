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

The second half of this module is the bit oracle of that function:
``reference_smoothed_entropy``, the closed form and the trapezoid as
they were written on mpf objects, with one ``_convolve_runs`` per grid
offset r/M, before the samples moved to packed products of the whole
Gaussian table.  The tests compare the package with it by ``==`` on raw
tuples.
"""

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf
from mpmath.libmp import from_man_exp

from discrete_epi.asymptotics import (
    MAX_TRAPEZOID_STEPS,
    REGION_PAD_SIGMAS,
    SmoothedEntropy,
    _peaks,
    _truncation_bound,
)
from discrete_epi.dist_core import (
    IntegerPmf,
    _convolve_runs,
    _exact_sum,
    _log_sum,
    _rounded,
    _runs,
)
from discrete_epi.errors import QuadratureError
from discrete_epi.precision import _positive, as_mpf, working_precision

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
        truncation = _truncation_bound(_peaks(pmf), sig)
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


# ---------------------------------------------------------------------------
# Bit oracle: the closed form and the trapezoid on mpf objects
# ---------------------------------------------------------------------------

def _reference_truncation(weights: Sequence[mpf], sig: mpf) -> mpf:
    a = mpf(REGION_PAD_SIGMAS)
    phi_a = mpmath.exp(-a * a / 2) / mpmath.sqrt(2 * mpmath.pi)
    q_a = mpmath.erfc(a / mpmath.sqrt(2)) / 2
    z2_tail = q_a + a * phi_a  # integral of z**2 phi(z) beyond a
    log_norm = abs(mpmath.ln(sig * mpmath.sqrt(2 * mpmath.pi)))
    total = mpmath.fsum(
        w * (z2_tail / 2 + q_a * (abs(mpmath.ln(w)) + log_norm)) for w in weights
    )
    return 2 * total


def _reference_disjoint_peaks(
    weights: Sequence[mpf], sig: mpf, spacing: int
) -> Optional[Tuple[mpf, mpf]]:
    mass = mpmath.fsum(weights)
    fano = mpf(0)
    if len(weights) > 1:
        sig2_up = mpmath.fmul(sig, sig, rounding="u")
        exponent = mpmath.fdiv(
            spacing * spacing, mpmath.fmul(8, sig2_up, rounding="u"), rounding="d"
        )
        root_sum = mpmath.fsum(mpmath.sqrt(w) for w in weights)
        beta = root_sum * root_sum / (2 * mass) * mpmath.exp(-exponent)
        if beta > mpf(1) / 2:
            return None
        fano = beta * (1 - mpmath.ln(beta) + mpmath.ln(len(weights) - 1))
    prec = mpmath.mp.prec
    man, exp = _log_sum(((x, x, None) for x in (w._mpf_ for w in weights)), prec)
    h_p = _rounded((-man, exp), prec)
    log_term = mpmath.ln(2 * mpmath.pi * mpmath.e * sig * sig) / 2
    rounding = 8 * mpmath.eps * (h_p + abs(log_term) + 1)
    error = 2 * mass * fano + abs(mass - 1) * abs(log_term) + rounding
    return h_p + log_term, error


def _reference_concavity(weights: Sequence[mpf]) -> mpf:
    if not all(weights):
        return mpf(0)
    rho = mpf(1)
    exact = [w._mpf_[1:3] for w in weights]
    for (m0, e0), (m1, e1), (m2, e2) in zip(exact, exact[1:], exact[2:]):
        shift = 2 * e1 - e0 - e2
        square, outer = m1 * m1 << max(shift, 0), m0 * m2 << max(-shift, 0)
        if square < outer:
            rho = min(rho, mpmath.fdiv(square, outer, rounding="d"))
    return rho


def _reference_strip(sig: mpf, span: int, rho: mpf) -> Tuple[mpf, mpf, mpf]:
    sig2 = sig * sig
    log_up = mpf("1.38629436112")
    if 0 < rho < 1:
        widen = 1 + mpmath.ldexp(1, 8 - mpmath.mp.prec)
        log_up = mpmath.fadd(log_up, mpmath.fmul(-mpmath.ln(rho), widen, rounding="u"), rounding="u")
    if rho > 0 and mpmath.fmul(mpmath.fmul(sig, sig, rounding="u"), log_up, rounding="u") < 1:
        theta = 2 * mpmath.pi / 3
        return theta * sig2, span * mpmath.ln(2), span * theta
    inv = 1 / (2 * sig2)
    lag = 1 if rho >= 1 else max(span, 1)
    while lag < span:
        first = mpmath.exp(-lag * (lag + 1) * inv)
        if 2 * first <= -mpmath.expm1(-2 * (lag + 1) * inv) / 4:
            break
        lag += 1
    return mpmath.pi * sig2 / (3 * lag), mpmath.ln(mpf(4) / 3), mpmath.pi / 2


def _reference_reach(weights: Sequence[mpf], sig: mpf, near: mpf, prec: int) -> mpf:
    slope = mpf(0)
    if len(weights) > 1:
        ends = (weights[1] / weights[0], weights[-1] / weights[-2])
        slope = max(abs(mpmath.ln(t)) for t in ends) + 1
    drift, bits = sig * sig * slope, (prec + 18) * mpmath.ln(2)
    root = drift + mpmath.sqrt((near + drift) ** 2 + 2 * sig * sig * bits)
    return max(root, drift + sig * sig * mpmath.ln(2))


def _reference_trapezoid(weights: Sequence[mpf], sig: mpf, tol: mpf) -> Tuple[mpf, mpf, int]:
    """h(S), its bound and the grid M, one ``_convolve_runs`` per offset."""
    peaks = [w for w in weights if w]
    truncation = _reference_truncation(peaks, sig)
    if tol <= 2 * truncation:
        raise QuadratureError("tolerance is below the truncation floor")
    span = len(weights) - 1
    prec, u = mpmath.mp.prec, mpmath.eps
    pi, root2pi = mpmath.pi, mpmath.sqrt(2 * mpmath.pi)
    mass = mpmath.fsum(peaks)
    if mass * mpmath.exp(-32) > sig * root2pi:
        raise QuadratureError("sigma is too small for the grid-truncation bound")
    h_w = mpmath.fsum(w * abs(mpmath.ln(w)) for w in peaks)
    log_norm = abs(mpmath.ln(sig * root2pi))
    log_peak = abs(mpmath.ln(mass / (sig * root2pi)))
    rho = _reference_concavity(weights)
    a, loss, turn = _reference_strip(sig, span, rho)
    excess = a * a / (2 * sig * sig)
    log_part = h_w + mass * (log_norm + mpf(1) / 2 + loss + excess + log_peak)
    phase_part = mass * (a / (sig * sig) * (sig * mpmath.sqrt(2 / pi) + span) + turn)
    strip_mass = mpmath.exp(excess) * (log_part + phase_part)

    pad_sigmas = mpf(REGION_PAD_SIGMAS)
    edge = 2 * mpmath.exp(-pad_sigmas ** 2 / 2) / (sig * root2pi) * (
        h_w + mass * (log_norm + pad_sigmas ** 2 / 2))
    log_sum = h_w + mass * (log_peak + log_norm + 1)
    coarse = log_sum / (sig * root2pi) + 2 * mass / (mpmath.e * sig * root2pi)
    fixed = truncation + 16 * u * (log_sum + mass / 2)

    def bound(steps: int) -> mpf:
        discretisation = 2 * strip_mass / mpmath.expm1(2 * pi * a * steps)
        per_step = (edge + 16 * u * coarse) / steps
        return (discretisation + fixed + per_step) * (1 + mpf(2) ** -32)

    share = tol - fixed
    if not share > 0:
        raise QuadratureError("tolerance is below the trapezoid's fixed error")
    steps = max(1, int(mpmath.ceil(mpmath.log1p(2 * strip_mass / share) / (2 * pi * a))))
    while True:
        if steps > MAX_TRAPEZOID_STEPS:
            raise QuadratureError("steps per unit")
        err = bound(steps)
        if err <= tol:
            break
        steps += 1
    pad = int(mpmath.ceil(REGION_PAD_SIGMAS * sig * steps))

    reach = span * steps + pad
    if rho >= 1:
        near = max(mpf(pad) / steps, mpf(1) / 2)
        far = _reference_reach(weights, sig, near, prec)
        reach = min(int(mpmath.ceil(far * steps)), reach)
    z2 = int(mpmath.ceil(mpf(reach) ** 2 / (2 * (sig * steps) ** 2)))
    guard = (10 + 10 * z2 + 6 * reach * reach).bit_length() + 20
    half: List[mpf] = []
    with mpmath.workprec(prec + guard):
        ratio_step = mpmath.exp(-1 / (2 * (sig * steps) ** 2))
        ratio_square = ratio_step * ratio_step
        value, ratio = 1 / (sig * mpmath.sqrt(2 * pi)), ratio_step
        for _ in range(reach + 1):
            half.append(value)
            value, ratio = value * ratio, ratio * ratio_square
    table = [+g for g in half]

    run_span = 2 * prec
    runs = _runs([w._mpf_ for w in weights], run_span)
    partials = []
    for r in range(steps):
        first = -((reach + r) // steps)
        kernel = [table[abs(steps * s + r)] for s in range(first, (reach - r) // steps + 1)]
        sums = _convolve_runs(
            runs, _runs([g._mpf_ for g in kernel], run_span), len(weights) + len(kernel) - 1, prec)
        samples = (
            from_man_exp(man, exp, prec, "n")
            for i, (man, exp) in enumerate(sums, first)
            if -pad <= steps * i + r <= span * steps + pad
        )
        partials.append(_log_sum(((f, f, None) for f in samples), prec))
    return -mpf(_exact_sum(partials)) / steps, err, steps


def reference_smoothed_entropy(pmf: IntegerPmf, sigma, tol, precision: int) -> Tuple[str, SmoothedEntropy]:
    """The route ("closed" or "trapezoid") and the result, on mpf objects."""
    sig = _positive(sigma, "sigma", precision)
    tolerance = _positive(tol, "tolerance", precision)
    route = "closed"
    with working_precision(precision):
        positions = [k for k, w in pmf.items() if w > 0]
        weights = [w for w in pmf.weights if w > 0]
        spacing = min((b - a for a, b in zip(positions, positions[1:])), default=1)
        answer = _reference_disjoint_peaks(weights, sig, spacing)
        if answer is None or answer[1] > tolerance:
            lo, hi = positions[0] - pmf.offset, positions[-1] - pmf.offset
            route, answer = "trapezoid", _reference_trapezoid(pmf.weights[lo:hi + 1], sig, tolerance)
    return route, SmoothedEntropy(n=None, sigma=sig, h_value=answer[0], quadrature_error=answer[1])
