"""The pmf kernels written in mpf arithmetic: oracles for the raw kernels.

``dist_core`` and ``discrimination`` compute on raw mpf tuples and sum
their logarithmic terms exactly.  The functions here are the same
computations spelled with mpf objects, term by term as the package once
ran them: the pmf checks with one mpf comparison per weight and an
``fsum``, ``mpf(c)`` for every convolution output, and the entropy and
divergences summed by ``fsum``.  The tests assert that the raw kernels
give the same bits.
"""

from typing import List, Sequence, Tuple

import mpmath
from mpmath import mpf

from discrete_epi.dist_core import IntegerPmf, _runs
from discrete_epi.errors import MassConservationError
from discrete_epi.precision import eps_for, working_precision


def check_weights(weights: Sequence[mpf], precision: int) -> None:
    """The pmf weight and mass checks, one mpf comparison per weight."""
    with working_precision(precision):
        for w in weights:
            if not (w >= 0):
                raise ValueError(f"negative or invalid weight {w}")
        mass = mpmath.fsum(weights)
        if abs(mass - 1) > eps_for(precision):
            raise MassConservationError(
                f"total mass {mpmath.nstr(mass, 20)} deviates from 1 "
                f"beyond eps at precision {precision}"
            )


def entropy(pmf: IntegerPmf) -> mpf:
    with working_precision(pmf.precision):
        return -mpmath.fsum(w * mpmath.ln(w) for w in pmf.weights if w > 0)


def _aligned(P: IntegerPmf, Q: IntegerPmf) -> Tuple[int, List[Tuple[mpf, mpf]]]:
    lo = min(P.offset, Q.offset)
    hi = max(P.last, Q.last)
    return lo, [(P.weight_at(k), Q.weight_at(k)) for k in range(lo, hi + 1)]


def kl_divergence(P: IntegerPmf, Q: IntegerPmf) -> mpf:
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


def mixture(P: IntegerPmf, Q: IntegerPmf, p: mpf) -> Tuple[int, Tuple[mpf, ...]]:
    """Offset and weights of pP + (1-p)Q."""
    lo, pairs = _aligned(P, Q)
    with working_precision(P.precision):
        qv = 1 - p
        return lo, tuple(p * pw + qv * qw for pw, qw in pairs)


def cap_discrimination(P: IntegerPmf, Q: IntegerPmf, p: mpf) -> mpf:
    _, pairs = _aligned(P, Q)
    with working_precision(P.precision):
        qv = 1 - p
        terms = []
        for pw, qw in pairs:
            if pw == qw:
                continue
            m = p * pw + qv * qw
            if pw > 0:
                terms.append(p * pw * mpmath.ln(pw / m))
            if qw > 0:
                terms.append(qv * qw * mpmath.ln(qw / m))
        return mpmath.fsum(terms)


def convolve(a: IntegerPmf, b: IntegerPmf) -> Tuple[int, Tuple[mpf, ...]]:
    """Offset and weights of a * b: every output gathers a list of terms,
    keeps those within the drop floor and is rounded by ``mpf(c)``."""
    with working_precision(a.precision):
        prec = mpmath.mp.prec
        runs_a = _runs(a.weights, 2 * prec)
        runs_b = runs_a if a.weights is b.weights else _runs(b.weights, 2 * prec)
        square = runs_a is runs_b
        drop = prec + (len(runs_a) * len(runs_b)).bit_length() + 16 + 1
        terms: List[List[Tuple[int, int]]] = [[] for _ in range(a.size + b.size - 1)]
        for i, (sa, xa, ea, _) in enumerate(runs_a):
            for j, (sb, xb, eb, _) in enumerate(runs_b):
                if square and j < i:
                    continue
                slots = [0] * (len(xa) + len(xb) - 1)
                for s, x in enumerate(xa):
                    for t, y in enumerate(xb):
                        slots[s + t] += x * y
                copies = 2 if square and i != j else 1
                for k, v in enumerate(slots, sa + sb):
                    if v:
                        terms[k].extend([(v, ea + eb)] * copies)
        out = []
        for contributions in terms:
            if len(contributions) > 1:
                tops = [v.bit_length() + e for v, e in contributions]
                cut = max(tops) - drop
                kept = [c for c, top in zip(contributions, tops) if top > cut]
                e0 = min(e for _, e in kept)
                contributions = [(sum(v << (e - e0) for v, e in kept), e0)]
            out.append(mpf(contributions[0]) if contributions else mpf(0))
        return a.offset + b.offset, tuple(out)
