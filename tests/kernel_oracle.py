"""The pmf kernels written in mpf arithmetic: oracles for the raw kernels.

``precision``, ``dist_core``, ``discrimination`` and ``epi_engine``
compute on raw mpf tuples and Python integers.  The functions here are
the same computations spelled with mpf objects, term by term as the
package once ran them: the conversions and the p check in working
precision, the pmf checks with one mpf comparison per weight and an
``fsum``, ``mpf(c)`` for every convolution output, the entropy and
divergences summed by ``fsum``, the binomial weights by exact integer
division, ``binomial_step_c`` as an ``fsum`` of mpf expressions, and
the entropy chain and its step margins in mpf.  The tests assert that
the raw kernels give the same bits.

``moment_poly`` is the binomial moment table as the package once built
it: a sum over every set partition of products of Bernoulli-cumulant
polynomials.  The tests assert that Romanovsky's recurrence gives the
same exact rows.  ``partition_poly`` is the same set-partition sum over
any exact cumulants: the moment polynomial of an iid sum that
``faa_di_bruno_poly`` rounds once.
"""

import functools
import math
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

import mpmath
from mpmath import mpf

from discrete_epi.dist_core import IntegerPmf, _runs
from discrete_epi.errors import MassConservationError
from discrete_epi.precision import eps_for, working_precision


def as_mpf(value, precision: int) -> mpf:
    with working_precision(precision):
        if isinstance(value, Fraction):
            return mpf(value.numerator) / mpf(value.denominator)
        if isinstance(value, (int, str)):
            return mpf(value)
        return mpf(value) * 1  # round mpf/float inputs to working precision


def probability(p, precision: int, strict: bool = False) -> mpf:
    pv = as_mpf(p, precision)
    with working_precision(precision):
        if strict and not 0 < pv < 1:
            raise ValueError(f"p must lie strictly in (0, 1), got {pv}")
        if not 0 <= pv <= 1:
            raise ValueError(f"p must lie in [0, 1], got {pv}")
    return pv


def bernoulli_entropy(p, precision: int) -> mpf:
    pv = probability(p, precision)
    with working_precision(precision):
        if pv == 0 or pv == 1:
            return mpf(0)
        q = 1 - pv
        return -pv * mpmath.ln(pv) - q * mpmath.ln(q)


def binomial_pmf(n: int, p, precision: int) -> Tuple[mpf, ...]:
    """Weights of B(n, p): exact numerators C(n, k) a**k b**(n-k) rolled by
    exact division, each rounded by ``mpf((t, -e n))``."""
    pv = probability(p, precision)
    with working_precision(precision):
        if pv == 0 or pv == 1:
            w = [mpf(0)] * (n + 1)
            w[n if pv == 1 else 0] = mpf(1)
            return tuple(w)
        a, exp = pv.man_exp
        e = -exp
        b = (1 << e) - a
        t = b**n
        w = [mpf((t, -e * n))]
        for k in range(1, n + 1):
            t = t * (n - k + 1) * a // (k * b)
            w.append(mpf((t, -e * n)))
    return tuple(w)


def binomial_step_c(n: int, p, precision: int) -> mpf:
    pv = probability(p, precision, strict=True)
    weights = binomial_pmf(n + 1, pv, precision)
    with working_precision(precision):
        hp = bernoulli_entropy(pv, precision)
        terms = []
        for i, w in enumerate(weights):
            if w == 0:
                continue
            x = mpf(i) / (n + 1)
            terms.append((hp - bernoulli_entropy(x, precision)) * w)
        return mpmath.fsum(terms)


def binomial_entropy_chain(p, n_max: int, precision: int) -> List[mpf]:
    pv = probability(p, precision)
    with working_precision(precision):
        if pv == 0 or pv == 1:
            return [mpf(0)] * (n_max + 1)
        log_bits = 1 - min(mpmath.frexp(pv)[1], mpmath.frexp(1 - pv)[1])
        B = mpmath.mp.prec + ((n_max + 1) ** 3 * (log_bits + 2)).bit_length()
        with mpmath.workprec(B + 16):

            def fixed(x):
                return int(mpmath.nint(mpmath.ldexp(x, B)))

            P = fixed(pv)
            lp, lq = fixed(mpmath.ln(pv)), fixed(mpmath.ln(1 - pv))
            log_fact = [0, 0]
            for j in range(2, n_max + 1):
                log_fact.append(log_fact[-1] + fixed(mpmath.ln(j)))
        Q = (1 << B) - P
        w = [1 << B]
        out = [mpf(0)]
        for n in range(1, n_max + 1):
            w = [(Q * a + P * b) >> B for a, b in zip(w + [0], [0] + w)]
            lf_n = log_fact[n]
            acc = sum(
                wk * (lf_n - log_fact[k] - log_fact[n - k] + k * lp + (n - k) * lq)
                for k, wk in enumerate(w)
            )
            out.append(-mpmath.ldexp(mpf(acc), -2 * B))
    return out


def step_margin(h_next: mpf, h_cur: mpf, n: int, precision: int) -> mpf:
    with working_precision(precision):
        return h_next - h_cur - mpmath.ln(mpf(n + 1) / n) / 2


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
        runs_a = _runs([w._mpf_ for w in a.weights], 2 * prec)
        runs_b = runs_a if a.weights is b.weights else _runs([w._mpf_ for w in b.weights], 2 * prec)
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


def _rmul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Product of two polynomials in r, as coefficients of r**0, r**1, ..."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _shapes(k: int, top: int) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Partitions of k into parts 2 .. top, as ((part, multiplicity), ...)."""
    if k == 0:
        yield ()
    for g in range(min(k, top), 1, -1):
        for i in range(1, k // g + 1):
            for rest in _shapes(k - g * i, g - 1):
                yield ((g, i),) + rest


@functools.lru_cache(maxsize=None)
def _block_partitions(k: int) -> Tuple[Tuple[int, Tuple[Tuple[int, int], ...], int], ...]:
    """Set partitions of k items into blocks of size >= 2, as (weight, shape, b).

    A shape ((g, i), ...) has i blocks of size g, b blocks in all, and
    weight = k! / prod (i! (g!)**i) set partitions.
    """
    out = []
    for parts in _shapes(k, k):
        weight = math.factorial(k)
        for g, i in parts:
            weight //= math.factorial(i) * math.factorial(g) ** i
        out.append((weight, parts, sum(i for _, i in parts)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def kappa_poly(g: int) -> Tuple[Fraction, ...]:
    """Cumulant kappa_g of Bernoulli(1/2 + r), as coefficients in r.

    kappa_(g+1) = p (1 - p) d kappa_g / dp, and p (1 - p) = 1/4 - r**2.
    """
    if g == 1:
        return (Fraction(1, 2), Fraction(1))
    slope = [j * c for j, c in enumerate(kappa_poly(g - 1))][1:]
    return _rmul((Fraction(1, 4), Fraction(0), Fraction(-1)), slope)


def moment_poly(k: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """mu_k of Binomial(n, 1/2 + r) = sum_i n**i P_i(r), as (P_0, P_1, ...).

    Each P_i is its coefficients in r; a block shape with b blocks
    lands in P_b.
    """
    # built in ascending order, so the cache fills without deep recursion
    kappa = [()] + [kappa_poly(g) for g in range(1, k + 1)]
    rows = [[Fraction(0)] * (k + 1) for _ in range(k // 2 + 1)]
    for weight, parts, b in _block_partitions(k):
        term: Tuple[Fraction, ...] = (Fraction(weight),)
        for g, i in parts:
            for _ in range(i):
                term = _rmul(term, kappa[g])
        for j, c in enumerate(term):
            rows[b][j] += c
    return tuple(tuple(row) for row in rows)


def partition_poly(k: int, kappas: Sequence[Fraction]) -> dict:
    """mu_k of a j-fold iid sum = sum_b j**b c_b, exactly, as {b: c_b}.

    kappas[g - 1] is kappa_g; a set partition into b blocks of sizes
    g_a >= 2 adds the product of its kappa_(g_a) to c_b.
    """
    out = {}
    for weight, parts, b in _block_partitions(k):
        term = Fraction(weight)
        for g, i in parts:
            term *= kappas[g - 1] ** i
        out[b] = out.get(b, 0) + term
    return out
