"""Integer-supported pmfs and their entropies at configurable precision.

A pmf is stored as a dense weight vector over a contiguous block of
integers together with the position of its first entry.  Weights are
mpmath floats created at an explicit decimal precision; every operation
that combines two pmfs insists they were built at the same precision,
and every constructor checks that total mass is one within
``eps_for(precision)``.

Binomial pmfs are built by repeated Bernoulli mixing,

    P[n+1](k) = (1-p) P[n](k) + p P[n](k-1),

which needs no factorials or ratios and is stable at any size.  Sums of
many iid copies use convolution by repeated squaring, so ``n`` copies
cost O(log n) convolutions.

Error model of ``binomial_entropy_chain``.  The chain mixes in fixed
point: weights are integers scaled by 2**B, with B = prec + g, where
prec is the working precision in bits and g the guard bits below, and
one step is ``(Q*w[k] + P*w[k-1]) >> B`` with P = round(p 2**B) and
Q = 2**B - P.  Row n's entropy is

    H_n = -sum_k w_k (ln C(n,k) + k ln p + (n-k) ln q),

read off an integer table of log-factorials and the two logs ln p and
ln q, all evaluated at B + 16 bits and rounded to 2**-B: O(n_max)
logarithms per chain.  The error is absolute, in units of 2**-B:

* weights: the operator ``w -> (q w_k + p w_{k-1})`` is an l1
  contraction; replacing p by P/2**B costs at most 1 unit in l1 per
  step and the floor at most n + 1, so after n steps the weights are
  within n (n + 5) / 2 of the exact binomial weights b_k in l1, and
  their sum is at most 1.  Each weight multiplies ln b_k, and
  |ln b_k| <= n L with L = max(|ln p|, |ln q|).
* logs: each table entry, ln p and ln q is good to 2**-16 relative
  before it is rounded to the nearest unit.  A term combines 3n of
  them, of total size below n (2 ln n + L), so it is off by at most
  1.5 n + n (2 ln n + L) 2**-16 <= 2n (L + 1) units (ln n < 2**14 for
  any chain that fits in memory).

Together |H_n - H[B(n, p)]| < 2**-B (n + 1)**3 (L + 1).  The guard is
g = bit_length((n_max + 1)**3 (Lb + 2)), where Lb = 1 - e and e is the
smaller ``frexp`` exponent of p and q, so min(p, q) >= 2**(e - 1),
L < Lb + 1, and the fixed-point error stays below 2**-prec.  Rounding a row to an mpf adds at most
2**-prec H_n.

``binomial_pmf`` keeps mixing in mpf.  Its weights are handed to
consumers of weight ratios (``kl_divergence``, ``cap_via_series``, the
tails of ``IntegerPmf``), which need relative accuracy down to the
smallest weight, and fixed point only gives an absolute one.  It is
also the independent route the tests check the chain against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import mpmath
from mpmath import mpf

from .errors import MassConservationError, PrecisionMismatchError
from .precision import (
    DEFAULT_PRECISION,
    RealLike,
    as_mpf,
    check_precision,
    eps_for,
    working_precision,
)

__all__ = [
    "IntegerPmf",
    "BernoulliParam",
    "bernoulli_entropy",
    "binomial_entropy_chain",
    "binomial_pmf",
    "convolve",
    "delta_pmf",
    "entropy",
    "iid_sum_pmf",
    "mean",
    "omega",
    "shift",
]


@dataclass(frozen=True)
class IntegerPmf:
    """Dense pmf on the integers ``offset .. offset + len(weights) - 1``."""

    offset: int
    weights: Tuple[mpf, ...]
    precision: int

    def __post_init__(self):
        check_precision(self.precision)
        if not isinstance(self.offset, int):
            raise ValueError(f"offset must be an integer, got {self.offset!r}")
        if len(self.weights) == 0:
            raise ValueError("pmf needs at least one weight")
        with working_precision(self.precision):
            for w in self.weights:
                if not (w >= 0):
                    raise ValueError(f"negative or invalid weight {w}")
            mass = mpmath.fsum(self.weights)
            if abs(mass - 1) > eps_for(self.precision):
                raise MassConservationError(
                    f"total mass {mpmath.nstr(mass, 20)} deviates from 1 "
                    f"beyond eps at precision {self.precision}"
                )

    @classmethod
    def from_weights(
        cls,
        weights: Sequence[RealLike],
        offset: int = 0,
        precision: int = DEFAULT_PRECISION,
    ) -> "IntegerPmf":
        converted = tuple(as_mpf(w, precision) for w in weights)
        return cls(offset=offset, weights=converted, precision=precision)

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def last(self) -> int:
        return self.offset + self.size - 1

    def support(self) -> range:
        return range(self.offset, self.offset + self.size)

    def weight_at(self, k: int) -> mpf:
        """Weight at absolute integer position k (zero off support)."""
        i = k - self.offset
        if 0 <= i < self.size:
            return self.weights[i]
        with working_precision(self.precision):
            return mpf(0)

    def items(self) -> Iterator[Tuple[int, mpf]]:
        for i, w in enumerate(self.weights):
            yield self.offset + i, w


@dataclass(frozen=True)
class BernoulliParam:
    """Success probability together with its derived reparametrisations.

    q = 1 - p, r = p - 1/2, and t solves r**2 = t / (4 (t + 4)); t
    coincides with omega(p) = (2p-1)**2 / (p (1-p)) and maps (0, 1) onto
    [0, inf) symmetrically in p <-> 1-p.
    """

    p: mpf
    q: mpf
    r: mpf
    t: mpf
    precision: int

    @classmethod
    def from_p(cls, p: RealLike, precision: int = DEFAULT_PRECISION) -> "BernoulliParam":
        pv = as_mpf(p, precision)
        with working_precision(precision):
            if not (0 < pv < 1):
                raise ValueError(f"p must lie strictly inside (0, 1), got {pv}")
            q = 1 - pv
            r = pv - mpf(1) / 2
            t = (2 * pv - 1) ** 2 / (pv * q)
        return cls(p=pv, q=q, r=r, t=t, precision=precision)


def _check_same_precision(a: IntegerPmf, b: IntegerPmf) -> int:
    if a.precision != b.precision:
        raise PrecisionMismatchError(
            f"pmfs built at different precisions: {a.precision} vs {b.precision}"
        )
    return a.precision


def delta_pmf(k: int = 0, precision: int = DEFAULT_PRECISION) -> IntegerPmf:
    """Point mass at the integer k."""
    with working_precision(precision):
        return IntegerPmf(offset=k, weights=(mpf(1),), precision=precision)


def bernoulli_entropy(p: RealLike, precision: int = DEFAULT_PRECISION) -> mpf:
    """Binary entropy H(p) = -p ln p - (1-p) ln(1-p) in nats."""
    pv = as_mpf(p, precision)
    with working_precision(precision):
        if not (0 <= pv <= 1):
            raise ValueError(f"p must lie in [0, 1], got {pv}")
        if pv == 0 or pv == 1:
            return mpf(0)
        q = 1 - pv
        return -pv * mpmath.ln(pv) - q * mpmath.ln(q)


def omega(p: RealLike, precision: int = DEFAULT_PRECISION) -> mpf:
    """Skew parameter omega(p) = (2p-1)**2 / (p (1-p)).

    Zero exactly at p = 1/2, symmetric under p <-> 1-p, and strictly
    increasing in |p - 1/2|; diverges at the endpoints, which are
    rejected.
    """
    return BernoulliParam.from_p(p, precision).t


def binomial_pmf(n: int, p: RealLike, precision: int = DEFAULT_PRECISION) -> IntegerPmf:
    """Binomial(n, p) pmf on support {0, ..., n} via Bernoulli mixing."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    pv = as_mpf(p, precision)
    with working_precision(precision):
        if not (0 <= pv <= 1):
            raise ValueError(f"p must lie in [0, 1], got {pv}")
        q = 1 - pv
        w = [mpf(1)]
        for _ in range(n):
            nxt = [q * w[0]]
            for k in range(1, len(w)):
                nxt.append(q * w[k] + pv * w[k - 1])
            nxt.append(pv * w[-1])
            w = nxt
    return IntegerPmf(offset=0, weights=tuple(w), precision=precision)


def convolve(a: IntegerPmf, b: IntegerPmf) -> IntegerPmf:
    """Pmf of the sum of independent variables with pmfs a and b."""
    precision = _check_same_precision(a, b)
    with working_precision(precision):
        out = [mpf(0)] * (a.size + b.size - 1)
        for i, wa in enumerate(a.weights):
            if wa == 0:
                continue
            for j, wb in enumerate(b.weights):
                out[i + j] += wa * wb
    return IntegerPmf(offset=a.offset + b.offset, weights=tuple(out), precision=precision)


def shift(pmf: IntegerPmf, k: int) -> IntegerPmf:
    """Translate the support by the integer k; weights are unchanged."""
    if not isinstance(k, int):
        raise ValueError(f"shift must be an integer, got {k!r}")
    return IntegerPmf(offset=pmf.offset + k, weights=pmf.weights, precision=pmf.precision)


def entropy(pmf: IntegerPmf) -> mpf:
    """Shannon entropy -sum w ln w in nats; zero weights contribute zero."""
    with working_precision(pmf.precision):
        return -mpmath.fsum(w * mpmath.ln(w) for w in pmf.weights if w > 0)


def mean(pmf: IntegerPmf) -> mpf:
    with working_precision(pmf.precision):
        return mpmath.fsum(k * w for k, w in pmf.items())


def iid_sum_pmf(base: IntegerPmf, n: int) -> IntegerPmf:
    """Pmf of the sum of n iid copies of base, by repeated squaring.

    n = 0 gives the point mass at zero (the empty sum).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    result = delta_pmf(0, base.precision)
    square = base
    e = n
    while e:
        if e & 1:
            result = convolve(result, square)
        e >>= 1
        if e:
            square = convolve(square, square)
    return result


def binomial_entropy_chain(
    p: RealLike, n_max: int, precision: int = DEFAULT_PRECISION
) -> list:
    """Entropies H[Binomial(n, p)] for n = 0 .. n_max in one pass.

    One fixed-point Bernoulli mixing step per n keeps the total cost
    quadratic in n_max in integer operations, with n_max + 1
    logarithms in all; the error model is in the module docstring.
    """
    if not isinstance(n_max, int) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max!r}")
    pv = as_mpf(p, precision)
    with working_precision(precision):
        if not (0 <= pv <= 1):
            raise ValueError(f"p must lie in [0, 1], got {pv}")
        if pv == 0 or pv == 1:
            return [mpf(0)] * (n_max + 1)
        # min(p, q) >= 2**(e - 1), so max(|ln p|, |ln q|) < log_bits + 1.
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
