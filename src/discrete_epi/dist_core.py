"""Integer-supported pmfs and their entropies at configurable precision.

A pmf is stored as a dense weight vector over a contiguous block of
integers together with the position of its first entry.  Weights are
mpmath floats created at an explicit decimal precision; every operation
that combines two pmfs insists they were built at the same precision,
and every constructor checks that total mass is one within
``eps_for(precision)``.

Binomial pmfs are built exactly and rounded once (error model below).
Sums of n iid copies come from one repeated-squaring ladder
(``_iid_ladder``, shared with ``asymptotics.iid_power_pmfs`` and
``iid_epi_gap``): at most 2 log2(n) convolutions, whose cost is
dominated by the last squaring, at half the final support.  A sum whose
support would pass ``MAX_SUM_SUPPORT`` points is refused before any
convolution (BudgetExceededError).  The entropy chain costs O(n_max**2) integer
steps, so a chain of more than ``MAX_CHAIN_ROWS`` rows is refused
before any work (BudgetExceededError): at 50 digits and p = 0.3 it took
3.7 s for 4,001 rows and 49 s for the largest allowed, 16,384, on a
2-core Xeon (Python 3.11.7, pure-Python mpmath 1.3.0).  ``binomial_pmf``
takes n steps and about 2 log2(n) squarings on integers of
W = prec + 64 + bit_length(n) bits, after one pass over the e bits of
p's exact 1 - p (error model below), so its cost no longer grows with
e n; it refuses more than ``MAX_CHAIN_ROWS`` weights the same way.  On
the same machine the largest allowed, n = 16,383 at p = 0.3, took
0.09 s, and ``smooth --p 1e-100000000 --n 2``, whose e is 332 M bits,
0.6 s end to end.

Error model of ``convolve``.  Every mpf weight is exactly man * 2**exp,
so the product needs no rounding until the end:

* runs: each weight vector is cut into contiguous runs whose nonzero
  exponents span at most 2 prec bits, prec being the working precision
  in bits.  A run holds the exact integers man << (exp - run exponent),
  of at most 3 prec bits each.  The span bound is what keeps the packed
  width proportional to the run length: without it one weight of 1e-300
  stretches every slot to a thousand bits per fold.  At 2 prec a slot
  is at most three times as wide as the mantissas alone need.
* products: each pair of runs is packed into two big ints with slots of
  bits(x) + bits(y) + bit_length(min length) bits, which no slot of the
  product can overflow, and multiplied once (Kronecker substitution;
  D. Harvey, arXiv:0712.4046), so every slot is the exact sum of its
  products.
* dropping: all terms are nonnegative, so an output's largest
  contribution is at most its value.  Contributions below 2**-(prec + g)
  of the largest are dropped, with g = 16 + bit_length(number of run
  pairs), the number of run pairs bounding the number of contributions
  to one output; together they are below 2**-(prec + 16) of the
  output.
* rounding: the kept contributions are summed exactly and rounded once
  to nearest, which is half an ulp, at most 2**-prec relative.

So every output weight is within 2**-prec (1 + 2**-16) of the exact
convolution of the input weights, relative to itself, however small it
is.  The mpf double loop this replaces rounded every product and every
partial sum, up to 2 min(len a, len b) roundings per weight.

Error model of ``binomial_entropy_chain``.  The chain mixes in fixed
point: weights are integers scaled by 2**B, with B = prec + g, where
prec is the working precision in bits and g the guard bits below, and
one step is ``(Q*w[k] + P*w[k-1]) >> B`` with P = round(p 2**B) and
Q = 2**B - P, computed as the same integer w[k] + (P (w[k-1] - w[k]) >>
B) with one product.  Row n's entropy is

    H_n = -sum_k w_k (ln C(n,k) + k ln p + (n-k) ln q),

read off an integer table of log-factorials lf_j and the two logs lp
and lq, all evaluated at B + 16 bits and rounded to the nearest unit of
2**-B, ties to even: O(n_max) logarithms per chain.  The row sum is
lf_n sum_k w_k + sum_k w_k (D_k + E_(n-k)), with D_k = k lp - lf_k and
E_j = j lq - lf_j, an exact integer identity.  The error is absolute,
in units of 2**-B:

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
L < Lb + 1, and the fixed-point error stays below 2**-prec.  Rounding a
row to an mpf, once to nearest, adds at most 2**-prec H_n.

Error model of ``binomial_pmf``.  p rounded to the working precision
is exactly a / 2**e; q is taken as the exact 1 - p = b / 2**e, with
b = 2**e - a, not as a rounded difference.  Weight k is then exactly

    w_k = C(n, k) a**k b**(n-k) / 2**(e n),

and each weight is rounded once to nearest, so it is within half an
ulp, at most 2**-prec relative, of the exact Binomial(n, p) weight,
however small it is.  The rounding is found without the exact
numerators, which grow to about e n bits, by Ziv's strategy (A. Ziv,
ACM TOMS 17(3), 1991): a cheap bracket, and the exact value only where
the bracket cannot decide.

* bracket: every operand has O(W) bits.  Each floor to W (or W + 1)
  bits loses less than one unit, at most d = 2**(1 - W) relative.
  The mantissa m of w_0 is b**n by left-to-right repeated squaring,
  from b floored to W bits and floored to W bits after every step
  (``_floor_pow``); a loss at the power b**i is raised to the n / i,
  which sums to m 2**s <= b**n < m 2**s (1 + d)**(2n).  Each next
  mantissa is the floored quotient m (n - k + 1) a / (k b'), scaled by
  a power of two that keeps it at W or W + 1 bits, with b' = b rounded
  up to W + 2 bits: that ratio is at most the exact w_k / w_(k-1) =
  (n - k + 1) a / (k b) and at least 1 / (1 + d / 4) of it.  So the
  exact w_k lies in [m, m (1 + d)**(2n + 2k)], which is inside
  [m, m + 8 (n + k + 1)] units: m < 2**(W + 1) and (2n + 2k) d < 2**-60.
* decision: rounding to nearest is monotone, so when m and m + 8 (n +
  k + 1) round to the same prec-bit value, so does everything between
  them, w_k included, and that value is the weight.
* fallback: otherwise C(n, k) a**k b**(n-k) is formed exactly and
  rounded.  A bracket of 8 (n + k + 1) units among 2**(W - prec) decides
  unless w_k lies within it of a rounding boundary, which in practice
  means an exact tie: p = 1/2, n = 75, k = 34 at 20 digits, where
  C(75, 34) / 2**75 lies halfway between two 70-bit values.

Consumers of weight ratios (``kl_divergence``, ``cap_via_series``, the
tails of ``IntegerPmf``) need exactly that relative accuracy, which
the fixed-point chain does not give.  The chain is the only Bernoulli
mixing left, so ``entropy(binomial_pmf(n, p))`` and the chain are
independent routes to the same entropies.

Raw kernels.  The pmf checks, ``convolve``'s outputs, ``entropy``, the
binary entropy, the chain's logarithms and rows, and the divergences
and ``binomial_step_c`` of ``discrimination`` compute on raw mpf tuples
(sign, man, exp, bc) through mpmath's ``libmp``, with the rounding of
every mpf operation they stand for, so they give the same bits as the
mpf expressions without building an mpf per intermediate.  The weight
check reads the sign bit and the special values: a sign on anything but
zero, or NaN, is refused, and +inf makes the mass infinite.  The mass is
the exact sum of the weights, rounded once.

Error model of ``entropy``.  With u = 2**-prec, the relative error of
one rounding to nearest at the working precision:

* each term w ln w takes two roundings.  mpmath evaluates ln with guard
  bits and rounds once, so ln w is within one ulp, 2u relative; the
  product adds u.  A term is within 3.01 u of w ln w, relative.
* the terms are summed exactly (``_exact_sum``, no term is dropped
  however far below the others it lies);
* the sum is rounded once, u relative.

So |entropy - H| <= 3.01 u sum |w ln w| + u H.  For weights of at most
1 every term has the same sign and sum |w ln w| = H, so the bound is
4.01 u H.  The trapezoid of ``asymptotics`` and its closed form take
their f ln f terms from the same kernel, ``_log_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    finf,
    fnan,
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_div,
    mpf_gt,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_nint,
    mpf_shift,
    mpf_sub,
    to_int,
)

from .errors import BudgetExceededError, MassConservationError, PrecisionMismatchError
from .precision import (
    DEFAULT_PRECISION,
    RealLike,
    _bits,
    _count,
    _exact_weight,
    _probability,
    as_mpf,
    check_precision,
    eps_for,
    working_precision,
)

MAX_SUM_SUPPORT = 1 << 22
MAX_CHAIN_ROWS = 1 << 14

__all__ = [
    "IntegerPmf",
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
        # The checks on raw tuples of "Raw kernels" in the module docstring.
        raw = [w._mpf_ for w in self.weights]
        for w, x in zip(self.weights, raw):
            if x[0] and (x[1] or x[2]) or x == fnan:
                with working_precision(self.precision):
                    raise ValueError(f"negative or invalid weight {w}")
        prec = _bits(self.precision)
        mass = finf if finf in raw else from_man_exp(*_exact_sum([x[1:3] for x in raw]), prec, "n")
        if mpf_gt(mpf_abs(mpf_sub(mass, fone, prec, "n")), eps_for(self.precision)._mpf_):
            with working_precision(self.precision):
                raise MassConservationError(
                    f"total mass {mpmath.nstr(mp.make_mpf(mass), 20)} deviates from 1 "
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


def _rounded(pair: Tuple[int, int], prec: int) -> mpf:
    """The mpf nearest man * 2**exp at prec bits, as ``mpf(pair)`` rounds it."""
    return mp.make_mpf(from_man_exp(pair[0], pair[1], prec, "n"))


def _exact_sum(terms: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """The exact sum of the values man * 2**exp, as one such pair."""
    if not terms:
        return 0, 0
    low = min(exp for _, exp in terms)
    return sum(man << (exp - low) for man, exp in terms), low


def _log_sum(terms: Iterable[Tuple[tuple, tuple, Optional[tuple]]], prec: int) -> Tuple[int, int]:
    """Exact sum of the terms c ln(x / y), or c ln x where y is None.

    c, x and y are raw mpf tuples.  Each term is rounded as the mpf
    expression ``c * ln(x / y)`` (or ``c * ln(x)``) rounds it at prec
    bits, bit for bit; the terms are summed exactly (error models in the
    module docstrings of this module and of ``discrimination``).
    """
    out = []
    for c, x, y in terms:
        if y is not None:
            x = mpf_div(x, y, prec, "n")
        sign, man, exp, _ = mpf_mul(c, mpf_log(x, prec, "n"), prec, "n")
        out.append((-man if sign else man, exp))
    return _exact_sum(out)


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


def _binary_entropy(x: tuple, prec: int) -> tuple:
    """H(x) of a raw x in [0, 1], rounded as ``-x * ln(x) - q * ln(q)``, q = 1 - x.

    Every operation rounds to nearest at prec bits, as the mpf
    expression does; H(0) = H(1) = 0 exactly.
    """
    if x == fzero or x == fone:
        return fzero
    q = mpf_sub(fone, x, prec, "n")
    return mpf_sub(
        mpf_mul(mpf_neg(x), mpf_log(x, prec, "n"), prec, "n"),
        mpf_mul(q, mpf_log(q, prec, "n"), prec, "n"),
        prec,
        "n",
    )


def bernoulli_entropy(p: RealLike, precision: int = DEFAULT_PRECISION) -> mpf:
    """Binary entropy H(p) = -p ln p - (1-p) ln(1-p) in nats."""
    return mp.make_mpf(_binary_entropy(_probability(p, precision)._mpf_, _bits(precision)))


def omega(p: RealLike, precision: int = DEFAULT_PRECISION) -> mpf:
    """Skew parameter omega(p) = (2p-1)**2 / (p (1-p)).

    Zero exactly at p = 1/2, symmetric under p <-> 1-p, and strictly
    increasing in |p - 1/2|; diverges at the endpoints, which are
    rejected.  With r = p - 1/2 it is the t that solves
    r**2 = t / (4 (t + 4)), and maps (0, 1) onto [0, inf).
    """
    pv = _probability(p, precision, strict=True)
    with working_precision(precision):
        return (2 * pv - 1) ** 2 / (pv * (1 - pv))


def binomial_pmf(n: int, p: RealLike, precision: int = DEFAULT_PRECISION) -> IntegerPmf:
    """Binomial(n, p) pmf on support {0, ..., n}, each weight rounded once.

    p is first rounded to the working precision; q is the exact 1 - p
    of that value.  The error model and the ``MAX_CHAIN_ROWS`` weight
    budget are in the module docstring.
    """
    _count(n, "n")
    if n + 1 > MAX_CHAIN_ROWS:
        raise BudgetExceededError(
            f"n={n} puts the binomial pmf past the {MAX_CHAIN_ROWS}-weight budget"
        )
    pv = _probability(p, precision)
    if pv._mpf_ in (fzero, fone):
        w = [fzero] * (n + 1)
        w[n if pv._mpf_ == fone else 0] = fone
    else:
        w = _binomial_weights(n, *_exact_weight(pv), _bits(precision))
    return IntegerPmf(offset=0, weights=tuple(map(mp.make_mpf, w)), precision=precision)


def _binomial_weights(n: int, a: int, b: int, e: int, prec: int) -> List[tuple]:
    """Raw weights C(n, k) a**k b**(n-k) / 2**(e n), each rounded once to prec bits.

    A ratio walk on floored mantissas of W bits brackets every weight;
    the exact numerator is formed only for a bracket that straddles a
    rounding boundary (error model in the module docstring).
    """
    W = prec + 64 + n.bit_length()
    m, s = _floor_pow(b, n, W)
    s -= e * n  # weight k lies in [m, m + 8 (n + k + 1)] * 2**s
    # b rounded up to W + 2 bits, so each ratio below is a lower bound
    c = max(b.bit_length() - W - 2, 0)
    b_up = -(-b >> c)
    out = []
    for k in range(n + 1):
        if k:
            num, den = m * (n - k + 1) * a, k * b_up
            cut = num.bit_length() - den.bit_length() - W
            m = num // (den << cut) if cut >= 0 else (num << -cut) // den
            s += cut - c
        w = from_man_exp(m, s, prec, "n")
        if w != from_man_exp(m + 8 * (n + k + 1), s, prec, "n"):
            w = from_man_exp(comb(n, k) * a**k * b ** (n - k), -e * n, prec, "n")
        out.append(w)
    return out


def _floor_pow(x: int, n: int, W: int) -> Tuple[int, int]:
    """(m, s) with m 2**s <= x**n < m 2**s (1 + 2**(1-W))**(2n), m below 2**W.

    Left-to-right repeated squaring, floored to W bits after each step;
    exact while the power fits in W bits (module docstring).
    """
    top = max(x.bit_length() - W, 0)
    base, m, s = x >> top, 1, 0
    for bit in bin(n)[2:]:
        m, s = m * m, 2 * s
        if bit == "1":
            m, s = m * base, s + top
        cut = max(m.bit_length() - W, 0)
        m, s = m >> cut, s + cut
    return m, s


def _runs(weights: Sequence[tuple], span: int) -> List[Tuple[int, List[int], int, int]]:
    """Cut weights, raw mpf tuples, into contiguous runs of exact integers.

    Each run is (start, ints, exp, bits): weight ``start + i`` equals
    ``ints[i] * 2**exp`` exactly, and every int has at most ``bits``
    bits.  A run closes before a nonzero weight whose exponent would
    stretch the run's exponents over more than ``span`` bits; zero
    weights join the open run, and runs of zeros alone are dropped.
    """
    runs = []
    items: List[Tuple[int, int]] = []
    start = lo = hi = 0
    for i, (_, man, exp, _) in enumerate(weights):
        if not man:
            if items:
                items.append((0, 0))
            continue
        if items and (hi - exp if exp < lo else exp - lo) <= span:
            if exp < lo:
                lo = exp
            elif exp > hi:
                hi = exp
        else:
            if items:
                runs.append((start, items, lo))
            start, items, lo, hi = i, [], exp, exp
        items.append((int(man), exp))
    if items:
        runs.append((start, items, lo))
    out = []
    for start, items, lo in runs:
        while not items[-1][0]:
            items.pop()
        ints = [m << (e - lo) for m, e in items]
        out.append((start, ints, lo, max(x.bit_length() for x in ints)))
    return out


def _pack(ints: Sequence[int], width: int) -> int:
    """Kronecker substitution: one int holding ``ints`` in width-byte slots."""
    return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in ints), "little")


def _run_product(xa: List[int], ba: int, xb: List[int], bb: int) -> List[int]:
    """Exact convolution of two runs' integers (``_runs``), one product."""
    if len(xa) == 1:
        return [xa[0] * y for y in xb]
    if len(xb) == 1:
        return [x * xb[0] for x in xa]
    width = (ba + bb + min(len(xa), len(xb)).bit_length() + 7) // 8
    packed = _pack(xa, width)
    product = packed * packed if xa is xb else packed * _pack(xb, width)
    size = (len(xa) + len(xb) - 1) * width
    buf, unpack = product.to_bytes(size, "little"), int.from_bytes
    return [unpack(buf[k:k + width], "little") for k in range(0, size, width)]


def _convolve_runs(
    runs_a: List[Tuple[int, List[int], int, int]],
    runs_b: List[Tuple[int, List[int], int, int]],
    size: int,
    prec: int,
) -> List[Tuple[int, int]]:
    """Outputs of a * b, each as the exact sum man * 2**exp of its kept terms.

    ``runs_a`` and ``runs_b`` are ``_runs`` of the two inputs at span
    2 prec, ``size`` is len(a) + len(b) - 1, and the same list passed
    twice squares.  Rounding each pair to prec bits gives the weights of
    the module docstring's error model; an output with no terms is (0, 0).
    When each input is one run, every output has at most one term and
    the slots of the one product are returned as they are.
    """
    square = runs_a is runs_b
    if len(runs_a) == len(runs_b) == 1:
        (sa, xa, ea, ba), (sb, xb, eb, bb) = runs_a[0], runs_b[0]
        slots = _run_product(xa, ba, xb, bb)
        e = ea + eb
        tail = size - sa - sb - len(slots)
        return [(0, 0)] * (sa + sb) + [(v, e) if v else (0, 0) for v in slots] + [(0, 0)] * tail
    # Contributions more than prec + g bits below an output's largest
    # are dropped; no output has more than one per pair of runs.
    drop = prec + (len(runs_a) * len(runs_b)).bit_length() + 16 + 1
    terms: List[List[Tuple[int, int]]] = [[] for _ in range(size)]
    for i, (sa, xa, ea, ba) in enumerate(runs_a):
        for j, (sb, xb, eb, bb) in enumerate(runs_b):
            if square and j < i:
                continue
            slots = _run_product(xa, ba, xb, bb)
            e, copies = ea + eb, (2 if square and i != j else 1)
            for k, v in enumerate(slots, sa + sb):
                if v:
                    terms[k].extend([(v, e)] * copies)
    out = []
    for contributions in terms:
        if len(contributions) > 1:
            tops = [v.bit_length() + e for v, e in contributions]
            cut = max(tops) - drop
            kept = [c for c, top in zip(contributions, tops) if top > cut]
            e0 = min(e for _, e in kept)
            contributions = [(sum(v << (e - e0) for v, e in kept), e0)]
        out.append(contributions[0] if contributions else (0, 0))
    return out


def convolve(a: IntegerPmf, b: IntegerPmf) -> IntegerPmf:
    """Pmf of the sum of independent variables with pmfs a and b.

    Exact block products with each weight rounded once; the error model
    is in the module docstring.
    """
    precision = _check_same_precision(a, b)
    prec = _bits(precision)
    runs_a = _runs([w._mpf_ for w in a.weights], 2 * prec)
    runs_b = runs_a if a.weights is b.weights else _runs([w._mpf_ for w in b.weights], 2 * prec)
    sums = _convolve_runs(runs_a, runs_b, a.size + b.size - 1, prec)
    out = tuple(_rounded(c, prec) for c in sums)
    return IntegerPmf(offset=a.offset + b.offset, weights=out, precision=precision)


def shift(pmf: IntegerPmf, k: int) -> IntegerPmf:
    """Translate the support by the integer k; weights are unchanged."""
    if not isinstance(k, int):
        raise ValueError(f"shift must be an integer, got {k!r}")
    return IntegerPmf(offset=pmf.offset + k, weights=pmf.weights, precision=pmf.precision)


def entropy(pmf: IntegerPmf) -> mpf:
    """Shannon entropy -sum w ln w in nats; zero weights contribute zero.

    Each term rounded twice, summed exactly and rounded once (error
    model in the module docstring).
    """
    prec = _bits(pmf.precision)
    raw = [w._mpf_ for w in pmf.weights]
    man, exp = _log_sum(((x, x, None) for x in raw if x[1]), prec)
    return _rounded((-man, exp), prec)


def mean(pmf: IntegerPmf) -> mpf:
    with working_precision(pmf.precision):
        return mpmath.fsum(k * w for k, w in pmf.items())


def _check_sum_support(base: IntegerPmf, n: int) -> None:
    if (base.size - 1) * n + 1 > MAX_SUM_SUPPORT:
        raise BudgetExceededError(
            f"n={n} puts the sum support past the {MAX_SUM_SUPPORT}-point budget"
        )


def _iid_ladder(base: IntegerPmf, n_values: Iterable[int]) -> Dict[int, IntegerPmf]:
    """n-fold iid sums of base for every n, from one repeated-squaring ladder.

    Rung r holds the 2**r-fold sum; the n-fold sum starts from the rung
    of the lowest set bit of n and convolves in the rung of each higher
    set bit, lowest first (n = 0 gives the point mass at zero).  The
    support budget is checked before any convolution.
    """
    targets = sorted(set(n_values))
    if not targets:
        return {}
    _check_sum_support(base, targets[-1])
    ladder = [base]
    while (1 << len(ladder)) <= targets[-1]:
        ladder.append(convolve(ladder[-1], ladder[-1]))
    out = {}
    for n in targets:
        rungs = [power for rung, power in enumerate(ladder) if n >> rung & 1]
        acc = rungs[0] if rungs else delta_pmf(0, base.precision)
        for power in rungs[1:]:
            acc = convolve(acc, power)
        out[n] = acc
    return out


def iid_sum_pmf(base: IntegerPmf, n: int) -> IntegerPmf:
    """Pmf of the sum of n iid copies of base, by repeated squaring.

    n = 0 gives the point mass at zero (the empty sum).
    """
    _count(n, "n")
    return _iid_ladder(base, [n])[n]


def binomial_entropy_chain(
    p: RealLike, n_max: int, precision: int = DEFAULT_PRECISION
) -> list:
    """Entropies H[Binomial(n, p)] for n = 0 .. n_max in one pass.

    One fixed-point Bernoulli mixing step per n keeps the total cost
    quadratic in n_max in integer operations, with n_max + 1
    logarithms in all; the error model is in the module docstring.

    The guard bits grow with n_max, so the last bit of row n depends on
    n_max as well as on n: at 50 digits, H[Binomial(11, 0.3)] is one
    ulp lower in the chain to 11 than in the chain to 31, and the n = 10
    step margin read from the two differs by 32 ulps.  The same happens
    at p = 0.05 for row 25 between the chains to 25 and to 31.
    """
    _count(n_max, "n_max")
    if n_max + 1 > MAX_CHAIN_ROWS:
        raise BudgetExceededError(
            f"n_max={n_max} puts the entropy chain past the {MAX_CHAIN_ROWS}-row budget"
        )
    x = _probability(p, precision)._mpf_
    if x in (fzero, fone):
        return [mp.make_mpf(fzero)] * (n_max + 1)
    prec = _bits(precision)
    # min(p, q) >= 2**(e - 1), so max(|ln p|, |ln q|) < log_bits + 1.
    q = mpf_sub(fone, x, prec, "n")
    log_bits = 1 - min(x[2] + x[3], q[2] + q[3])
    B = prec + ((n_max + 1) ** 3 * (log_bits + 2)).bit_length()
    wp = B + 16

    def fixed(y: tuple) -> int:
        """The integer nearest y * 2**B, ties to even."""
        return to_int(mpf_nint(mpf_shift(y, B), wp, "n"))

    P = fixed(x)
    lp = fixed(mpf_log(x, wp, "n"))
    lq = fixed(mpf_log(mpf_sub(fone, x, wp, "n"), wp, "n"))
    log_fact = [0, 0]
    for j in range(2, n_max + 1):
        log_fact.append(log_fact[-1] + fixed(mpf_log(from_int(j), wp, "n")))
    # Row n is sum_k w_k (lf_n + D_k + E_(n-k)) with D_k = k lp - lf_k
    # and E_j = j lq - lf_j: ln of weight k of B(n, p) in units of 2**-B.
    D = [k * lp - f for k, f in enumerate(log_fact)]
    E = [j * lq - f for j, f in enumerate(log_fact)]
    w = [1 << B]
    out = [mp.make_mpf(fzero)]
    for n in range(1, n_max + 1):
        # (Q a + P b) >> B with Q = 2**B - P, one product per weight.
        w = [a + (P * (b - a) >> B) for a, b in zip(w + [0], [0] + w)]
        acc = log_fact[n] * sum(w) + sum(map(mul, w, map(add, D, E[n::-1])))
        out.append(mp.make_mpf(from_man_exp(-acc, -2 * B, prec, "n")))
    return out
