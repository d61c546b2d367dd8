"""The raw-tuple pmf kernels against their mpf oracles and a 90-digit reference."""

import random
from fractions import Fraction
from math import comb

import mpmath
import pytest
from mpmath import mpf
from mpmath.libmp import from_man_exp

import kernel_oracle as oracle
from discrete_epi import dist_core
from discrete_epi.discrimination import (
    binomial_step_c,
    cap_discrimination,
    kl_divergence,
    mixture,
)
from discrete_epi.dist_core import (
    IntegerPmf,
    _log_sum,
    bernoulli_entropy,
    binomial_entropy_chain,
    binomial_pmf,
    convolve,
    entropy,
    iid_sum_pmf,
    shift,
)
from discrete_epi.epi_engine import _step_margin
from discrete_epi.errors import MassConservationError
from discrete_epi.precision import (
    _bits,
    _exact_weight,
    _probability,
    as_mpf,
    eps_for,
    working_precision,
)

from conftest import exact_value

PRECISIONS = (30, 50, 80)

# Integer weight ratios of the three families.  The skewed base spans
# 15 decades, so its 64-fold sum has tails near 1e-960 and is cut into
# several runs; the gapped base keeps its interior zeros in every sum.
BASES = {
    "balanced": ([7, 9, 6, 8], -2),
    "skewed": ([1, 10**5, 10**10, 10**15], 0),
    "gapped": ([3, 0, 0, 5, 0, 2], 1),
}
FOLDS = (1, 2, 7, 64)


def make_base(name: str, precision: int) -> IntegerPmf:
    raw, offset = BASES[name]
    total = sum(raw)
    return IntegerPmf.from_weights([Fraction(r, total) for r in raw], offset, precision)


@pytest.fixture(scope="module", params=[(n, P) for n in BASES for P in PRECISIONS],
                ids=lambda case: f"{case[0]}-{case[1]}")
def family(request):
    """The base of one family at one precision and its FOLDS-fold sums."""
    name, precision = request.param
    base = make_base(name, precision)
    return base, [iid_sum_pmf(base, n) for n in FOLDS]


def raw(weights):
    return [w._mpf_ for w in weights]


def test_skewed_tails_reach_1e_960():
    top = iid_sum_pmf(make_base("skewed", 30), 64)
    with working_precision(30):
        assert mpf("1e-962") < top.weights[0] < mpf("1e-958")


class TestMatchesMpfOracle:
    def test_entropy(self, family):
        for pmf in family[1]:
            assert entropy(pmf)._mpf_ == oracle.entropy(pmf)._mpf_

    def test_convolve(self, family):
        base, sums = family
        for pmf in sums:
            for other in (base, pmf):
                offset, weights = oracle.convolve(pmf, other)
                out = convolve(pmf, other)
                assert out.offset == offset
                assert raw(out.weights) == raw(weights)

    def test_constructor_accepts_what_the_oracle_accepts(self, family):
        for pmf in family[1]:
            oracle.check_weights(pmf.weights, pmf.precision)

    def test_divergences_and_mixture(self, family):
        base, sums = family
        precision = base.precision
        for pmf in sums:
            moved = shift(pmf, 1)
            for p in ("0.5", "0.05", Fraction(2, 3)):
                pv = as_mpf(p, precision)
                mixed = mixture(moved, pmf, p)
                lo, weights = oracle.mixture(moved, pmf, pv)
                assert mixed.offset == lo
                assert raw(mixed.weights) == raw(weights)
                got = cap_discrimination(moved, pmf, p)
                assert got._mpf_ == oracle.cap_discrimination(moved, pmf, pv)._mpf_
                for P, Q in ((moved, mixed), (pmf, mixed), (moved, pmf)):
                    assert kl_divergence(P, Q)._mpf_ == oracle.kl_divergence(P, Q)._mpf_

    def test_equal_pmfs_are_exactly_zero(self, family):
        for pmf in family[1]:
            assert cap_discrimination(pmf, pmf, "0.3") == 0
            assert kl_divergence(pmf, pmf) == 0


class TestConstructorRefusals:
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize(
        "weights, refusal",
        [
            (["1.5", "-0.5"], "negative or invalid weight -0.5"),
            (["0.5", "nan", "0.5"], "negative or invalid weight nan"),
            (["-inf", "1"], "negative or invalid weight -inf"),
            (["+inf", "-0.5"], "negative or invalid weight -0.5"),
            (["0.5", "+inf"], "total mass +inf deviates from 1"),
            (["0.5", "0.4"], "total mass 0.9 deviates from 1"),
            (["0.5", "0.5", "1e-300"], None),
        ],
        ids=["negative", "nan", "minus-inf", "inf-then-negative", "plus-inf", "light", "tiny-tail"],
    )
    def test_same_verdict_type_and_message(self, weights, refusal, precision):
        with working_precision(precision):
            values = tuple(mpf(w) for w in weights)
        try:
            oracle.check_weights(values, precision)
        except ValueError as exc:
            assert str(exc).startswith(refusal)
            with pytest.raises(type(exc)) as got:
                IntegerPmf(0, values, precision)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            assert refusal is None
            IntegerPmf(0, values, precision)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_light_base_passes_and_its_sums_are_refused(self, precision):
        # Mass 1 - 0.9 eps is inside the slack; the 64-fold sum, of mass
        # about 1 - 57.6 eps, is not, and its first squaring already fails.
        with working_precision(precision):
            light = mpf("0.5") - eps_for(precision) * mpf("0.9")
            base = IntegerPmf(0, (mpf("0.5"), light), precision)
        with pytest.raises(MassConservationError, match="deviates from 1"):
            iid_sum_pmf(base, 64)


class TestEntropyErrorModel:
    """|entropy - H| <= 3.01 u sum |w ln w| + u |H| with u = 2**-prec."""

    @staticmethod
    def reference(weights):
        with mpmath.workdps(90):
            terms = [w * mpmath.ln(w) for w in weights if w > 0]
            return -mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)

    def assert_within_model(self, pmf):
        ref, size = self.reference(pmf.weights)
        u = mpf(2) ** -_bits(pmf.precision)
        with mpmath.workdps(90):
            assert abs(entropy(pmf) - ref) <= mpf("3.01") * u * size + u * abs(ref)

    def test_families(self, family):
        for pmf in family[1]:
            self.assert_within_model(pmf)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_terms_far_below_the_sum_are_kept(self, precision):
        # The term of the 1e-200 weight lies more than 2 prec bits below
        # the others, where mpmath's fsum would drop it; the kernel's sum
        # is the exact sum of every rounded term.
        with working_precision(precision):
            weights = (mpf("0.5"), mpf("0.25"), mpf("0.25"), mpf("1e-200"))
        pmf = IntegerPmf(0, weights, precision)
        prec = _bits(precision)
        with working_precision(precision):
            terms = [w * mpmath.ln(w) for w in weights]
        assert abs(terms[-1]) < mpf(2) ** (-2 * prec - 8) * abs(terms[0])
        man, exp = _log_sum(((x, x, None) for x in raw(weights)), prec)
        assert Fraction(man) * Fraction(2) ** exp == sum(exact_value(t) for t in terms)
        self.assert_within_model(pmf)


# The Bernoulli kernels on the grid of p, n and precision: dyadic p, a
# p whose 1 - p rounds, two skewed p and a p whose ln is near -690.
BERNOULLI_PS = (
    Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), "0.3", Fraction(7, 40),
    Fraction(1, 1000), Fraction(999, 1000), "1e-300",
)
BERNOULLI_NS = (0, 1, 2, 3, 33, 75, 121, 300)
BERNOULLI_PRECISIONS = (20, 30, 50, 80)


@pytest.mark.parametrize("precision", BERNOULLI_PRECISIONS)
@pytest.mark.parametrize("p", BERNOULLI_PS, ids=str)
class TestBernoulliKernelsMatchMpfOracle:
    def test_binomial_pmf(self, p, precision):
        for n in BERNOULLI_NS:
            got = binomial_pmf(n, p, precision).weights
            assert raw(got) == raw(oracle.binomial_pmf(n, p, precision))

    def test_binomial_step_c_and_bernoulli_entropy(self, p, precision):
        assert bernoulli_entropy(p, precision)._mpf_ == oracle.bernoulli_entropy(p, precision)._mpf_
        for n in BERNOULLI_NS:
            got = binomial_step_c(n, p, precision)
            assert got._mpf_ == oracle.binomial_step_c(n, p, precision)._mpf_

    def test_chain_and_step_margins(self, p, precision):
        for n_max in BERNOULLI_NS:
            chain = binomial_entropy_chain(p, n_max, precision)
            assert raw(chain) == raw(oracle.binomial_entropy_chain(p, n_max, precision))
        margins = [_step_margin(chain[n + 1], chain[n], n, precision) for n in range(1, n_max)]
        expected = [oracle.step_margin(chain[n + 1], chain[n], n, precision) for n in range(1, n_max)]
        assert raw(margins) == raw(expected)


def test_binomial_pmf_falls_back_to_the_exact_weight_at_a_midpoint(monkeypatch):
    # C(75, 34) / 2**75 has 71 significant bits, so at 20 digits (70 bits)
    # it is exactly halfway between two neighbours: no bracket can decide it.
    n, k, precision = 75, 34, 20
    odd = comb(n, k) >> (comb(n, k) & -comb(n, k)).bit_length() - 1
    assert odd.bit_length() == _bits(precision) + 1
    exact = []
    monkeypatch.setattr(dist_core, "comb", lambda n, k: exact.append(k) or comb(n, k))
    weights = binomial_pmf(n, Fraction(1, 2), precision).weights
    assert k in exact
    assert raw(weights) == raw(oracle.binomial_pmf(n, Fraction(1, 2), precision))


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("p", ["1e-30000", Fraction(3, 10**30001)], ids=["1e-30000", "3e-30001"])
def test_binomial_pmf_at_a_tiny_p_matches_the_exact_oracle(p, precision):
    # q = b / 2**e has about 100,000 bits, so every operand of the walk is
    # cut to W bits; the oracle still forms each exact numerator
    for n in (0, 1, 2, 3):
        got = binomial_pmf(n, p, precision).weights
        assert raw(got) == raw(oracle.binomial_pmf(n, p, precision))


def test_binomial_pmf_4000_weights_are_the_exact_weights_rounded():
    n, precision = 4000, 50
    a, b, e = _exact_weight(as_mpf("0.3", precision))
    prec = _bits(precision)
    weights = binomial_pmf(n, "0.3", precision).weights
    for k in random.Random(4000).sample(range(n + 1), 20):
        exact = from_man_exp(comb(n, k) * a**k * b ** (n - k), -e * n, prec, "n")
        assert weights[k]._mpf_ == exact


CONVERTED = (
    0, 1, 3, -5, True, 2**300 + 1,
    Fraction(1, 3), Fraction(-1, 7), Fraction(2**300 + 1, 3**250), Fraction(3**250, 2**300 + 1),
    0.1, 1e-300, float("inf"), float("nan"),
    "0.3", "1e-300", "-inf", "nan",
)


@pytest.mark.parametrize("precision", BERNOULLI_PRECISIONS)
def test_conversions_match_the_mpf_oracle(precision):
    with mpmath.workdps(100):
        values = CONVERTED + (mpmath.pi * 1, mpf("-0.3"), mpf("1.5"), mpf(0))
    for value in values:
        assert as_mpf(value, precision)._mpf_ == oracle.as_mpf(value, precision)._mpf_
        for strict in (False, True):
            try:
                expected = oracle.probability(value, precision, strict)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    _probability(value, precision, strict)
                assert str(got.value) == str(exc)
            else:
                assert _probability(value, precision, strict)._mpf_ == expected._mpf_


class TestDivergenceErrorModel:
    """The kl and cap bounds of the ``discrimination`` docstring, at 90 digits."""

    def test_against_90_digit_sums(self, family):
        base, sums = family
        u = mpf(2) ** -_bits(base.precision)
        for pmf in sums:
            moved = shift(pmf, 1)
            mixed = mixture(moved, pmf, "0.3")
            with mpmath.workdps(90):
                p = as_mpf("0.3", base.precision)
                pairs = [(moved.weight_at(k), pmf.weight_at(k), mixed.weight_at(k))
                         for k in range(pmf.offset, moved.last + 1)]
                kl = [w * mpmath.ln(w / v) for w, _, v in pairs if w > 0]
                cap = [c * w * mpmath.ln(w / (p * x + (1 - p) * y))
                       for x, y, _ in pairs if x != y
                       for c, w in ((p, x), (1 - p, y)) if w > 0]
                D, C = mpmath.fsum(kl), mpmath.fsum(cap)
                kl_size, cap_size = mpmath.fsum(map(abs, kl)), mpmath.fsum(map(abs, cap))
                assert abs(kl_divergence(moved, mixed) - D) <= u * (
                    mpf("3.01") * kl_size + mpf("1.03") + abs(D))
                assert abs(cap_discrimination(moved, pmf, "0.3") - C) <= u * (
                    mpf("4.02") * cap_size + mpf("3.05") + C)
