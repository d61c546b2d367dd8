"""Divergence and discrimination-series tests against exact oracles."""

import random
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from discrete_epi.discrimination import (
    binomial_ratio,
    binomial_step_c,
    cap_discrimination,
    cap_via_series,
    kl_divergence,
    mixture,
    tri_discrimination,
)
from discrete_epi.dist_core import (
    IntegerPmf,
    bernoulli_entropy,
    binomial_entropy_chain,
    binomial_pmf,
    delta_pmf,
    shift,
)
from discrete_epi.errors import PrecisionMismatchError, SeriesTruncationError
from discrete_epi.precision import eps_for, working_precision

from conftest import assert_close, exact_binomial_weights


def random_pair(rng: random.Random, size: int, floor: int = 200):
    """Two pmfs on a shared support with weights bounded away from zero."""

    def one():
        raw = [rng.randint(floor, 1000) for _ in range(size)]
        total = sum(raw)
        return IntegerPmf.from_weights([Fraction(x, total) for x in raw], 0, 50)

    return one(), one()


class TestKlDivergence:
    def test_zero_on_identical(self, dps50):
        pmf = binomial_pmf(3, "0.3")
        assert_close(kl_divergence(pmf, pmf), 0)

    def test_infinite_off_support(self, dps50):
        assert kl_divergence(delta_pmf(0), delta_pmf(1)) == mpf("+inf")

    def test_nonnegative(self, dps50):
        rng = random.Random(7)
        for _ in range(25):
            p, q = random_pair(rng, rng.randint(2, 10))
            assert kl_divergence(p, q) >= -eps_for(50)

    def test_precision_mismatch(self):
        with pytest.raises(PrecisionMismatchError):
            kl_divergence(binomial_pmf(1, "0.5", 50), binomial_pmf(1, "0.5", 30))


class TestCapDiscrimination:
    def test_zero_on_identical(self, dps50):
        pmf = binomial_pmf(4, "0.2")
        assert_close(cap_discrimination(pmf, pmf, "0.3"), 0)

    def test_bounded_by_binary_entropy(self, dps50):
        rng = random.Random(13)
        for _ in range(25):
            p_dist, q_dist = random_pair(rng, rng.randint(2, 8))
            w = mpf(rng.randint(1, 9)) / 10
            c = cap_discrimination(p_dist, q_dist, w)
            assert -eps_for(50) <= c <= bernoulli_entropy(w) + eps_for(50)

    def test_equality_at_disjoint_supports(self, dps50):
        c = cap_discrimination(delta_pmf(0), delta_pmf(5), "0.3")
        assert_close(c, bernoulli_entropy("0.3"))

    def test_mixture_conserves_mass(self, dps50):
        m = mixture(binomial_pmf(2, "0.4"), shift(binomial_pmf(1, "0.4"), 1), "0.25")
        assert_close(mpmath.fsum(w for _, w in m.items()), 1)


class TestTriangularSeries:
    def test_identical_pair_powers(self, dps50):
        pmf = binomial_pmf(2, "0.3")
        for nu in (1, 2, 3):
            assert_close(
                tri_discrimination(pmf, pmf, "0.3", nu),
                abs(2 * mpf("0.3") - 1) ** (2 * nu),
            )

    def test_nonincreasing_in_order(self, dps50):
        rng = random.Random(3)
        for _ in range(15):
            p_dist, q_dist = random_pair(rng, rng.randint(2, 8))
            w = mpf(rng.randint(2, 8)) / 10
            values = [
                tri_discrimination(p_dist, q_dist, w, nu) for nu in range(1, 5)
            ]
            assert all(a >= b - eps_for(50) for a, b in zip(values, values[1:]))

    def test_series_matches_direct(self, dps50):
        rng = random.Random(41)
        for _ in range(30):
            p_dist, q_dist = random_pair(rng, rng.randint(2, 12))
            w = mpf(rng.randint(2, 8)) / 10
            direct = cap_discrimination(p_dist, q_dist, w)
            result = cap_via_series(p_dist, q_dist, w, tol="1e-30")
            assert result.tail_bound <= mpf("1e-30")
            assert abs(result.partial_sum - direct) <= result.tail_bound + mpf("1e-35")

    def test_truncation_signal_carries_partial(self, dps50):
        before = binomial_pmf(1, "0.5")
        after = shift(before, 1)
        with pytest.raises(SeriesTruncationError) as exc:
            cap_via_series(after, before, "0.5", tol="1e-12", nu_max=50)
        partial = exc.value.partial
        assert partial.terms_used == 50
        direct = cap_discrimination(after, before, "0.5")
        assert abs(partial.partial_sum - direct) <= partial.tail_bound


class TestBinomialStep:
    def test_equals_entropy_difference(self, dps50):
        for p in ("0.2", "0.5", "0.77"):
            chain = binomial_entropy_chain(p, 13)
            for n in (0, 1, 2, 5, 12):
                assert_close(binomial_step_c(n, p), chain[n + 1] - chain[n])

    def test_equals_weighted_discrimination_of_shifted_pair(self, dps50):
        for p in ("0.3", "0.5", "0.62"):
            for n in (1, 2, 4):
                before = binomial_pmf(n, p)
                after = shift(before, 1)
                assert_close(
                    binomial_step_c(n, p), cap_discrimination(after, before, p)
                )

    def test_single_trial_closed_form(self, dps50):
        for p_str in ("0.1", "0.35", "0.5", "0.8"):
            p = mpf(p_str)
            expected = bernoulli_entropy(p) - 2 * p * (1 - p) * mpmath.ln(2)
            assert_close(binomial_step_c(1, p), expected)


class TestBinomialRatio:
    def test_closed_form(self):
        for n in range(0, 8):
            for i in range(0, n + 2):
                assert binomial_ratio(i, n) == Fraction(abs(2 * i - n - 1), n + 1)

    def test_matches_exact_pointwise_ratio(self):
        # |p P(i) - q Q(i)| / (p P(i) + q Q(i)) for the shifted/unshifted
        # binomial pair, computed in exact rational arithmetic.
        p = Fraction(3, 10)
        q = 1 - p
        for n in range(0, 7):
            weights = exact_binomial_weights(n, p)

            def at(i):
                return weights[i] if 0 <= i <= n else Fraction(0)

            for i in range(0, n + 2):
                num = abs(p * at(i - 1) - q * at(i))
                den = p * at(i - 1) + q * at(i)
                assert num / den == binomial_ratio(i, n)


open_weight = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda w: 0 < w < 1)
binomial_strategy = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.fractions(min_value=0, max_value=1, max_denominator=100),
    st.integers(min_value=-3, max_value=3),
)
raw_pmf_strategy = st.tuples(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8).filter(any),
    st.integers(min_value=-5, max_value=5),
)


def assert_between_zero_and_binary_entropy(P: IntegerPmf, Q: IntegerPmf, w: Fraction) -> None:
    # Both ends carry the rounding slack: for P = Q the exact value is 0,
    # and the rounded mixture weights leave about -1e-51 at 50 digits.
    c = cap_discrimination(P, Q, w)
    with working_precision(50):
        eps = eps_for(50)
        assert -eps <= c <= bernoulli_entropy(w) + eps


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(a=binomial_strategy, b=binomial_strategy, w=open_weight)
def test_cap_discrimination_bounded_on_binomial_pairs(a, b, w):
    (n, p, k), (m, r, j) = a, b
    P, Q = shift(binomial_pmf(n, p), k), shift(binomial_pmf(m, r), j)
    assert_between_zero_and_binary_entropy(P, Q, w)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(a=raw_pmf_strategy, b=raw_pmf_strategy, w=open_weight)
def test_cap_discrimination_bounded_on_small_pmfs(a, b, w):
    def pmf(raw, offset):
        total = sum(raw)
        return IntegerPmf.from_weights([Fraction(x, total) for x in raw], offset, 50)

    assert_between_zero_and_binary_entropy(pmf(*a), pmf(*b), w)
