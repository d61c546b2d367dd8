"""Divergence and discrimination-series tests against exact oracles."""

import hashlib
import random
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from discrete_epi.discrimination import (
    SERIES_TERM_CAP,
    binomial_step_c,
    cap_discrimination,
    cap_via_series,
    kl_divergence,
    mixture,
)
from discrete_epi.dist_core import (
    IntegerPmf,
    bernoulli_entropy,
    binomial_entropy_chain,
    binomial_pmf,
    delta_pmf,
    iid_sum_pmf,
    shift,
)
from discrete_epi.errors import PrecisionMismatchError, SeriesTruncationError
from discrete_epi.precision import as_mpf, eps_for, working_precision

from conftest import assert_close, exact_binomial_weights, exact_value


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

    def test_exactly_zero_on_identical(self, dps50):
        rng = random.Random(5)
        pmfs = [
            binomial_pmf(4, "0.2"),
            IntegerPmf.from_weights([Fraction(1, 3), Fraction(2, 3)], 0, 50),
            shift(binomial_pmf(33, "0.7"), -3),
            random_pair(rng, 9)[0],
        ]
        for pmf in pmfs:
            for p in (Fraction(9, 103), "0.3", Fraction(1, 2), "0.77", "1e-300"):
                assert cap_discrimination(pmf, pmf, p) == 0

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

    @pytest.mark.parametrize("tol, message", [
        ("inf", "tol must be finite, got \\+inf"),
        ("0", "tol must be positive"),
        ("-inf", "tol must be positive"),
    ])
    def test_refuses_a_tolerance_not_positive_and_finite(self, dps50, tol, message):
        # +inf would floor to 0 fixed-point units, a tolerance no tail meets.
        pmf = binomial_pmf(3, "0.3")
        with pytest.raises(ValueError, match=message):
            cap_via_series(pmf, shift(pmf, 1), "0.3", tol=tol)


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
    # For P = Binomial(n, p) shifted by one and Q = Binomial(n, p), the
    # ratio |p P_i - q Q_i| / (p P_i + q Q_i) is |2i - n - 1| / (n + 1) at
    # every point i, whatever p.

    def test_closed_form(self, dps50):
        # on the rounded weights of binomial_pmf and shift
        for p in ("0.3", "0.5", "0.77"):
            pv = mpf(p)
            for n in range(0, 8):
                before = binomial_pmf(n, p)
                after = shift(before, 1)
                for i in range(0, n + 2):
                    x, y = pv * after.weight_at(i), (1 - pv) * before.weight_at(i)
                    assert_close(abs(x - y) / (x + y), mpf(abs(2 * i - n - 1)) / (n + 1))

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
                assert num / den == Fraction(abs(2 * i - n - 1), n + 1)


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
    c = cap_discrimination(P, Q, w)
    with working_precision(50):
        assert 0 <= c <= bernoulli_entropy(w) + eps_for(50)


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


def mpf_series(P: IntegerPmf, Q: IntegerPmf, p, tol, nu_max: int = SERIES_TERM_CAP):
    """The former mpf loop of ``cap_via_series``, kept as its oracle.

    Returns (terms_used, partial_sum, tail, truncated); the tail is the
    rounded remainder bound, without the fixed-point kernel's rounding
    terms.
    """
    precision = P.precision
    lo, hi = min(P.offset, Q.offset), max(P.last, Q.last)
    with working_precision(precision):
        pv = as_mpf(p, precision)
        qv = 1 - pv
        tolv = as_mpf(tol, precision)
        ln2 = mpmath.ln(2)
        offset = ln2 - bernoulli_entropy(pv, precision)
        floor = mpf(10) ** (-2 * precision)
        state = []
        for k in range(lo, hi + 1):
            pw, qw = P.weight_at(k), Q.weight_at(k)
            m = pv * pw + qv * qw
            if m == 0:
                continue
            rho2 = ((pv * pw - qv * qw) / m) ** 2
            s = m * rho2
            if s > floor:
                state.append((s, rho2))
        partial = mpf(0)
        coeff_sum = mpf(0)
        nu = 0
        delta = mpmath.fsum(s for s, _ in state)
        while True:
            nu += 1
            coeff_sum += mpf(1) / (2 * nu * (2 * nu - 1))
            partial += delta / (2 * nu * (2 * nu - 1))
            tail = delta * (ln2 - coeff_sum)
            if tail <= tolv or nu >= nu_max:
                return nu, partial - offset, tail, not tail <= tolv
            state = [(s * rho2, rho2) for s, rho2 in state if s * rho2 > floor]
            delta = mpmath.fsum(s for s, _ in state)


def series_reference(P: IntegerPmf, Q: IntegerPmf, p, nu: int):
    """(C, remainder after nu terms) from the exact rational state.

    With m_i and rho_i exact, the whole series is sum_i m_i g(rho_i),
    g(t) = ((1 + t) ln(1 + t) + (1 - t) ln(1 - t)) / 2, and C subtracts
    ln 2 - H(p); logs and the first nu terms are taken at 120 digits.
    No point is dropped.
    """
    pf = exact_value(as_mpf(p, P.precision))
    lo, hi = min(P.offset, Q.offset), max(P.last, Q.last)
    points = []
    for k in range(lo, hi + 1):
        x = pf * exact_value(P.weight_at(k))
        y = (1 - pf) * exact_value(Q.weight_at(k))
        if x + y:
            points.append((x + y, abs(x - y) / (x + y)))
    with mpmath.workdps(120):
        def real(f):
            return mpf(f.numerator) / f.denominator

        def g(t):
            return ((1 + t) * mpmath.ln(1 + t) + (1 - t) * mpmath.ln(1 - t)) / 2 if t < 1 else mpmath.ln(2)

        whole = mpmath.fsum(real(m) * g(real(r)) for m, r in points)
        head = mpmath.fsum(
            real(m) * real(r) ** (2 * mu) / (2 * mu * (2 * mu - 1))
            for m, r in points if r
            for mu in range(1, nu + 1)
        )
        pv = real(pf)
        offset = mpmath.ln(2) + pv * mpmath.ln(pv) + (1 - pv) * mpmath.ln(1 - pv)
        return whole - offset, whole - head


def skewed_shifted_sum(raw, n: int = 64):
    """A 64-fold sum of a skewed base and its unit shift."""
    total = iid_sum_pmf(IntegerPmf.from_weights([Fraction(r, sum(raw)) for r in raw], 0, 50), n)
    return shift(total, 1), total


def criterion4_pairs():
    """Sixteen criterion-4 pairs, sizes 2..64, mixing weights 0.05..0.95."""
    rng = random.Random(20260817)
    sizes = (2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64, 64, 48, 32, 16, 8)
    for i, size in enumerate(sizes):
        P, Q = (
            IntegerPmf.from_weights([Fraction(r, sum(raw)) for r in raw], 0, 50)
            for raw in ([rng.randint(1, 1000) + 200 for _ in range(size)] for _ in range(2))
        )
        yield P, Q, Fraction(5 + 6 * i, 100)


def assert_matches_oracle_and_bounds(P, Q, p, tol, nu_max=SERIES_TERM_CAP, check_reference=True):
    """Same terms and partial sum as the mpf loop; rigorous tail bound."""
    terms, partial, _, truncated = mpf_series(P, Q, p, tol, nu_max)
    try:
        result = cap_via_series(P, Q, p, tol, nu_max)
        assert not truncated
    except SeriesTruncationError as exc:
        assert truncated
        result = exc.partial
    assert result.terms_used == terms
    with working_precision(50):
        assert abs(result.partial_sum - partial) <= eps_for(50)
        if not truncated:
            assert result.tail_bound <= as_mpf(tol, 50)
    if check_reference:
        direct, remainder = series_reference(P, Q, p, terms)
        with mpmath.workdps(120):
            assert result.tail_bound >= remainder
            assert abs(result.partial_sum - direct) <= result.tail_bound
    return result


class TestFixedPointSeries:
    def test_random_pairs_match_the_mpf_loop(self, dps50):
        rng = random.Random(41)
        for _ in range(20):
            P, Q = random_pair(rng, rng.randint(2, 12), floor=rng.choice((0, 200)))
            w = Fraction(rng.randint(2, 98), 100)
            assert_matches_oracle_and_bounds(P, Q, w, rng.choice(("1e-4", "1e-14", "1e-30")))

    def test_criterion4_pairs_match_the_mpf_loop(self, dps50):
        for P, Q, w in criterion4_pairs():
            assert_matches_oracle_and_bounds(P, Q, w, "1e-14")

    def test_skewed_shifted_sums_match_the_mpf_loop(self, dps50):
        # The endpoint atoms carry one-sided mass (rho**2 = 1), so these
        # need more than a thousand terms at tol 1e-4; the 120-digit
        # reference would take about 40 s there, so only the oracle runs.
        for raw in ([3, 7000, 9 * 10**6], [9 * 10**12, 2 * 10**9, 5 * 10**6, 1000, 1]):
            after, before = skewed_shifted_sum(raw)
            result = assert_matches_oracle_and_bounds(
                after, before, Fraction(1, 2), "1e-4", check_reference=False
            )
            assert result.terms_used > 1000

    def test_outputs_are_pinned(self, dps50):
        # terms_used, partial_sum and tail_bound, raw, of the criterion-4
        # pairs at two tolerances and of the two skewed shifted sums
        # (whose points reach the 10**-100 floor), pinned by sha256.
        rows = []
        for tol in ("1e-14", "1e-30"):
            for P, Q, w in criterion4_pairs():
                rows.append(cap_via_series(P, Q, w, tol))
        for raw in ([3, 7000, 9 * 10**6], [9 * 10**12, 2 * 10**9, 5 * 10**6, 1000, 1]):
            rows.append(cap_via_series(*skewed_shifted_sum(raw), Fraction(1, 2), "1e-4"))
        text = repr([(r.terms_used, r.partial_sum._mpf_, r.tail_bound._mpf_) for r in rows])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "54a75edec0cd0b1ce69ffc3a78cd6e53849d470aaa46cb9a5c8ad04c1a2e4632"
        )

    def test_truncated_series_matches_the_mpf_loop(self, dps50):
        before = binomial_pmf(1, "0.5")
        result = assert_matches_oracle_and_bounds(shift(before, 1), before, "0.5", "1e-12", nu_max=50)
        assert result.terms_used == 50

    def test_tail_bound_is_rounded_upward(self, dps50):
        # P and Q disjoint: every point is a one-sided atom, Delta_nu = 1
        # and the remainder is exactly ln 2 - sum_{mu <= nu} 1/(2 mu (2 mu
        # - 1)).  With p chosen so that H(p) is near that remainder, the
        # partial sum is near 0 and its own rounding is far below the
        # tail's ulp, so only upward rounding keeps the bound above it.
        with mpmath.workdps(60):
            for nu in range(20, 44):
                remainder = mpmath.ln(2) - mpmath.fsum(
                    mpf(1) / (2 * mu * (2 * mu - 1)) for mu in range(1, nu + 1)
                )
                p = mpmath.findroot(lambda x: bernoulli_entropy(x, 60) - remainder, remainder / 8)
                tol = remainder * (1 + mpf(1) / (8 * nu))
                result = cap_via_series(delta_pmf(0), delta_pmf(1), mpmath.nstr(p, 30), mpmath.nstr(tol, 30))
                assert result.terms_used == nu
                direct, exact_remainder = series_reference(delta_pmf(0), delta_pmf(1), mpmath.nstr(p, 30), nu)
                with mpmath.workdps(120):
                    assert abs(result.partial_sum) < result.tail_bound / 64
                    assert result.tail_bound >= exact_remainder
                    assert abs(result.partial_sum - direct) <= result.tail_bound
