"""Moment, cumulant, and entropy-lower-bound tests with exact oracles."""

import argparse
import time
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath
import pytest
from mpmath import mpf
from mpmath.libmp import from_rational

import fraction_oracle
import kernel_oracle
from discrete_epi import cli, moments_bounds
from discrete_epi.dist_core import IntegerPmf, binomial_pmf, entropy, iid_sum_pmf, shift
from discrete_epi.errors import BudgetExceededError
from discrete_epi.moments_bounds import (
    MAX_MOMENT_ORDER,
    CumulantSet,
    _harmonic_cursor,
    _laurent_table,
    _moment_coeffs,
    _moment_poly,
    bernoulli_cumulants,
    c_coeff,
    central_moment_brute,
    central_moment_closed,
    cumulants_from_raw_moments,
    cumulative_gamma_bound,
    faa_di_bruno_poly,
    gamma_l,
    harmonic_bound_violations,
    harmonic_lower_bound,
    harmonic_number,
    taylor_coeff,
    taylor_lower_bound,
)
from discrete_epi.precision import as_mpf, eps_for, working_precision

from conftest import (
    assert_close,
    exact_bernoulli_cumulants,
    exact_central_moment,
    exact_taylor_coeff,
    exact_value,
)

P_GRID = ("0.1", "0.25", "0.4", "0.5", "0.63", "0.8", "0.9")
ORACLE_PS = ("0.2", Fraction(1, 3), Fraction(1, 2), "0.77")
ROUNDING_PS = (Fraction(3, 10), Fraction(1, 3), Fraction(1, 2), "0.77", "1e-300", 0, 1)
# the least depth l whose Laurent table, to order 2l + 1, is past the budget
DEPTH_PAST_BUDGET = MAX_MOMENT_ORDER // 2 + 1
# p for the integer tables against their Fraction oracle: the middle, a
# non-dyadic value and the two sides of the interval near its ends
INTEGER_TABLE_PS = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 2**30), 1 - Fraction(1, 2**30))


def exact_p(p, precision: int = 50) -> Fraction:
    """The value p has at the given precision, as an exact binary fraction."""
    man, exp = as_mpf(p, precision).man_exp
    return Fraction(man) * Fraction(2) ** exp


@lru_cache(maxsize=None)
def oracle_moment(j: int, p: Fraction, k: int) -> Fraction:
    """mu_k of Binomial(j, p): conftest's sum for j <= 31, else in integers.

    With p = a / d, mu_k = sum_i comb(j, i) a**i (d-a)**(j-i) (i d - j a)**k
    / d**(j+k); the integer form is checked against conftest's sum in
    ``test_integer_moments_match_conftest``.
    """
    if j <= 31:
        return exact_central_moment(j, p, k)
    return integer_moment(j, p, k)


def integer_moment(j: int, p: Fraction, k: int) -> Fraction:
    a, d = p.numerator, p.denominator
    total = sum(comb(j, i) * a**i * (d - a) ** (j - i) * (i * d - j * a) ** k for i in range(j + 1))
    return Fraction(total, d ** (j + k))


def oracle_gamma(j: int, p: Fraction, l: int) -> Fraction:
    """sum_{k=2}^{2l+1} F_k(p) j**-k mu_k(j), exact."""
    return sum(
        exact_taylor_coeff(k, p) * oracle_moment(j, p, k) / Fraction(j) ** k
        for k in range(2, 2 * l + 2)
    )


def rounded(x: Fraction, precision: int = 50) -> tuple:
    """x correctly rounded to nearest at the given decimal precision."""
    with working_precision(precision):
        return from_rational(x.numerator, x.denominator, mpmath.mp.prec, "n")


def laurent_coefficient(p: Fraction, w: int) -> Fraction:
    """The j**-w coefficient of the oracle Gamma_w, by interpolation.

    j**(2w) Gamma_w(j) is a polynomial of degree below 2w in j; its
    values at j = 1 .. 2w fix it, and D_w is its j**w coefficient.
    """
    size = 2 * w
    rows = [
        [Fraction(j) ** e for e in range(size)] + [oracle_gamma(j, p, w) * j**size]
        for j in range(1, size + 1)
    ]
    for col in range(size):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return rows[w][size]


class TestCumulants:
    def test_bernoulli_closed_forms(self, dps50):
        for p_str in P_GRID:
            p = mpf(p_str)
            q = 1 - p
            cums = bernoulli_cumulants(p, 4)
            assert_close(cums.kappa(1), p)
            assert_close(cums.kappa(2), p * q)
            assert_close(cums.kappa(3), p * q * (1 - 2 * p))
            assert_close(cums.kappa(4), p * q * (1 - 6 * p * q))

    def test_recurrence_additivity(self, dps50):
        # Cumulants of Binomial(2, p) from its raw moments are twice
        # the Bernoulli cumulants.
        p = "0.3"
        pmf = binomial_pmf(2, p)
        raw = [
            mpmath.fsum(w * mpf(k) ** j for k, w in pmf.items())
            for j in range(1, 5)
        ]
        doubled = cumulants_from_raw_moments(raw)
        single = bernoulli_cumulants(p, 4)
        for g in range(1, 5):
            assert_close(doubled.kappa(g), 2 * single.kappa(g))

    @pytest.mark.parametrize("precision", [20, 50, 80])
    @pytest.mark.parametrize("p", ROUNDING_PS)
    def test_bernoulli_cumulants_are_correctly_rounded(self, p, precision):
        exact = exact_bernoulli_cumulants(exact_p(p, precision), 20)
        got = bernoulli_cumulants(p, 20, precision)
        for g in range(1, 21):
            assert got.kappa(g)._mpf_ == rounded(exact[g - 1], precision), g

    def test_order_bounds_enforced(self, dps50):
        cums = bernoulli_cumulants("0.4", 3)
        with pytest.raises(ValueError):
            cums.kappa(4)
        with pytest.raises(ValueError):
            cums.kappa(0)


class TestCentralMoments:
    def test_closed_matches_exact_rational(self, dps50):
        p = Fraction(3, 10)
        for n in (1, 2, 5, 17):
            for k in range(0, 13):
                exact = exact_central_moment(n, p, k)
                got = central_moment_closed(n, p, k)
                assert_close(got, mpf(exact.numerator) / exact.denominator)

    def test_closed_matches_brute(self, dps50):
        for p_str in ("0.1", "0.5", "0.77"):
            for n in (1, 3, 10, 40):
                pmf = binomial_pmf(n, p_str)
                for k in range(0, 8):
                    assert_close(
                        central_moment_closed(n, p_str, k),
                        central_moment_brute(pmf, k),
                        "1e-38",
                    )

    @pytest.mark.parametrize("precision", [20, 50, 80])
    @pytest.mark.parametrize("p", ROUNDING_PS)
    def test_closed_is_correctly_rounded(self, p, precision):
        # conftest's sum for n <= 12; beyond, its integer form, which is
        # much faster at p = 1e-300 (tied to conftest's sum above)
        pv = exact_p(p, precision)
        for n in range(41):
            oracle = exact_central_moment if n <= 12 else integer_moment
            for k in range(8):
                got = central_moment_closed(n, p, k, precision)
                assert got._mpf_ == rounded(oracle(n, pv, k), precision), (n, k)

    @pytest.mark.parametrize(
        "call, order",
        [
            (lambda: central_moment_closed(3, "0.5", MAX_MOMENT_ORDER + 1), MAX_MOMENT_ORDER + 1),
            (lambda: bernoulli_cumulants("0.3", MAX_MOMENT_ORDER + 1), MAX_MOMENT_ORDER + 1),
            (lambda: gamma_l(1, "0.3", DEPTH_PAST_BUDGET), 2 * DEPTH_PAST_BUDGET + 1),
            (lambda: c_coeff(DEPTH_PAST_BUDGET, "0.3"), 2 * DEPTH_PAST_BUDGET + 1),
            (lambda: cumulative_gamma_bound(4, "0.3", DEPTH_PAST_BUDGET), 2 * DEPTH_PAST_BUDGET + 1),
            (lambda: harmonic_lower_bound(4, "0.3", DEPTH_PAST_BUDGET), 2 * DEPTH_PAST_BUDGET + 1),
            # bound --l asks for the depth-2l table before the depth-l one
            (lambda: cli._cmd_bound(argparse.Namespace(p="0.3", n=4, l=17, precision=50)), 69),
        ],
        ids=["closed", "cumulants", "gamma_l", "c_coeff", "cumulative", "harmonic", "cli_bound"],
    )
    def test_order_budget_refuses_before_any_row(self, call, order):
        # the top order is asked for first: the refused call is the only
        # one, and no row is built or read
        before = _moment_poly.cache_info()
        with pytest.raises(
            BudgetExceededError,
            match=f"^moment order {order} is past the {MAX_MOMENT_ORDER}-order budget$",
        ):
            call()
        after = _moment_poly.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits, before.misses + 1, before.currsize,
        )


class TestMomentTable:
    @pytest.mark.parametrize("k", range(21))
    def test_rows_match_exact(self, k):
        # mu_k(n) = sum_b n**b P_kb(r) at exact p = 1/2 + r; odd orders too
        rows = _moment_poly(k)
        assert rows == kernel_oracle.moment_poly(k)
        for p in (Fraction(3, 10), Fraction(9, 10)):
            r = p - Fraction(1, 2)
            for n in (1, 2, 5, 17):
                row_values = [sum(c * r**j for j, c in enumerate(row)) for row in rows]
                value = sum(n**b * v for b, v in enumerate(row_values))
                assert value == exact_central_moment(n, p, k), (p, n)


class TestFaaDiBruno:
    def test_low_order_structure(self, dps50):
        cums = bernoulli_cumulants("0.3", 8)
        poly2 = faa_di_bruno_poly(2, cums)
        poly3 = faa_di_bruno_poly(3, cums)
        poly4 = faa_di_bruno_poly(4, cums)
        assert set(poly2.coeffs) == {1}
        assert set(poly3.coeffs) == {1}
        assert set(poly4.coeffs) == {1, 2}
        assert_close(poly2.coeffs[1], cums.kappa(2))
        assert_close(poly3.coeffs[1], cums.kappa(3))
        assert_close(poly4.coeffs[1], cums.kappa(4))
        assert_close(poly4.coeffs[2], 3 * cums.kappa(2) ** 2)

    def test_evaluates_to_binomial_moments(self, dps50):
        for p_str in ("0.25", "0.5", "0.8"):
            cums = bernoulli_cumulants(p_str, 12)
            for k in range(2, 13):
                poly = faa_di_bruno_poly(k, cums)
                for j in (1, 2, 5, 8):
                    pmf = binomial_pmf(j, p_str)
                    assert_close(
                        poly.evaluate(j), central_moment_brute(pmf, k), "1e-38"
                    )

    @pytest.mark.parametrize("value, shown", [(mpmath.inf, "+inf"), (-mpmath.inf, "-inf"), (mpmath.nan, "nan")])
    @pytest.mark.parametrize("order", [2, 4])
    def test_non_finite_cumulant_is_named(self, dps50, value, shown, order):
        kappas = [mpf(0), mpf(1), mpf(1), mpf(1)]
        kappas[order - 1] = value
        with pytest.raises(ValueError) as info:
            faa_di_bruno_poly(4, CumulantSet(tuple(kappas), 50))
        assert str(info.value) == f"kappa_{order} = {shown} is not finite"


class TestMomentCumulantRecurrence:
    # raw moments (1 + 2**r) / 3 of the uniform law on {0, 1, 2}: kappa_4 < 0
    UNIFORM_RAW = [Fraction(1 + 2**r, 3) for r in range(1, 17)]

    @pytest.mark.parametrize("precision", [20, 50])
    @pytest.mark.parametrize("source", ["0.3", "0.5", "0.01", "0.9", "uniform"])
    def test_equals_partition_sum_rounded_once(self, precision, source):
        if source == "uniform":
            cums = cumulants_from_raw_moments(self.UNIFORM_RAW, precision)
            assert cums.kappa(4) < 0
        else:
            cums = bernoulli_cumulants(source, 16, precision)
        kappas = [exact_value(c) for c in cums.kappas]
        for k in range(17):
            got = faa_di_bruno_poly(k, cums).coeffs
            want = kernel_oracle.partition_poly(k, kappas)
            assert set(got) == set(want), k
            for d, c in want.items():
                assert got[d]._mpf_ == rounded(c, precision), (k, d)

    def test_key_sets(self):
        cums = bernoulli_cumulants("0.3", 9)
        assert set(faa_di_bruno_poly(0, cums).coeffs) == {0}
        assert set(faa_di_bruno_poly(1, cums).coeffs) == set()
        for k in range(2, 10):
            assert set(faa_di_bruno_poly(k, cums).coeffs) == set(range(1, k // 2 + 1))
        # p = 1/2: odd cumulants vanish, so odd-order coefficients are kept as zeros
        assert faa_di_bruno_poly(3, bernoulli_cumulants("0.5", 3)).coeffs == {1: 0}

    def test_order_64_is_fast(self):
        cums = bernoulli_cumulants("0.3", 64)
        started = time.perf_counter()
        poly = faa_di_bruno_poly(64, cums)
        assert time.perf_counter() - started < 0.5
        assert set(poly.coeffs) == set(range(1, 33))

    def test_short_cumulant_set_is_refused(self):
        with pytest.raises(ValueError, match="^need cumulants up to order 5, got only 4$"):
            faa_di_bruno_poly(5, bernoulli_cumulants("0.3", 4))


class TestTaylorCoefficients:
    def test_log_odds_first_order(self, dps50):
        x = mpf("0.3")
        assert_close(taylor_coeff(1, x), mpmath.ln(x) - mpmath.ln(1 - x))

    def test_second_order(self, dps50):
        for p_str in P_GRID:
            p = mpf(p_str)
            assert_close(taylor_coeff(2, p), 1 / (2 * p * (1 - p)))

    def test_fourth_order_at_half(self, dps50):
        assert_close(taylor_coeff(4, "0.5"), mpf(4) / 3)

    def test_third_order_spot_value(self, dps50):
        # [(1-x)**-2 - x**-2] / 6 at x = 1/4 is -64/27.
        assert_close(taylor_coeff(3, "0.25"), mpf(-64) / 27)

    def test_even_orders_nonnegative(self, dps50):
        for p_str in P_GRID:
            for k in (2, 4, 6, 8):
                assert taylor_coeff(k, p_str) >= 0

    def test_lower_bound_property(self, dps50):
        # The odd-truncated expansion never exceeds the entropy defect.
        from discrete_epi.dist_core import bernoulli_entropy

        for p_str in ("0.3", "0.5", "0.7"):
            p = mpf(p_str)
            defect_at = lambda x: bernoulli_entropy(p) - bernoulli_entropy(x)
            for x_str in ("0.05", "0.2", "0.5", "0.9"):
                x = mpf(x_str)
                for l in range(0, 4):
                    bound = taylor_lower_bound(x, p, l)
                    assert defect_at(x) >= bound - eps_for(50)


class TestGammaBounds:
    def test_gamma_below_entropy_increment(self, dps50):
        # The truncation drops only even-order terms, whose Taylor
        # coefficients and central moments are both nonnegative, so each
        # Gamma_l(j) lower-bounds the j-th entropy increment.  (It is
        # not itself nonnegative: at skewed p and small j the odd terms
        # can dominate.)
        from discrete_epi.dist_core import binomial_entropy_chain

        for p_str in P_GRID:
            chain = binomial_entropy_chain(p_str, 31)
            for l in (1, 2, 3):
                for j in (1, 2, 7, 31):
                    increment = chain[j] - chain[j - 1]
                    assert gamma_l(j, p_str, l) <= increment + eps_for(50)

    def test_gamma_nonnegative_at_symmetric_p(self, dps50):
        # At p = 1/2 the odd moments vanish and every surviving term is
        # a product of nonnegative factors.
        for l in (1, 2, 3):
            for j in (1, 2, 7, 30):
                assert gamma_l(j, "0.5", l) >= -eps_for(50)

    def test_cumulative_below_entropy(self, dps50):
        for p_str in ("0.2", "0.5", "0.8"):
            for l in (1, 2, 3):
                for n in (1, 4, 20, 60):
                    bound = cumulative_gamma_bound(n, p_str, l)
                    exact = entropy(binomial_pmf(n, p_str))
                    assert bound <= exact + eps_for(50)


class TestHarmonicBound:
    def test_harmonic_numbers_exact(self, dps50):
        assert_close(harmonic_number(4, 1), mpf(25) / 12)
        assert_close(harmonic_number(4, 2), mpf(205) / 144)

    def test_c_coefficients(self, dps50):
        for p_str in P_GRID:
            p = mpf(p_str)
            pq = p * (1 - p)
            assert_close(c_coeff(1, p), mpf(1) / 2)
            assert_close(c_coeff(2, p), (1 - pq) / (12 * pq))

    def test_known_value_at_four_trials(self, dps50):
        assert_close(harmonic_lower_bound(4, "0.5", 2), mpf(805) / 576)

    def test_overshoot_region_documented(self, dps50):
        assert harmonic_bound_violations("0.5", 30, 2) == [1, 2, 3]

    def test_holds_from_four_onward(self, dps50):
        for n in range(4, 40):
            bound = harmonic_lower_bound(n, "0.5", 2)
            exact = entropy(binomial_pmf(n, "0.5"))
            assert bound <= exact + eps_for(50)


class TestLaurentTable:
    def test_integer_moments_match_conftest(self):
        for p in ORACLE_PS:
            pv = exact_p(p)
            for k in range(2, 10):
                assert integer_moment(31, pv, k) == exact_central_moment(31, pv, k)

    @pytest.mark.parametrize("p", ORACLE_PS)
    def test_gamma_is_the_correctly_rounded_exact_sum(self, dps50, p):
        pv = exact_p(p)
        for l in (1, 2, 3, 4):
            for j in (1, 2, 7, 31, 200):
                assert gamma_l(j, p, l)._mpf_ == rounded(oracle_gamma(j, pv, l)), (l, j)

    @pytest.mark.parametrize("p", ORACLE_PS)
    def test_c_coeff_is_the_rounded_laurent_coefficient(self, dps50, p):
        pv = exact_p(p)
        for w in (1, 2, 3, 4):
            assert c_coeff(w, p)._mpf_ == rounded(laurent_coefficient(pv, w)), w

    def test_other_precisions_round_at_their_own_width(self):
        for precision in (20, 80):
            pv = exact_p("0.3", precision)
            got = gamma_l(9, "0.3", 3, precision)
            assert got._mpf_ == rounded(oracle_gamma(9, pv, 3), precision)

    def test_table_built_once_per_p_and_depth(self, dps50, monkeypatch):
        _laurent_table.cache_clear()
        running = [gamma_l(j, "0.3", 2) for j in range(1, 61)]
        assert _laurent_table.cache_info().misses == 1
        with working_precision(50):
            harmonic = {n: mpmath.fsum(c_coeff(w, "0.3") * harmonic_number(n, w) for w in (1, 2))
                        for n in range(4, 40)}
        reads = []
        exact_p = moments_bounds._exact_p
        monkeypatch.setattr(moments_bounds, "_exact_p", lambda *a, **k: reads.append(a) or exact_p(*a, **k))
        with working_precision(50):
            assert cumulative_gamma_bound(60, "0.3", 2) == mpmath.fsum(running)
            for n in range(4, 40):
                assert harmonic_lower_bound(n, "0.3", 2) == harmonic[n]
        # p is read once per call; c(1) needs the depth-1 table, and the
        # harmonic sum reads both c(1) and c(2) off the depth-2 one
        assert len(reads) == 1 + 36
        assert _laurent_table.cache_info().misses == 2

    def test_p_outside_the_open_interval_is_rejected(self, dps50):
        for p in ("0", "1", "1.5", "-0.25"):
            with pytest.raises(ValueError):
                gamma_l(3, p, 2)
            with pytest.raises(ValueError):
                c_coeff(2, p)
            with pytest.raises(ValueError):
                c_coeff(1, p)

    @pytest.mark.parametrize("p", INTEGER_TABLE_PS + (Fraction(0), Fraction(1)))
    def test_integer_moment_coefficients_match_fraction_oracle(self, p):
        for k in range(MAX_MOMENT_ORDER + 1):
            assert _moment_coeffs(p, k) == fraction_oracle.moment_coeffs(p, k), k

    @pytest.mark.parametrize("p", INTEGER_TABLE_PS)
    def test_integer_laurent_tables_match_fraction_oracle(self, p):
        for l in range(1, DEPTH_PAST_BUDGET):
            assert _laurent_table(p, l) == fraction_oracle.laurent_table(p, l), l


def exact_moment_of(pmf: IntegerPmf, k: int) -> Fraction:
    """k-th central moment of the exact values of the pmf's weights.

    With w_i = N_i / d and mean = a / b, it is
    sum_i N_i (i b - a)**k / (d b**k), summed in integers.
    """
    weights = [exact_value(w) for w in pmf.weights]
    d = max(w.denominator for w in weights)
    nums = [w.numerator * (d // w.denominator) for w in weights]
    mean = Fraction(sum(i * n for i, n in zip(pmf.support(), nums)), d)
    a, b = mean.numerator, mean.denominator
    return Fraction(sum(n * (i * b - a) ** k for i, n in zip(pmf.support(), nums)), d * b**k)


class TestBruteMomentsExact:
    def test_rounded_once_on_binomials(self, dps50):
        for p in ORACLE_PS:
            pv = exact_p(p)
            for n in (1, 5, 31):
                pmf = binomial_pmf(n, p)
                scale = max(1, float(n * pv * (1 - pv)))
                for k in range(9):
                    value = central_moment_brute(pmf, k)
                    assert value._mpf_ == rounded(exact_moment_of(pmf, k)), (p, n, k)
                    # the weights themselves are each within half an ulp
                    exact = exact_central_moment(n, pv, k)
                    assert_close(value, mpf(exact.numerator) / exact.denominator, 1e-45 * scale ** (k / 2))

    def test_rounded_once_on_a_skewed_64_fold_sum(self, dps50):
        # successive weights 1000x apart: the 64-fold tails reach 1e-960
        raw = [1000**k for k in range(6)]
        base = IntegerPmf.from_weights([Fraction(r, sum(raw)) for r in raw], 0, 50)
        total = iid_sum_pmf(base, 64)
        assert total.weights[0] < mpf("1e-900")
        for offset in (-250, 0, 7):
            for k in range(9):
                value = central_moment_brute(shift(total, offset), k)
                assert value._mpf_ == rounded(exact_moment_of(shift(total, offset), k)), (offset, k)

    def test_default_mean_is_exact(self, dps50):
        pmf = binomial_pmf(1, "0.5")
        assert central_moment_brute(pmf, 1) == 0
        assert central_moment_brute(pmf, 0) == 1
        assert central_moment_brute(shift(pmf, -7), 3) == 0


class TestHarmonicPrefix:
    def test_rounded_once_in_any_call_order(self, dps50):
        exact = {w: [Fraction(0)] for w in (1, 2, 3)}
        for w, sums in exact.items():
            for i in range(1, 501):
                sums.append(sums[-1] + Fraction(1, i**w))
        _harmonic_cursor.cache_clear()
        for order in ([0, 1, 2, 7, 100, 500], [500, 100, 7, 2, 1, 0], [7, 500, 2, 499]):
            for w, sums in exact.items():
                for n in order:
                    assert harmonic_number(n, w)._mpf_ == rounded(sums[n]), (order, w, n)

    def test_scan_advances_one_running_sum(self, dps50):
        _harmonic_cursor.cache_clear()
        for n in range(1, 301):
            harmonic_number(n, 2)
        assert _harmonic_cursor.cache_info().misses == 1
        assert _harmonic_cursor(2, mpmath.mp.prec + 64)[0][0] == 300
