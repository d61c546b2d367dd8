"""Entropy-power gap, step-condition, and threshold tests."""

import hashlib
from dataclasses import astuple, is_dataclass
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_int, mpf_div, mpf_log, mpf_shift

from discrete_epi import dist_core, epi_engine
from discrete_epi.dist_core import IntegerPmf, binomial_pmf, delta_pmf
from discrete_epi.epi_engine import (
    empirical_threshold,
    epi_gap,
    epi_grid_check,
    formula_thresholds,
    iid_epi_gap,
    semi_asymptotic_condition,
    sufficient_step_check,
    zero_crossing_scan,
)
from discrete_epi.errors import BudgetExceededError
from discrete_epi.precision import _bits, eps_for, working_precision

from conftest import assert_close


def oracle_gap(m: int, n: int, p: str) -> mpf:
    """Entropy power gap from first principles, independent of the engine."""

    def h(trials: int) -> mpf:
        pv = mpf(p)
        total = mpf(0)
        for k in range(trials + 1):
            w = mpmath.binomial(trials, k) * pv**k * (1 - pv) ** (trials - k)
            if w > 0:
                total -= w * mpmath.ln(w)
        return total

    return (
        mpmath.exp(2 * h(m + n)) - mpmath.exp(2 * h(m)) - mpmath.exp(2 * h(n))
    )


class TestEpiGap:
    def test_against_oracle(self, dps50):
        for m, n, p in ((1, 2, "0.5"), (2, 3, "0.3"), (1, 1, "0.9"), (4, 4, "0.62")):
            report = epi_gap(m, n, p)
            assert_close(report.gap, oracle_gap(m, n, p), "1e-35")

    def test_known_value_one_two_half(self, dps50):
        report = epi_gap(1, 2, "0.5")
        assert_close(report.gap, "0.3168057427120163", "1e-15")
        assert report.holds

    def test_symmetric_in_m_n(self, dps50):
        # Same two terms added in opposite order: equal up to final-ulp rounding.
        a, b = epi_gap(2, 5, "0.4"), epi_gap(5, 2, "0.4")
        assert_close(a.gap, b.gap, "1e-45")

    def test_single_pair_negative_off_center(self, dps50):
        for p in ("0.1", "0.3", "0.45", "0.7", "0.9"):
            report = epi_gap(1, 1, p)
            assert report.gap < 0
            assert not report.holds

    def test_single_pair_zero_at_half(self, dps50):
        report = epi_gap(1, 1, "0.5")
        assert abs(report.gap) < mpf("1e-30")
        assert report.holds

    def test_rejects_bad_sizes(self, dps50):
        with pytest.raises(ValueError):
            epi_gap(0, 1, "0.5")


class TestIidGap:
    def test_bernoulli_base_matches_binomial_engine(self, dps50):
        base = binomial_pmf(1, "0.3")
        direct = epi_gap(2, 3, "0.3")
        generic = iid_epi_gap(base, 2, 3)
        assert_close(generic.gap, direct.gap, "1e-40")
        assert generic.p is None

    def test_uniform_base_large_sizes_hold(self, dps50):
        base = IntegerPmf.from_weights(["1/3", "1/3", "1/3"])
        report = iid_epi_gap(base, 32, 32)
        assert report.gap >= 0
        assert report.holds

    def test_oversized_sum_fails_before_any_convolution(self, dps50, monkeypatch):
        def refuse(a, b):
            raise AssertionError("convolved before the budget check")

        monkeypatch.setattr(dist_core, "convolve", refuse)
        monkeypatch.setattr(epi_engine, "convolve", refuse)
        with pytest.raises(BudgetExceededError, match="point budget"):
            iid_epi_gap(binomial_pmf(1, "0.5"), 10**9, 1)


class TestStepCondition:
    def test_margin_definition(self, dps50):
        from discrete_epi.dist_core import binomial_entropy_chain

        chain = binomial_entropy_chain("0.3", 13)
        for n in (1, 5, 12):
            check = sufficient_step_check(n, "0.3")
            expected = chain[n + 1] - chain[n] - mpmath.ln(mpf(n + 1) / n) / 2
            assert_close(check.margin, expected, "1e-45")
            assert check.holds == (check.margin >= -eps_for(50))

    def test_symmetric_p_holds_everywhere_tested(self, dps50):
        for n in range(1, 60):
            assert sufficient_step_check(n, "0.5").holds

    def test_skewed_p_fails_then_holds(self, dps50):
        threshold = empirical_threshold("0.05", cap=60)
        n0 = threshold.empirical_n0
        assert n0 is not None and n0 > 1
        assert not sufficient_step_check(n0 - 1, "0.05").holds
        assert sufficient_step_check(n0, "0.05").holds


class TestHalfLogs:
    def test_table_is_the_halved_log_of_the_rounded_ratio(self):
        # through the 4,434-row chain of the CLI's threshold pin
        prec = _bits(50)
        epi_engine._step_margin(mpf(0), mpf(0), 4434, 50)
        table = epi_engine._half_logs(prec)
        for n in range(1, 4435):
            ratio = mpf_div(from_int(n + 1), from_int(n), prec, "n")
            assert table[n] == mpf_shift(mpf_log(ratio, prec, "n"), -1), n

    def test_second_scan_takes_no_new_half_log(self, monkeypatch):
        calls = []
        log = epi_engine.mpf_log
        monkeypatch.setattr(epi_engine, "mpf_log", lambda *a: calls.append(a[0]) or log(*a))
        epi_engine._half_logs.cache_clear()
        first = empirical_threshold("0.3", 40, 30)
        assert len(calls) == 40
        assert empirical_threshold("0.3", 40, 30) == first
        assert len(calls) == 40


class TestThresholds:
    def test_formula_values_at_zero_skew(self, dps50):
        assert formula_thresholds(mpf(0)) == (7, 7)

    def test_formula_values_at_unit_skew(self, dps50):
        assert formula_thresholds(mpf(1)) == (12, 11)

    def test_formula_monotone_in_skew(self, dps50):
        previous = (7, 7)
        for i in range(1, 12):
            t = mpf(i) / 4
            current = formula_thresholds(t)
            assert current[0] >= previous[0]
            assert current[1] >= previous[1]
            previous = current

    def test_empirical_at_half_is_one(self, dps50):
        report = empirical_threshold("0.5", cap=40)
        assert report.empirical_n0 == 1
        assert report.formula_a == 7
        assert report.formula_b == 7

    def test_empirical_below_formula(self, dps50):
        for p in ("0.1", "0.25", "0.4"):
            report = empirical_threshold(p, cap=120)
            assert report.empirical_n0 is not None
            assert report.empirical_n0 <= report.formula_a
            assert report.empirical_n0 <= report.formula_b

    def test_unresolved_within_cap(self, dps50):
        report = empirical_threshold("0.05", cap=3)
        assert report.empirical_n0 is None

    def test_zero_crossings(self, dps50):
        assert zero_crossing_scan("0.5", cap=12) == []
        crossings = zero_crossing_scan("0.05", cap=40)
        assert len(crossings) == 1
        assert crossings[0] == empirical_threshold("0.05", cap=40).empirical_n0


class TestGrid:
    def test_six_by_six_at_half(self, dps50):
        cells = epi_grid_check(6, 6, "0.5")
        assert len(cells) == 36
        assert all(rep.holds for rep in cells.values())

    def test_matches_single_gap(self, dps50):
        cells = epi_grid_check(3, 4, "0.3")
        single = epi_gap(2, 4, "0.3")
        assert_close(cells[(2, 4)].gap, single.gap, "1e-45")


def raw_digest(value) -> str:
    """sha256 of value with every mpf read as its raw (sign, man, exp, bc)."""

    def raw(item):
        if isinstance(item, mpf):
            sign, man, exp, bc = item._mpf_
            return (sign, int(man), exp, bc)
        if is_dataclass(item):
            item = astuple(item)
        if isinstance(item, dict):
            item = sorted(item.items())
        if isinstance(item, (list, tuple)):
            return tuple(raw(x) for x in item)
        return item

    return hashlib.sha256(repr(raw(value)).encode()).hexdigest()


class TestBitPins:
    # Every bit of the results, where the tests above compare to 1e-40.
    # Each public function reads a chain of its own length, and the
    # chain's last bit depends on that length, so these also pin it.
    BASES = {
        "bernoulli": lambda precision: binomial_pmf(1, "0.3", precision),
        "uniform": lambda precision: IntegerPmf.from_weights(["1/3"] * 3, precision=precision),
        "gapped": lambda precision: IntegerPmf.from_weights(["1/2", "0", "1/2"], precision=precision),
        "delta": lambda precision: delta_pmf(0, precision),
    }
    IID_SHA256 = {
        ("bernoulli", 30): "d80f6d219320c07fd4660eb91489aee5d8cd0978e88327040f05b28dd43d660a",
        ("uniform", 30): "933d72eb58144185a97d69fd15980d8fe98bf9735b2237370eb1aafedfaf1f8b",
        ("gapped", 30): "67df5edecb8cb01a16ca1070ac41dd58fec6f6676168e548c41edba51583cd1b",
        ("delta", 30): "082b4d1ea09c757fe68579cab870ac5ec8239b63573a6e71273ff04382751cce",
        ("bernoulli", 50): "5d13a232f8ef441e37ca776654a62ba3a149ac72df799ba3e61647ac448450f8",
        ("uniform", 50): "dd6df5e1c4fafe0ab6abd7b658d0582dc686f09aa95e71fc2c150ed3337c4eec",
        ("gapped", 50): "0cc81d924037961119f4c630cc428e4cc52ed6b03b0f3b3fc1bc044196921a5a",
        ("delta", 50): "3a543d08e3ead45375840e5db724841b1aeed0d50994a19df42a991cdfe3f864",
    }

    @pytest.mark.parametrize("base, precision", sorted(IID_SHA256))
    def test_iid_gaps(self, base, precision):
        pmf = self.BASES[base](precision)
        reports = [iid_epi_gap(pmf, m, n) for m, n in ((1, 1), (2, 3), (5, 4), (8, 8))]
        assert raw_digest(reports) == self.IID_SHA256[(base, precision)]

    BINOMIAL_SHA256 = {
        ("0.05", 30): "d5645d6077b02bdcda7441225b3c9051d34f76d7df64258e13acaf33d935b57b",
        ("0.3", 30): "37d31dea0ee65f149f8da838ba69973b50b53998511195d8957a901e1732a179",
        ("0.5", 30): "5c70df9b2939963402affa4a6709ba410ec1fb0efa3f770c9a3ffcad38ce51a4",
        ("0.05", 50): "144c7ea9961292084b346fed9d6dff911cb81f466318247afdbe2bc057573042",
        ("0.3", 50): "b87e6ec822a85252b0071e7a81087661164c393305b5e1d9c6fc46eb99b449a2",
        ("0.5", 50): "d79ad1904ecb23729e2e705528dee9a6dd8233f6b6d46b80423ebfe3fc831ad2",
    }

    @pytest.mark.parametrize("p, precision", sorted(BINOMIAL_SHA256))
    def test_steps_crossings_and_grid(self, p, precision):
        steps = [sufficient_step_check(n, p, precision) for n in (1, 2, 10, 24)]
        crossings = zero_crossing_scan(p, 40, precision)
        grid = epi_grid_check(5, 4, p, precision)
        assert raw_digest((steps, crossings, grid)) == self.BINOMIAL_SHA256[(p, precision)]


class TestSemiAsymptotic:
    def test_skewed_small_m_fails(self, dps50):
        check = semi_asymptotic_condition(1, "0.01")
        assert not check.holds
        assert check.lhs > check.rhs

    def test_symmetric_holds(self, dps50):
        check = semi_asymptotic_condition(1, "0.5")
        assert check.holds

    def test_skewed_holds_for_larger_m(self, dps50):
        # At p = 0.01 the Gaussian reference catches up once m grows.
        holds = [semi_asymptotic_condition(m, "0.01").holds for m in (1, 400)]
        assert holds == [False, True]


open_unit = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
    lambda v: 0 < v < 1
)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    p=open_unit,
    m=st.integers(min_value=1, max_value=20),
    n=st.integers(min_value=1, max_value=20),
)
def test_gap_is_mirror_symmetric_and_repeatable(p, m, n):
    report = epi_gap(m, n, p)
    mirror = epi_gap(m, n, 1 - p)
    assert report.gap._mpf_ == epi_gap(m, n, p).gap._mpf_
    with working_precision(50):
        # Each entropy power is at most (m + n + 1)**2, the uniform bound.
        assert abs(report.gap - mirror.gap) <= eps_for(50) * (m + n + 1) ** 2
    assert report.holds == mirror.holds


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(p=open_unit, cap=st.integers(min_value=1, max_value=120))
def test_threshold_is_mirror_symmetric_and_repeatable(p, cap):
    report = empirical_threshold(p, cap)
    assert report == empirical_threshold(p, cap)
    mirror = empirical_threshold(1 - p, cap)
    assert report.empirical_n0 == mirror.empirical_n0
    assert (report.formula_a, report.formula_b) == (mirror.formula_a, mirror.formula_b)
