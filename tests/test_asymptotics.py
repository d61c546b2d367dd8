"""Gaussian-limit corrections and smoothed-entropy quadrature tests."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp

from discrete_epi import asymptotics
from discrete_epi.asymptotics import (
    gaussian_smoothed_entropy,
    iid_power_pmfs,
    knessl_profile,
    leading_constant_fit,
    tulino_verdu_compare,
)
from discrete_epi.dist_core import (
    MAX_SUM_SUPPORT,
    IntegerPmf,
    _runs,
    binomial_entropy_chain,
    binomial_pmf,
    delta_pmf,
    entropy,
)
from discrete_epi.epi_engine import _step_margin, sufficient_step_check
from discrete_epi.errors import BudgetExceededError, QuadratureError
from discrete_epi.precision import eps_for, working_precision

from conftest import assert_close
from quadrature_oracle import adaptive_smoothed_entropy, reference_smoothed_entropy

LN2 = "0.69314718055994530941723212145817656807550013436026"


def gaussian_entropy(sigma: str) -> mpf:
    return mpmath.ln(2 * mpmath.pi * mpmath.e * mpf(sigma) ** 2) / 2


class TestIidPowers:
    def test_matches_binomial(self, dps50):
        base = binomial_pmf(1, "0.3")
        sums = iid_power_pmfs(base, [1, 2, 3, 5, 8])
        for n, pmf in sums.items():
            reference = binomial_pmf(n, "0.3")
            assert pmf.support() == reference.support()
            for k in pmf.support():
                assert_close(pmf.weight_at(k), reference.weight_at(k), "1e-45")

    def test_shared_ladder_geometric_family(self, dps50):
        base = binomial_pmf(1, "0.5")
        sums = iid_power_pmfs(base, [16, 64])
        assert sorted(sums) == [16, 64]
        assert sums[64].size == 65

    def test_support_budget(self, dps50):
        base = binomial_pmf(1, "0.5")
        with pytest.raises(BudgetExceededError, match="point budget"):
            iid_power_pmfs(base, [MAX_SUM_SUPPORT])

    def test_rejects_zero_folds(self, dps50):
        with pytest.raises(ValueError):
            iid_power_pmfs(binomial_pmf(1, "0.5"), [0])


class TestLatticeCorrection:
    def test_symmetric_square_scaling(self, dps50):
        # n**2 g(n) settles near -1/12 for the symmetric Bernoulli sum.
        g = knessl_profile(binomial_pmf(1, "0.5"), [256]).g_values[256]
        assert g < 0
        assert abs(256**2 * g + mpf(1) / 12) < mpf("0.002")

    def test_skewed_linear_scaling(self, dps50):
        # Skewed base: n g(n) approaches -kappa3**2 / (12 sigma**6).
        base = binomial_pmf(1, "0.3")
        profile = knessl_profile(base, [256])
        g = profile.g_values[256]
        k3 = profile.kappa.kappa(3)
        s2 = profile.sigma2
        limit = -(k3**2) / (12 * s2**3)
        assert_close(mpf(256) * g, limit, "0.002")

    def test_negativity_onset_dense(self, dps50):
        profile = knessl_profile(binomial_pmf(1, "0.3"), range(1, 33))
        assert profile.negativity_onset() == 1
        assert all(v < 0 for v in profile.g_values.values())

    def test_onset_skips_positive_head(self, dps50):
        # Strongly skewed base: the Gaussian reference at one trial sits
        # below the discrete entropy, so g(1) > 0 and the onset moves.
        profile = knessl_profile(binomial_pmf(1, "0.1"), [1, 2, 4, 256])
        assert profile.g_values[1] > 0
        assert profile.negativity_onset() == 2

    def test_rejects_single_point_base(self, dps50):
        with pytest.raises(ValueError):
            knessl_profile(delta_pmf(3), [4])

    @pytest.mark.parametrize("weights", [["1", "0"], ["0", "1"]])
    def test_rejects_point_mass_with_a_zero_weight(self, dps50, weights):
        # Two positions but one nonzero weight: sigma**2 = 0.
        with pytest.raises(ValueError, match="at least 2 support points"):
            knessl_profile(IntegerPmf.from_weights(weights), [8])

    def test_cumulants_do_not_depend_on_the_offset(self):
        # (1/4, 1/2, 1/4) is B(2, 1/2): kappa_2..kappa_8 are exact at any
        # precision, and moments about 0 would lose them far from 0.
        exact = [mpf(v) for v in ("0.5", "0", "-0.25", "0", "0.5", "0", "-2.125")]
        for offset in (0, 1000, 10**6):
            base = IntegerPmf.from_weights(["1/4", "1/2", "1/4"], offset, 20)
            kappas = knessl_profile(base, [2], 20).kappa.kappas
            assert kappas[0] == offset + 1
            assert list(kappas[1:]) == exact


class TestLeadingFit:
    def test_symmetric_flat_base(self, dps50):
        base = IntegerPmf.from_weights(["1/3", "1/3", "1/3"])
        fit = leading_constant_fit(base, [64, 128, 256, 512])
        assert fit.monotone
        assert abs(fit.exponent - 2) < 0.2
        # Cumulant-predicted constant kappa4**2 / (48 sigma**8) = 3/64.
        assert abs(fit.constant - 3 / 64) < 0.15 * (3 / 64)
        assert set(fit.residuals) == {64, 128, 256, 512}

    def test_needs_four_points(self, dps50):
        with pytest.raises(ValueError):
            leading_constant_fit(binomial_pmf(1, "0.5"), [8, 16, 32])

    def test_profile_fit_needs_two_points(self, dps50):
        profile = knessl_profile(binomial_pmf(1, "0.3"), [4096])
        with pytest.raises(ValueError, match="at least 2 fold counts"):
            profile.fit()


class TestSmoothedEntropy:
    def test_single_peak_is_gaussian(self, dps50):
        result = gaussian_smoothed_entropy(delta_pmf(0), "1", tol="1e-12")
        exact = gaussian_entropy("1")
        assert abs(result.h_value - exact) <= result.quadrature_error
        assert abs(result.h_value - exact) < mpf("5e-13")
        assert result.quadrature_error <= mpf("1e-12")

    def test_wide_kernel_single_peak(self, dps50):
        result = gaussian_smoothed_entropy(delta_pmf(5), "10", tol="1e-10")
        assert abs(result.h_value - gaussian_entropy("10")) <= result.quadrature_error

    def test_separated_peaks_add_discrete_entropy(self, dps50):
        result = gaussian_smoothed_entropy(binomial_pmf(1, "0.5"), "1e-3", tol="1e-9")
        expected = gaussian_entropy("1e-3") + mpf(LN2)
        assert abs(result.h_value - expected) < mpf("1e-6")

    def test_excess_grows_toward_discrete_entropy(self, dps50):
        base = binomial_pmf(1, "0.5")
        excesses = []
        for sigma in ("1e-1", "1e-2", "1e-3"):
            result = gaussian_smoothed_entropy(base, sigma, tol="1e-9")
            excesses.append(result.h_value - gaussian_entropy(sigma))
        assert excesses[0] < excesses[1] < excesses[2]
        assert all(e <= mpf(LN2) + mpf("1e-9") for e in excesses)

    def test_bounded_by_floor_plus_discrete(self, dps50):
        pmf = IntegerPmf.from_weights(["0.2", "0.5", "0.3"])
        result = gaussian_smoothed_entropy(pmf, "0.3", tol="1e-10")
        floor = gaussian_entropy("0.3")
        assert result.h_value >= floor - result.quadrature_error
        assert result.h_value <= floor + entropy(pmf) + result.quadrature_error

    def test_unreachable_tolerance_signals(self, dps50):
        # A single peak is Gaussian, so the closed form meets any tolerance
        # above its rounding; two overlapping peaks at 1e-20 meet neither
        # the closed form nor the trapezoid's truncation floor.
        result = gaussian_smoothed_entropy(delta_pmf(0), "1", tol="1e-20")
        assert 0 < result.quadrature_error <= mpf("1e-20")
        with pytest.raises(QuadratureError):
            gaussian_smoothed_entropy(binomial_pmf(1, "0.5"), "1", tol="1e-20")

    def test_bad_arguments(self, dps50):
        with pytest.raises(ValueError):
            gaussian_smoothed_entropy(delta_pmf(0), "0")
        with pytest.raises(ValueError):
            gaussian_smoothed_entropy(delta_pmf(0), "1", tol="0")

    def test_fold_label_carried(self, dps50):
        result = gaussian_smoothed_entropy(delta_pmf(0), "1", n=17)
        assert result.n == 17


class TestSmoothedIncrements:
    def test_rows_meet_both_bounds(self):
        rows = tulino_verdu_compare("0.5", "1e-3", range(8, 13), precision=30)
        assert [row.n for row in rows] == [8, 9, 10, 11, 12]
        with working_precision(30):
            for row in rows:
                assert row.meets_half and row.meets_full
                assert row.full_log == 2 * row.half_log
        increments = [row.increment for row in rows]
        assert all(a > b > 0 for a, b in zip(increments, increments[1:]))

    def test_first_increment(self):
        rows = tulino_verdu_compare("0.5", "1e-3", [2], precision=30)
        assert len(rows) == 1
        assert rows[0].meets_half

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            tulino_verdu_compare("0.5", "1e-3", [1])


def spy_routes(monkeypatch, steps=None) -> list:
    """Record every trapezoid call from here on.

    Entries are "trapezoid" (it answered) and "refused" (it raised
    QuadratureError).  The grid M of each answer is appended to
    ``steps`` when a list is given.
    """
    taken = []
    trapezoid = asymptotics._trapezoid

    def spy_trapezoid(*args):
        try:
            out = trapezoid(*args)
        except QuadratureError:
            taken.append("refused")
            raise
        taken.append("trapezoid")
        if steps is not None:
            steps.append(out[2])
        return out

    monkeypatch.setattr(asymptotics, "_trapezoid", spy_trapezoid)
    return taken


def route_taken(monkeypatch, pmf, sigma, tol="1e-9", precision=30, steps=None):
    """The route that answered ("closed" or "trapezoid") and its result."""
    with monkeypatch.context() as patch:
        taken = spy_routes(patch, steps)
        result = gaussian_smoothed_entropy(pmf, sigma, tol, precision)
    return (taken[-1] if taken else "closed"), result


def run_weights(pmf):
    """Weights from the first nonzero one to the last, zeros included."""
    positions = [i for i, w in enumerate(pmf.weights) if w > 0]
    return list(pmf.weights[positions[0]:positions[-1] + 1])


def raw(weights):
    """The weights as raw tuples, as ``_concavity`` and ``_reach`` take them."""
    return [w._mpf_ for w in weights]


ORACLE_PMFS = {
    "binomial": lambda: binomial_pmf(6, "0.5", 30),
    "skewed": lambda: IntegerPmf.from_weights(
        ["0.55", "0.3", "0.1", "0.05"], offset=-1, precision=30
    ),
}
ORACLE_TOL = mpf("1e-9")


def nudged_flat():
    """[1/4 + d, 1/4 - d, 1/4, 1/4] at 30 digits, d one ulp at 1/4."""
    with working_precision(30):
        delta = mpmath.ldexp(1, -mpmath.mp.prec - 1)
        quarter = mpf(1) / 4
        return [quarter + delta, quarter - delta, quarter, quarter]


# Runs that are not log-concave: rho = 2/3 for the skewed pmf, just
# below 1 for the nudged flat one, and 0 with an interior zero.
STRIP_PMFS = {
    "skewed": ORACLE_PMFS["skewed"],
    "nudged": lambda: IntegerPmf(0, tuple(nudged_flat()), 30),
    "gapped": lambda: IntegerPmf.from_weights(["0.3", "0", "0.7"], precision=30),
}


class TestClosedFormRoute:
    @pytest.mark.parametrize("name", sorted(ORACLE_PMFS))
    @pytest.mark.parametrize("sigma", ["1e-3", "0.02", "0.05", "0.1", "0.25"])
    def test_agrees_with_quadrature(self, name, sigma):
        pmf = ORACLE_PMFS[name]()
        with working_precision(30):
            closed, closed_err = asymptotics._disjoint_peaks(asymptotics._peaks(pmf), mpf(sigma))
        returned = gaussian_smoothed_entropy(pmf, sigma, ORACLE_TOL, 30)
        quad = adaptive_smoothed_entropy(pmf, sigma, ORACLE_TOL, 30)
        with working_precision(30):
            assert 0 < closed_err
            assert abs(closed - quad.h_value) <= closed_err + quad.quadrature_error
            assert 0 < returned.quadrature_error <= ORACLE_TOL
            assert quad.quadrature_error <= ORACLE_TOL
            if closed_err <= ORACLE_TOL:
                assert returned.h_value == closed
                assert returned.quadrature_error == closed_err

    @pytest.mark.parametrize("name", sorted(ORACLE_PMFS))
    @pytest.mark.parametrize(
        "sigma, overlapping",
        [("1e-3", False), ("0.02", False), ("0.05", False), ("0.1", True), ("0.25", True)],
    )
    def test_route_follows_the_bound(self, name, sigma, overlapping, monkeypatch):
        # Overlapping peaks leave the closed form for the trapezoid, whether
        # or not the weights are log-concave.
        expected = "trapezoid" if overlapping else "closed"
        route, _ = route_taken(monkeypatch, ORACLE_PMFS[name](), sigma, ORACLE_TOL)
        assert route == expected

    def test_single_peak_needs_no_quadrature(self, dps50, monkeypatch):
        route, result = route_taken(monkeypatch, delta_pmf(3), "2", "1e-12", 50)
        assert route == "closed"
        assert 0 < result.quadrature_error < mpf("1e-45")
        assert abs(result.h_value - gaussian_entropy("2")) <= result.quadrature_error

    def test_truncation_floor_still_refuses(self, dps50, monkeypatch):
        # Below the floor the closed form still answers when its bound
        # fits; an input that neither route meets is refused by the
        # trapezoid before any sample.
        taken = spy_routes(monkeypatch)
        for pmf in (delta_pmf(0), binomial_pmf(4, "0.5")):
            result = gaussian_smoothed_entropy(pmf, "1e-3", tol="1e-20")
            assert 0 < result.quadrature_error <= mpf("1e-20")
        assert taken == []
        sampled = []
        monkeypatch.setattr(asymptotics, "_samples", lambda *args: sampled.append(args))
        with pytest.raises(QuadratureError, match="truncation floor"):
            gaussian_smoothed_entropy(binomial_pmf(4, "0.5"), "0.5", tol="1e-20")
        assert taken == ["refused"]
        assert sampled == []

    def test_spacing_is_the_smallest_gap(self, monkeypatch):
        # Peaks 10 apart at sigma = 0.3 are disjoint to far below 1e-9;
        # with unit spacing assumed the bound would not fit.
        pmf = IntegerPmf.from_weights(["0.5"] + ["0"] * 9 + ["0.5"], precision=30)
        route, result = route_taken(monkeypatch, pmf, "0.3", ORACLE_TOL)
        quad = adaptive_smoothed_entropy(pmf, "0.3", ORACLE_TOL, 30)
        with working_precision(30):
            peaks = asymptotics._peaks(pmf)
            assert peaks.spacing == 10
            assert asymptotics._disjoint_peaks(peaks._replace(spacing=1), mpf("0.3"))[1] > ORACLE_TOL
            assert route == "closed"
            assert 0 < result.quadrature_error <= ORACLE_TOL
            assert abs(result.h_value - quad.h_value) <= result.quadrature_error + quad.quadrature_error

    def test_bound_shrinks_with_sigma(self, dps50):
        peaks = asymptotics._peaks(binomial_pmf(8, "0.3"))
        errors = [asymptotics._disjoint_peaks(peaks, mpf(s))[1] for s in ("0.2", "0.1", "0.05")]
        assert errors[0] > errors[1] > errors[2] > 0
        assert asymptotics._disjoint_peaks(peaks, mpf("0.5")) is None


class TestPeakedIncrementsAreStepMargins:
    """Criterion 9 in the peaked regime is criterion 2's step condition.

    With disjoint peaks h(S^(n)) = H_n + (1/2) ln(2 pi e n sigma**2), so
    the increment minus ln(n/(n-1)) is H_n - H_(n-1) - (1/2) ln(n/(n-1)),
    the discrete half-log step margin at size n - 1.
    """

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(7, 10)])
    def test_full_log_margin_is_step_margin(self, p):
        sigma, tol, precision = mpf("1e-3"), "1e-9", 30
        ns = range(3, 41)
        rows = tulino_verdu_compare(p, sigma, ns, tol=tol, precision=precision)
        chain = binomial_entropy_chain(p, ns[-1], precision)
        errors = {
            n: gaussian_smoothed_entropy(
                binomial_pmf(n, p, precision), sigma * mpmath.sqrt(n), tol, precision
            ).quadrature_error
            for n in range(ns[0] - 1, ns[-1] + 1)
        }
        with working_precision(precision):
            for row in rows:
                n = row.n
                margin = _step_margin(chain[n], chain[n - 1], n - 1, precision)
                slack = errors[n] + errors[n - 1] + eps_for(precision)
                assert abs((row.increment - row.full_log) - margin) <= slack
                step = sufficient_step_check(n - 1, p, precision)
                assert row.meets_full == step.holds


class TestMirrorAndRepeatProperties:
    # 1e-3 and 0.03 take the closed form, 0.3 the trapezoid.
    @pytest.mark.parametrize("sigma", ["1e-3", "0.03", "0.3"])
    @settings(max_examples=8, deadline=None, database=None, derandomize=True)
    @given(
        p=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
            lambda v: 0 < v < 1
        ),
        n=st.integers(min_value=1, max_value=4),
    )
    def test_smoothed_entropy_mirror_and_repeat(self, sigma, p, n):
        first = gaussian_smoothed_entropy(binomial_pmf(n, p, 30), sigma, "1e-9", 30)
        again = gaussian_smoothed_entropy(binomial_pmf(n, p, 30), sigma, "1e-9", 30)
        mirror = gaussian_smoothed_entropy(binomial_pmf(n, 1 - p, 30), sigma, "1e-9", 30)
        assert first.h_value._mpf_ == again.h_value._mpf_
        assert first.quadrature_error._mpf_ == again.quadrature_error._mpf_
        with working_precision(30):
            slack = first.quadrature_error + mirror.quadrature_error
            assert abs(first.h_value - mirror.h_value) <= slack

    # An interior zero: the trapezoid's lag strip with D = span.
    @settings(max_examples=8, deadline=None, database=None, derandomize=True)
    @given(
        p=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
            lambda v: 0 < v < 1
        ),
    )
    def test_gapped_mirror_and_repeat(self, p):
        def smoothed(v):
            pmf = IntegerPmf.from_weights([v, 0, 1 - v], precision=30)
            return gaussian_smoothed_entropy(pmf, "0.3", "1e-9", 30)

        with pytest.MonkeyPatch.context() as patch:
            taken = spy_routes(patch)
            first, again, mirror = smoothed(p), smoothed(p), smoothed(1 - p)
        assert taken == ["trapezoid"] * 3
        assert first.h_value._mpf_ == again.h_value._mpf_
        assert first.quadrature_error._mpf_ == again.quadrature_error._mpf_
        with working_precision(30):
            slack = first.quadrature_error + mirror.quadrature_error
            assert abs(first.h_value - mirror.h_value) <= slack


def smoothed_reference(pmf: IntegerPmf, sigma: str, dps: int = 40) -> mpf:
    """h(S) by mpmath's tanh-sinh quadrature, split halfway between peaks."""
    with mpmath.workdps(dps):
        sig = mpf(sigma)
        peaks = [(k, w) for k, w in pmf.items() if w > 0]
        norm = 1 / (sig * mpmath.sqrt(2 * mpmath.pi))

        def integrand(x):
            f = norm * mpmath.fsum(
                w * mpmath.exp(-((x - k) ** 2) / (2 * sig * sig)) for k, w in peaks
            )
            return -f * mpmath.ln(f)

        lo, hi = peaks[0][0], peaks[-1][0]
        edges = [lo - 30 * sig] + [k + mpf(1) / 2 for k in range(lo, hi)] + [hi + 30 * sig]
        return mpmath.quad(integrand, edges)


def grid_steps(monkeypatch, pmf, sigma, tol="1e-9"):
    """The trapezoid's step count M, as ``_trapezoid`` reports it."""
    steps = []
    route, result = route_taken(monkeypatch, pmf, sigma, tol, steps=steps)
    assert route == "trapezoid"
    return steps[-1], result


SIGMAS = ["0.25", "0.5", "1"]


class TestTrapezoidRoute:
    @pytest.mark.parametrize("n", [3, 8, 64])
    @pytest.mark.parametrize("p", ["0.3", "0.5"])
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_agrees_with_adaptive_oracle(self, n, p, sigma, monkeypatch):
        pmf = binomial_pmf(n, p, 30)
        route, trap = route_taken(monkeypatch, pmf, sigma, ORACLE_TOL)
        quad = adaptive_smoothed_entropy(pmf, sigma, ORACLE_TOL, 30)
        assert route == "trapezoid"
        with working_precision(30):
            assert 0 < trap.quadrature_error <= ORACLE_TOL
            assert abs(trap.h_value - quad.h_value) <= trap.quadrature_error + quad.quadrature_error

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_reported_error_covers_reference(self, n, sigma, monkeypatch):
        pmf = binomial_pmf(n, "0.3", 30)
        route, result = route_taken(monkeypatch, pmf, sigma, "1e-12")
        assert route == "trapezoid"
        reference = smoothed_reference(pmf, sigma)
        with mpmath.workdps(40):
            assert 0 < result.quadrature_error <= mpf("1e-12")
            assert abs(result.h_value - reference) <= result.quadrature_error

    @pytest.mark.parametrize(
        "name, sigma", [("skewed", "0.25"), ("skewed", "0.8"), ("nudged", "0.25"), ("gapped", "0.3")]
    )
    def test_runs_that_are_not_log_concave_cover_reference(self, name, sigma, monkeypatch):
        # The real-rooted strip through the rho gate (skewed at 0.25,
        # nudged), the lag strip with D = span (skewed at 0.8, gapped).
        pmf = STRIP_PMFS[name]()
        route, result = route_taken(monkeypatch, pmf, sigma, "1e-12")
        assert route == "trapezoid"
        reference = smoothed_reference(pmf, sigma)
        with mpmath.workdps(40):
            assert 0 < result.quadrature_error <= mpf("1e-12")
            assert abs(result.h_value - reference) <= result.quadrature_error

    @pytest.mark.parametrize("sigma, steps", [("0.25", 31), ("0.5", 8), ("1", 8)])
    def test_grid_is_the_smallest_the_bound_allows(self, sigma, steps, monkeypatch):
        # Pinned: a narrower strip or a looser bound would need a finer grid.
        assert grid_steps(monkeypatch, binomial_pmf(6, "0.5", 30), sigma)[0] == steps

    def test_grid_past_the_cap_is_refused_before_any_sample(self, monkeypatch):
        # At sigma = 0.065 and tol 1e-12 the closed form's bound (1.5e-11)
        # is too loose and the truncation floor, 8.9e-14, admits the
        # tolerance: the trapezoid answers with M = 565, inside the cap.
        # A cap one step lower refuses the same input before any sample.
        pmf = binomial_pmf(3, "0.3", 30)
        steps, trap = grid_steps(monkeypatch, pmf, "0.065", "1e-12")
        assert steps == 565 <= asymptotics.MAX_TRAPEZOID_STEPS
        quad = adaptive_smoothed_entropy(pmf, "0.065", "1e-12", 30)
        with working_precision(30):
            assert 0 < trap.quadrature_error <= mpf("1e-12")
            assert abs(trap.h_value - quad.h_value) <= trap.quadrature_error + quad.quadrature_error
        sampled = []
        monkeypatch.setattr(asymptotics, "_samples", lambda *args: sampled.append(args))
        monkeypatch.setattr(asymptotics, "MAX_TRAPEZOID_STEPS", steps - 1)
        with pytest.raises(QuadratureError, match="steps per unit"):
            gaussian_smoothed_entropy(pmf, "0.065", "1e-12", 30)
        assert sampled == []

    def test_sigma_too_small_for_the_grid_tail_is_refused(self):
        # No public call reaches this guard: at such a sigma the closed
        # form's bound fits every tolerance above the truncation floor,
        # and the floor refuses the rest first.
        with working_precision(30):
            peaks = asymptotics._peaks(binomial_pmf(4, "0.3", 30))
            with pytest.raises(QuadratureError) as info:
                asymptotics._trapezoid(peaks, mpf("1e-16"), mpf(1))
        assert str(info.value) == "sigma 1.0e-16 is too small for the trapezoid's grid-truncation bound"

    def test_grid_tail_takes_its_share_of_the_tolerance(self, monkeypatch):
        pmf = binomial_pmf(6, "0.5", 30)
        base_steps, _ = grid_steps(monkeypatch, pmf, "0.25")
        original = asymptotics._truncation_bound
        extra = ORACLE_TOL * mpf("0.45")
        monkeypatch.setattr(
            asymptotics, "_truncation_bound", lambda *args: original(*args) + extra
        )
        steps, result = grid_steps(monkeypatch, pmf, "0.25")
        assert steps > base_steps
        assert extra < result.quadrature_error <= ORACLE_TOL

    @pytest.mark.parametrize("n, p, sigma", [(6, "0.5", "0.25"), (8, "0.3", "0.5"), (12, "0.3", "0.84")])
    def test_real_rooted_strip_polynomial(self, n, p, sigma):
        # Q(v) = sum_k c_k v**k, c_k = w_k exp(-(k - k*)**2 / (2 sigma**2))
        # with k* = n // 2, has only real negative roots below
        # sigma = 1/sqrt(ln 4).
        pmf = binomial_pmf(n, p, 30)
        with mpmath.workdps(60):
            sig, mid = mpf(sigma), n // 2
            coeffs = [w * mpmath.exp(-((k - mid) ** 2) / (2 * sig * sig)) for k, w in pmf.items()]
            roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
            assert len(roots) == n
            for r in roots:
                assert abs(mpmath.im(r)) <= mpf("1e-40") * abs(r)
                assert mpmath.re(r) < 0

    @pytest.mark.parametrize(
        "n, p, sigma",
        [
            (6, "0.5", "0.25"), (8, "0.3", "0.5"), (12, "0.3", "0.84"),
            pytest.param("skewed", None, "0.7", id="skewed-0.7"),
            pytest.param("gapped", None, "0.3", id="gapped-0.3"),
        ],
    )
    def test_real_rooted_strip_bounds_f(self, n, p, sigma):
        # On the strip's edge |f(x + ia)| >= e**-loss e**(a**2/2 sigma**2) f(x),
        # and ln f, followed up from the axis, turns by at most
        # (a / sigma**2) |x - lo| + turn.  The skewed pmf (rho = 2/3) takes
        # this strip below sigma = 1/sqrt(ln 6); the gapped one takes the
        # lag strip, where the same holds with the largest peak a_k*(x) in
        # place of f(x) and k* in place of lo.
        pmf = binomial_pmf(n, p, 30) if p else STRIP_PMFS[n]()
        weights = run_weights(pmf)
        span, real_rooted = len(weights) - 1, n != "gapped"
        lo = next(k for k, w in pmf.items() if w > 0)
        with working_precision(30):
            sig = mpf(sigma)
            a, loss, turn = asymptotics._strip(sig, span, asymptotics._concavity(raw(weights)))
            width = 2 * mpmath.pi / 3 if real_rooted else mpmath.pi / (3 * span)
            assert mpmath.almosteq(a, width * sig * sig, 1e-25)
            lift = mpmath.exp(a * a / (2 * sig * sig) - loss)

            def peaks(z):
                return [(k, w * mpmath.exp(-((z - k) ** 2) / (2 * sig * sig))) for k, w in pmf.items() if w > 0]

            def f(z):
                return mpmath.fsum(t for _, t in peaks(z))

            for i in range(20 * (lo - 1), 20 * (lo + span + 1) + 1):
                x = mpf(i) / 20
                top, largest = max(peaks(x), key=lambda peak: peak[1])
                centre, floor = (lo, f(x)) if real_rooted else (top, largest)
                assert abs(f(x + 1j * a)) >= lift * floor
                if i % 10 == 0:
                    phase, last = mpf(0), f(x)
                    for j in range(1, 201):
                        value = f(x + 1j * a * j / 200)
                        phase += mpmath.arg(value / last)
                        last = value
                    assert abs(phase) <= a / (sig * sig) * abs(x - centre) + turn

    @pytest.mark.parametrize(
        "name, sigma",
        [("binomial", "0.8493219"), ("binomial", "1"), ("binomial", "2"), ("skewed", "0.8"), ("gapped", "0.3")],
        ids=["0.8493219", "1", "2", "skewed-0.8", "gapped-0.3"],
    )
    def test_strip_keeps_f_off_zero(self, name, sigma):
        # The lag strip: above sigma = 1/sqrt(ln 4) for B(8, 0.3), above
        # 1/sqrt(ln 6) for the skewed pmf (rho = 2/3) and at any sigma with
        # an interior zero.  The terms of S turned more than pi/3 weigh at
        # most a quarter of the largest, so Re S >= (3/4) a_k* on both
        # edges of the strip, over the region.
        pmf = binomial_pmf(8, "0.3", 30) if name == "binomial" else STRIP_PMFS[name]()
        weights = run_weights(pmf)
        span = len(weights) - 1
        with working_precision(30):
            sig = mpf(sigma)
            a, loss, turn = asymptotics._strip(sig, span, asymptotics._concavity(raw(weights)))
            assert (loss, turn) == (mpmath.ln(mpf(4) / 3), mpmath.pi / 2)
            near = mpmath.pi / 3 * (1 + mpf("1e-20"))
            for i in range(-40, 20 * span + 41):
                x = mpf(i) / 20
                terms = [w * mpmath.exp(-((x - k) ** 2) / (2 * sig * sig)) for k, w in enumerate(weights)]
                top = max(range(len(terms)), key=terms.__getitem__)
                far = mpmath.fsum(t for k, t in enumerate(terms) if a * abs(k - top) / (sig * sig) > near)
                assert far <= terms[top] / 4
                for y in (a, -a):
                    s = mpmath.fsum(
                        t * mpmath.expj(y * (k - top) / (sig * sig)) for k, t in enumerate(terms)
                    )
                    assert s.real >= terms[top] * mpf("0.75")

    @pytest.mark.parametrize(
        "n, p, sigma", [(64, "0.3", "0.25"), (40, "0.5", "1"), (60, "0.02", "2")]
    )
    def test_reach_leaves_out_a_negligible_share(self, n, p, sigma):
        # Peaks beyond the reach weigh below 2**-(prec+16) of f everywhere in
        # the region.  Without the slope term the sigma = 1 and 2 rows fail;
        # with a reach 20% short, the sigma = 1/4 row does.
        pmf = binomial_pmf(n, p, 30)
        with working_precision(30):
            prec, sig = mpmath.mp.prec, mpf(sigma)
            near = max(8 * sig + mpf(1) / 8, mpf(1) / 2)
            far = asymptotics._reach(raw(pmf.weights), sig, near, prec)
        with mpmath.workdps(60):
            for i in range(int(-4 * near), 4 * (n + int(near)) + 1):
                x = mpf(i) / 4
                if not -near <= x <= n + near:
                    continue
                terms = [(abs(x - k), w * mpmath.exp(-((x - k) ** 2) / (2 * sig * sig)))
                         for k, w in pmf.items()]
                left_out = mpmath.fsum(t for d, t in terms if d > far)
                assert left_out <= mpmath.ldexp(mpmath.fsum(t for _, t in terms), -(prec + 16))

    def test_strip_half_width(self, dps50):
        pi, ln2, one = mpmath.pi, mpmath.ln(2), mpf(1)
        real_rooted = {"0.25": pi / 24, "0.5": pi / 6, "0.8493218": 2 * pi / 3 * mpf("0.8493218") ** 2}
        for sigma, a in real_rooted.items():
            assert mpmath.almosteq(asymptotics._strip(mpf(sigma), 64, one)[0], a, 1e-45)
            assert asymptotics._strip(mpf(sigma), 64, one)[1:] == (64 * ln2, 64 * 2 * pi / 3)
        # Just above sigma = 1/sqrt(ln 4) = 0.84932180..., the lag strip.
        lag = {("0.8493219", 64): pi * mpf("0.8493219") ** 2 / 6, ("1", 64): pi / 6, ("10", 3): pi * 100 / 9}
        for (sigma, span), a in lag.items():
            assert mpmath.almosteq(asymptotics._strip(mpf(sigma), span, one)[0], a, 1e-45)
            assert asymptotics._strip(mpf(sigma), span, one)[1:] == (mpmath.ln(mpf(4) / 3), pi / 2)
        # The rho gate: with rho = 2/3 the real-rooted strip ends at
        # sigma = 1/sqrt(ln 6) = 0.74706...; past it, and at any sigma for
        # rho = 0, the lag strip with D = span.
        rho = mpf(2) / 3
        gated = {
            ("0.747", 3, rho): 2 * pi / 3 * mpf("0.747") ** 2,
            ("0.7471", 3, rho): pi * mpf("0.7471") ** 2 / 9,
            ("0.3", 2, mpf(0)): pi * mpf("0.09") / 6,
            ("0.05", 2, mpf(0)): pi * mpf("0.0025") / 6,
        }
        for (sigma, span, r), a in gated.items():
            assert mpmath.almosteq(asymptotics._strip(mpf(sigma), span, r)[0], a, 1e-45)

    def test_log_concavity_gate_is_exact(self, monkeypatch):
        with working_precision(30):
            flat = [mpf(1) / 4] * 4
            assert asymptotics._concavity(raw(flat)) == 1
            assert 0 < asymptotics._concavity(raw(nudged_flat())) < 1
            assert asymptotics._concavity(raw(binomial_pmf(64, "0.3", 30).weights)) == 1
            assert asymptotics._concavity(raw(binomial_pmf(200, "0.01", 30).weights)) == 1
            skewed = asymptotics._concavity(raw(run_weights(STRIP_PMFS["skewed"]())))
            assert mpmath.almosteq(skewed, mpf(2) / 3, 1e-25)
            assert asymptotics._concavity(raw(run_weights(STRIP_PMFS["gapped"]()))) == 0
        pmfs = [IntegerPmf(0, tuple(flat), 30), *(make() for make in STRIP_PMFS.values()),
                IntegerPmf.from_weights(["0.5", "0", "0.5"], precision=30)]
        for pmf in pmfs:
            assert route_taken(monkeypatch, pmf, "0.25", ORACLE_TOL)[0] == "trapezoid"


BIT_PS = ["0.05", "0.3", "0.5", "43/60"]
BIT_SIGMAS = ["0.25", "0.5", "0.8", "0.85", "1", "2"]


def bit_mismatches(pmf, sigma, tol, digits):
    """Rows where the package and the mpf oracle differ in a bit or a route."""
    with pytest.MonkeyPatch.context() as patch:
        taken = spy_routes(patch)
        result = gaussian_smoothed_entropy(pmf, sigma, tol, digits)
    route, reference = reference_smoothed_entropy(pmf, sigma, tol, digits)
    ours = (taken[-1] if taken else "closed", result.h_value._mpf_, result.quadrature_error._mpf_)
    theirs = (route, reference.h_value._mpf_, reference.quadrature_error._mpf_)
    return [] if ours == theirs else [(sigma, tol, digits, ours, theirs)]


class TestTrapezoidBits:
    """``gaussian_smoothed_entropy`` against its mpf oracle, bit for bit.

    The oracle (``quadrature_oracle.reference_smoothed_entropy``) builds
    the Gaussian table with mpf products and takes one ``_convolve_runs``
    per grid offset; the package cuts the whole table into runs once and
    takes packed shift-and-add products.  Every ``h_value`` and
    ``quadrature_error`` must match by ``==`` on raw tuples.
    """

    @pytest.mark.parametrize("digits", [20, 30, 50])
    @pytest.mark.parametrize("n", [1, 3, 6, 8, 64, 200])
    def test_binomial_grid(self, n, digits):
        bad = []
        for p in BIT_PS:
            pmf = binomial_pmf(n, p, digits)
            for sigma in BIT_SIGMAS:
                bad += [(p, *row) for row in bit_mismatches(pmf, sigma, "1e-9", digits)]
        assert bad == []

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_long_rows(self, digits):
        bad = []
        for p in BIT_PS:
            bad += bit_mismatches(binomial_pmf(1000, p, digits), "0.5", "1e-9", digits)
        assert bad == []

    @pytest.mark.parametrize("sigma", BIT_SIGMAS)
    def test_weights_in_several_runs(self, sigma):
        # At 50 digits the weights of B(1000, 0.3) span more than 2 prec
        # bits of exponent.
        pmf = binomial_pmf(1000, "0.3", 50)
        with working_precision(50):
            prec = mpmath.mp.prec
        assert len(_runs([w._mpf_ for w in pmf.weights], 2 * prec)) > 1
        assert bit_mismatches(pmf, sigma, "1e-9", 50) == []

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_fine_grid(self, digits):
        # sigma = 0.065 at tol 1e-12: M = 565 at 30 digits.
        assert bit_mismatches(binomial_pmf(3, "0.3", digits), "0.065", "1e-12", digits) == []

    @pytest.mark.parametrize("digits", [20, 30, 50])
    @pytest.mark.parametrize("name", sorted(STRIP_PMFS))
    def test_runs_that_are_not_log_concave(self, name, digits):
        pmf, bad = STRIP_PMFS[name](), []
        for sigma in ["0.25", "0.3", "0.7", "0.8", "1"]:
            bad += bit_mismatches(pmf, sigma, "1e-12", digits)
        assert bad == []

    @pytest.mark.parametrize(
        "sigma, steps, reach, digits",
        [("0.25", 31, 131, 30), ("0.5", 9, 91, 30), ("0.065", 565, 1900, 20), ("2", 3, 120, 50)],
    )
    def test_gaussian_table(self, sigma, steps, reach, digits):
        # The integer recurrence rounds as mpf products at the guard
        # precision do.
        with working_precision(digits):
            sig, prec = mpf(sigma), mpmath.mp.prec
            table = asymptotics._gaussian_table(sig, steps, reach, prec)
            z2 = int(mpmath.ceil(mpf(reach) ** 2 / (2 * (sig * steps) ** 2)))
            guard = (10 + 10 * z2 + 6 * reach * reach).bit_length() + 20
            expected = []
            with mpmath.workprec(prec + guard):
                ratio_step = mpmath.exp(-1 / (2 * (sig * steps) ** 2))
                ratio_square = ratio_step * ratio_step
                value, ratio = 1 / (sig * mpmath.sqrt(2 * mpmath.pi)), ratio_step
                for _ in range(reach + 1):
                    expected.append(value)
                    value, ratio = value * ratio, ratio * ratio_square
            assert table == [(+g)._mpf_ for g in expected]

    def test_nearest_rounds_ties_to_even(self):
        cases = [(0b1011, 2), (0b1001, 2), (0b1101, 3), (0b1100, 3), (0b1111, 2), (7, 5)]
        rng = random.Random(23)
        cases += [(rng.getrandbits(rng.randrange(1, 300)) | 1, rng.randrange(1, 200)) for _ in range(500)]
        # exact ties: the bits below the kept ones are 100...0
        for _ in range(200):
            bits, cut = rng.randrange(1, 120), rng.randrange(1, 60)
            kept = rng.getrandbits(bits) | 1 << (bits - 1)
            cases.append(((kept << cut) | 1 << (cut - 1), bits))
        for man, bits in cases:
            got = asymptotics._nearest(man, -7, bits)
            _, m, e, _ = from_man_exp(man, -7, bits, "n")
            assert got[0] << max(got[1] - e, 0) == m << max(e - got[1], 0)

