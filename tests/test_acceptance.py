"""Acceptance suite: one test per shipped claim, each printing PASS/FAIL.

Every test times itself against the stated runtime budget and checks the
numbers at the stated tolerances.  The suite is deterministic: the only
randomness is a fixed-seed generator in the discrimination identity test.
"""

import random
import time
from fractions import Fraction

from mpmath import mpf

from discrete_epi.asymptotics import knessl_profile, tulino_verdu_compare
from discrete_epi.discrimination import cap_discrimination, cap_via_series
from discrete_epi.dist_core import (
    IntegerPmf,
    binomial_entropy_chain,
    binomial_pmf,
    convolve,
)
from discrete_epi.epi_engine import (
    empirical_threshold,
    epi_gap,
    epi_grid_check,
    semi_asymptotic_condition,
    sufficient_step_check,
)
from discrete_epi.moments_bounds import (
    bernoulli_cumulants,
    central_moment_brute,
    central_moment_closed,
    cumulative_gamma_bound,
    faa_di_bruno_poly,
    gamma_l,
    harmonic_lower_bound,
)
from discrete_epi.polycert import build_g, certify
from discrete_epi.precision import eps_for, working_precision

from conftest import G_EXPECTED

P_GRID_9 = [f"0.{d}" for d in range(1, 10)]


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_01_gap_sweep():
    started = time.monotonic()
    with working_precision(50):
        lo, hi, steps = mpf("0.01"), mpf("0.99"), 197
        step = (hi - lo) / (steps - 1)
        grid = [lo + i * step for i in range(steps)]
        gaps = [epi_gap(1, 2, p).gap for p in grid]
        center = gaps[98]          # p = 0.5
        left, right = gaps[8], gaps[188]   # p = 0.05 and 0.95
        signs = [1 if g > 0 else -1 for g in gaps if g != 0]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    elapsed = time.monotonic() - started
    ok = (
        abs(center - mpf("0.3167")) < mpf("1e-3")
        and left < 0
        and right < 0
        and changes == 2
        and elapsed < 5
    )
    report(1, ok, f"gap(0.5)={float(center):.6f}, sign changes={changes}, "
                  f"{elapsed:.1f}s (budget 5s)")


def test_criterion_02_threshold_at_half():
    started = time.monotonic()
    threshold = empirical_threshold("0.5", cap=2000)
    all_from_seven = (
        threshold.empirical_n0 is not None and threshold.empirical_n0 <= 7
    )
    spot = all(sufficient_step_check(n, "0.5").holds for n in (7, 8, 50, 300))
    cells = epi_grid_check(6, 6, "0.5")
    grid_ok = all(rep.holds for rep in cells.values())
    elapsed = time.monotonic() - started
    ok = (
        threshold.formula_a == 7
        and threshold.formula_b == 7
        and all_from_seven
        and spot
        and grid_ok
        and elapsed < 120
    )
    report(2, ok, f"formulas=({threshold.formula_a},{threshold.formula_b}), "
                  f"empirical n0={threshold.empirical_n0}, 6x6 grid holds={grid_ok}, "
                  f"{elapsed:.1f}s (budget 120s)")


def test_criterion_03_single_pair_deficit():
    started = time.monotonic()
    with working_precision(50):
        off_center = [Fraction(2 * i + 1, 196) for i in range(97)]
        assert all(p != Fraction(1, 2) for p in off_center)
        negatives = sum(
            1 for p in off_center
            if epi_gap(1, 1, mpf(p.numerator) / p.denominator).gap < 0
        )
        center = abs(epi_gap(1, 1, "0.5").gap)
    elapsed = time.monotonic() - started
    ok = negatives == 97 and center < mpf("1e-30") and elapsed < 10
    report(3, ok, f"negative at {negatives}/97 points, |gap(0.5)|={float(center):.1e}, "
                  f"{elapsed:.1f}s (budget 10s)")


def test_criterion_04_series_identity():
    started = time.monotonic()
    rng = random.Random(20260817)
    worst = mpf(0)
    with working_precision(50):
        for _ in range(200):
            size = rng.randint(2, 64)
            raw_p = [rng.randint(1, 1000) + 200 for _ in range(size)]
            raw_q = [rng.randint(1, 1000) + 200 for _ in range(size)]
            P = IntegerPmf.from_weights(
                [Fraction(w, sum(raw_p)) for w in raw_p]
            )
            Q = IntegerPmf.from_weights(
                [Fraction(w, sum(raw_q)) for w in raw_q]
            )
            weight = mpf(rng.randint(5, 95)) / 100
            direct = cap_discrimination(P, Q, weight)
            series = cap_via_series(P, Q, weight, tol="1e-14")
            gap = abs(series.partial_sum - direct)
            if gap > worst:
                worst = gap
    elapsed = time.monotonic() - started
    ok = worst <= mpf("1e-12") and elapsed < 60
    report(4, ok, f"worst |series-direct|={float(worst):.2e} over 200 pairs, "
                  f"{elapsed:.1f}s (budget 60s)")


def test_criterion_05_positivity_certificates():
    started = time.monotonic()
    g = build_g()
    exact_match = g.coeffs == G_EXPECTED
    production = all(
        certify(sub).all_nonneg for sub in ("A", "Aprime", "B", "C")
    )
    control = not certify("control").all_nonneg
    sixth_row = {
        j: c for (i, j), c in certify("A").polynomial.coeffs.items() if i == 6
    }
    row_exact = sixth_row == {
        2: Fraction(5614, 5), 1: Fraction(2030), 0: Fraction(70),
    }
    elapsed = time.monotonic() - started
    ok = exact_match and production and control and row_exact and elapsed < 30
    report(5, ok, f"g exact={exact_match}, certificates nonneg={production}, "
                  f"control fails={control}, m^6 row exact={row_exact}, "
                  f"{elapsed:.1f}s (budget 30s)")


def test_criterion_06_moment_closed_forms():
    started = time.monotonic()
    worst_closed = mpf(0)
    worst_fdb = mpf(0)
    with working_precision(50):
        for p in P_GRID_9:
            bern = binomial_pmf(1, p)
            pmf = bern
            for n in range(1, 201):
                if n > 1:
                    pmf = convolve(pmf, bern)
                for k in range(8):
                    gap = abs(
                        central_moment_brute(pmf, k) - central_moment_closed(n, p, k)
                    )
                    if gap > worst_closed:
                        worst_closed = gap
        for p in P_GRID_9:
            kappa = bernoulli_cumulants(p, 8)
            polys = {k: faa_di_bruno_poly(k, kappa) for k in range(2, 9)}
            bern = binomial_pmf(1, p)
            pmf = bern
            for j in range(1, 65):
                if j > 1:
                    pmf = convolve(pmf, bern)
                for k in range(2, 9):
                    gap = abs(polys[k].evaluate(j) - central_moment_brute(pmf, k))
                    if gap > worst_fdb:
                        worst_fdb = gap
    elapsed = time.monotonic() - started
    ok = worst_closed <= mpf("1e-35") and worst_fdb <= mpf("1e-35") and elapsed < 60
    report(6, ok, f"closed vs brute {float(worst_closed):.1e}, "
                  f"moment polynomials {float(worst_fdb):.1e}, "
                  f"{elapsed:.1f}s (budget 60s)")


def test_criterion_07_entropy_lower_bounds():
    started = time.monotonic()
    gamma_violations = 0
    harmonic_violations = 0
    with working_precision(50):
        eps = eps_for(50)
        for p in P_GRID_9:
            chain = binomial_entropy_chain(p, 500)
            for depth in (1, 2, 3):
                acc = mpf(0)
                for j in range(1, 501):
                    acc += gamma_l(j, p, depth)
                    if acc > chain[j] + eps:
                        gamma_violations += 1
                # The running sum IS the cumulative bound; tie the loop
                # back to the public entry point at the horizon.
                assert abs(acc - cumulative_gamma_bound(500, p, depth)) < mpf("1e-40")
        chain_half = binomial_entropy_chain("0.5", 500)
        for n in range(4, 501):
            if harmonic_lower_bound(n, "0.5", 2) > chain_half[n] + eps:
                harmonic_violations += 1
        low_n = [
            n for n in (1, 2, 3)
            if harmonic_lower_bound(n, "0.5", 2) > chain_half[n] + eps
        ]
    elapsed = time.monotonic() - started
    ok = (
        gamma_violations == 0
        and harmonic_violations == 0
        and low_n == [1, 2, 3]
        and elapsed < 60
    )
    report(7, ok, f"telescoped bound violations={gamma_violations}, "
                  f"harmonic violations (n>=4)={harmonic_violations}, "
                  f"documented small-n region={low_n}, {elapsed:.1f}s (budget 60s)")


def test_criterion_08_lattice_correction_constants():
    started = time.monotonic()
    with working_precision(50):
        symmetric = knessl_profile(binomial_pmf(1, "0.5"), [4096])
        value_sym = 4096**2 * symmetric.g_values[4096]
        target_sym = -mpf(1) / 12
        rel_sym = abs(value_sym - target_sym) / abs(target_sym)
        skewed = knessl_profile(binomial_pmf(1, "0.3"), [4096])
        kappa3 = skewed.kappa.kappa(3)
        sigma2 = skewed.sigma2
        value_skew = 4096 * skewed.g_values[4096]
        target_skew = -(kappa3**2) / (12 * sigma2**3)
        rel_skew = abs(value_skew - target_skew) / abs(target_skew)
    elapsed = time.monotonic() - started
    ok = rel_sym < mpf("0.05") and rel_skew < mpf("0.05") and elapsed < 120
    report(8, ok, f"n^2 g -> -1/12 within {float(rel_sym):.2%}, "
                  f"n g -> cumulant limit within {float(rel_skew):.2%}, "
                  f"{elapsed:.1f}s (budget 120s)")


def test_criterion_09_smoothed_increment_rate():
    started = time.monotonic()
    rows = tulino_verdu_compare(
        "0.5", "1e-3", range(8, 65), tol="1e-9", precision=30
    )
    slack = mpf("1e-4")
    failures = [r.n for r in rows if not r.increment >= r.full_log - slack]
    elapsed = time.monotonic() - started
    ok = len(rows) == 57 and not failures and elapsed < 300
    report(9, ok, f"{len(rows)} increments all >= ln(n/(n-1)) - 1e-4 "
                  f"(failures={failures}), {elapsed:.1f}s (budget 300s)")


def test_criterion_10_semi_asymptotic_condition():
    started = time.monotonic()
    skewed = semi_asymptotic_condition(1, "0.01")
    symmetric = semi_asymptotic_condition(1, "0.5")
    elapsed = time.monotonic() - started
    ok = (not skewed.holds) and symmetric.holds and elapsed < 1
    report(10, ok, f"(1, 0.01) holds={skewed.holds}, (1, 0.5) holds={symmetric.holds}, "
                   f"{elapsed:.2f}s (budget 1s)")
