"""Exact-rational polynomial engine and positivity-certificate tests."""

from fractions import Fraction

import pytest
from mpmath import mpf

from discrete_epi import cli, polycert
from discrete_epi.dist_core import binomial_pmf
from discrete_epi.errors import ConsistencyError
from discrete_epi.moments_bounds import central_moment_brute, taylor_coeff
from discrete_epi.polycert import (
    CERT_SUBSTITUTIONS,
    BivarPoly,
    build_g,
    certify,
    quadratic_shift_expand,
    rational_substitute_t,
    shift_expand,
)

from conftest import G_EXPECTED, exact_central_moment, exact_taylor_coeff, skew_parameter

NT = ("n", "t")

# Rounded rows of the linear-substitution expansion, as published; each
# entry is (t-degree, printed value, scale).  agreement is checked to one
# unit in the last printed decimal, which covers rounding and truncation.
A_ROUNDED_ROWS = {
    7: [(1, "35", 1)],
    6: [(2, "1122.8", 1), (1, "2030", 1), (0, "70", 1)],
    5: [(3, "14700.90", 1), (2, "52210.20", 1), (1, "48120.80", 1), (0, "2625", 1)],
    4: [(4, "1.01", 10**5), (3, "5.32", 10**5), (2, "9.57", 10**5),
        (1, "6.06", 10**5), (0, "0.40", 10**5)],
    3: [(5, "3.85", 10**5), (4, "26.94", 10**5), (3, "72.32", 10**5),
        (2, "88.61", 10**5), (1, "43.61", 10**5), (0, "3.02", 10**5)],
    2: [(6, "7.76", 10**5), (5, "68.23", 10**5), (4, "247.042", 10**5),
        (3, "456.97", 10**5), (2, "433.17", 10**5), (1, "176.77", 10**5),
        (0, "11.80", 10**5)],
    1: [(7, "6.47", 10**5), (6, "70.91", 10**5), (5, "338.88", 10**5),
        (4, "880.98", 10**5), (3, "1297.85", 10**5), (2, "1030.51", 10**5),
        (1, "361.59", 10**5), (0, "20.14", 10**5)],
    0: [(8, "0.15", 10**4), (7, "56.29", 10**4), (6, "709.80", 10**4),
        (5, "3485.03", 10**4), (4, "8728.40", 10**4), (3, "11955.74", 10**4),
        (2, "8613.06", 10**4), (1, "2628.77", 10**4), (0, "64.15", 10**4)],
}


def decimal_places(text: str) -> int:
    return len(text.split(".")[1]) if "." in text else 0


class TestBivarPoly:
    def test_square_expansion(self):
        n_plus_t = BivarPoly.from_terms(NT, {(1, 0): 1, (0, 1): 1})
        sq = n_plus_t * n_plus_t
        assert sq.coeffs == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}
        assert sq == n_plus_t.power(2)

    def test_power_matches_repeated_product(self):
        base = BivarPoly.from_terms(NT, {(1, 1): 2, (0, 0): Fraction(-1, 3)})
        by_products = BivarPoly.constant(NT, 1)
        for _ in range(5):
            by_products = by_products * base
        assert base.power(5) == by_products
        with pytest.raises(ValueError):
            base.power(-1)

    def test_evaluate(self):
        poly = BivarPoly.from_terms(NT, {(2, 1): 3, (0, 0): -7})
        assert poly.evaluate(Fraction(1, 2), 4) == 3 * Fraction(1, 4) * 4 - 7

    def test_compose_first(self):
        poly = BivarPoly.from_terms(NT, {(2, 0): 1, (0, 1): 1})
        repl = BivarPoly.from_terms(("m", "t"), {(1, 0): 1, (0, 0): 3})
        composed = poly.compose_first(repl)
        assert composed.vars == ("m", "t")
        for m in (0, 1, Fraction(5, 2)):
            for t in (0, Fraction(1, 3)):
                assert composed.evaluate(m, t) == (m + 3) ** 2 + t

    def test_variable_mismatch_rejected(self):
        a = BivarPoly.constant(NT, 1)
        b = BivarPoly.constant(("m", "t"), 1)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_zero_handling(self):
        z = BivarPoly.zero(NT)
        assert z.is_zero()
        assert z.degree(0) == -1
        built = BivarPoly.from_terms(NT, {(1, 1): 1}) - BivarPoly.from_terms(NT, {(1, 1): 1})
        assert built.is_zero()
        assert str(z) == "0"

    def test_sorted_terms_ordering(self):
        poly = BivarPoly.from_terms(NT, {(0, 2): 1, (2, 0): 1, (2, 3): 1, (1, 0): 1})
        order = [(i, j) for i, j, _ in poly.sorted_terms()]
        assert order == [(2, 0), (2, 3), (1, 0), (0, 2)]


class TestSlackExpression:
    # The slack is f(n, t) = g(n, t) / (420 n**3 (n+1)**6).

    def test_known_exact_value(self):
        assert build_g().evaluate(7, 0) / (420 * 7**3 * 8**6) == Fraction(179, 10536960)

    def test_numeric_route_agrees(self, dps50):
        # Independent numeric route: Taylor coefficients times central
        # moments summed over the n+1 trial pmf, minus the half-log tail.
        p, n = "0.3", 9
        pmf = binomial_pmf(n + 1, p)
        total = mpf(0)
        for k in range(2, 8):
            total += taylor_coeff(k, p) * central_moment_brute(pmf, k) / mpf(n + 1) ** k
        nn = mpf(n)
        total -= 1 / (2 * nn) - 1 / (4 * nn**2) + 1 / (6 * nn**3)
        t = skew_parameter(Fraction(3, 10))
        exact = build_g().evaluate(n, t) / (420 * n**3 * (n + 1) ** 6)
        assert abs(total - mpf(exact.numerator) / exact.denominator) < mpf("1e-40")


class TestBuildG:
    def test_matches_frozen_coefficients(self):
        assert build_g().coeffs == G_EXPECTED

    def test_sign_change_between_six_and_seven(self):
        g = build_g()
        assert g.evaluate(7, 0) == 641536
        assert g.evaluate(6, 0) == -457072

    def test_clearing_identity(self):
        # g against the slack summed from the exact binomial weights and
        # F_k(p), a route that does not read the moment table
        g = build_g()
        for p in (Fraction(3, 10), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10), Fraction(1, 100)):
            t = skew_parameter(p)
            for n in (1, 6, 7, 20):
                j = n + 1
                slack = sum(
                    exact_taylor_coeff(k, p) * exact_central_moment(j, p, k) / Fraction(j) ** k
                    for k in range(2, 8)
                ) - (Fraction(1, 2 * n) - Fraction(1, 4 * n**2) + Fraction(1, 6 * n**3))
                assert g.evaluate(n, t) == 420 * n**3 * j**6 * slack, (p, n)


class TestConsistencyChecks:
    """build_g refuses a moment table that cannot give a polynomial g."""

    @pytest.fixture
    def patch_rows(self, monkeypatch):
        real = polycert._moment_poly

        def patch(edit):
            def rows(k):
                out = [list(row) for row in real(k)]
                edit(k, out)
                return tuple(tuple(row) for row in out)

            monkeypatch.setattr(polycert, "_moment_poly", rows)

        build_g.cache_clear()
        yield patch
        monkeypatch.undo()
        build_g.cache_clear()

    @staticmethod
    def odd_r_power(k, rows):
        if k == 2:
            rows[1][1] += 1

    def test_odd_power_of_r_refused(self, patch_rows):
        patch_rows(self.odd_r_power)
        with pytest.raises(ConsistencyError, match="odd power of r"):
            build_g()

    def test_constant_moment_row_refused(self, patch_rows):
        def constant_row(k, rows):
            if k == 7:
                rows[0][0] = Fraction(1)

        patch_rows(constant_row)
        with pytest.raises(ConsistencyError, match=r"n\*\*0"):
            build_g()

    def test_degree_in_u_above_six_refused(self, patch_rows):
        def even_r_power(k, rows):
            if k == 2:
                rows[1] += [Fraction(0)] * (14 - len(rows[1])) + [Fraction(1)]

        patch_rows(even_r_power)
        with pytest.raises(ConsistencyError, match="> 6 in u"):
            build_g()

    def test_certify_command_exits_4(self, patch_rows, capsys):
        patch_rows(self.odd_r_power)
        assert cli.main(["certify", "--sub", "A"]) == 4
        assert capsys.readouterr().out == ""


class TestSubstitutions:
    def test_identity_shift(self):
        shifted = shift_expand(build_g(), 0, 0)
        assert shifted.vars == ("m", "t")
        assert shifted.coeffs == build_g().coeffs

    def test_linear_shift_evaluates_consistently(self):
        g = build_g()
        slope, intercept = Fraction(111, 25), 7
        shifted = shift_expand(g, slope, intercept)
        for m, t in ((0, 0), (Fraction(1, 2), 3), (2, Fraction(5, 7))):
            assert shifted.evaluate(m, t) == g.evaluate(slope * t + intercept + m, t)

    def test_quadratic_shift_evaluates_consistently(self):
        g = build_g()
        quad, slope, intercept = 1, Fraction(117, 50), 7
        shifted = quadratic_shift_expand(g, quad, slope, intercept)
        for m, t in ((0, 1), (Fraction(3, 2), Fraction(2, 3))):
            n = quad * t**2 + slope * t + intercept + m
            assert shifted.evaluate(m, t) == g.evaluate(n, t)

    def test_rational_substitution_clears_denominator(self):
        g = build_g()
        cleared = rational_substitute_t()
        top = shift_expand(g, 0, 7).degree(1)
        assert top == 5
        for m, t in ((0, 1), (1, Fraction(1, 3)), (Fraction(2, 5), 4)):
            image = Fraction(t) / (4 * (1 + Fraction(t)))
            expected = g.evaluate(7 + Fraction(m), image) * 4**top * (1 + Fraction(t)) ** top
            assert cleared.evaluate(m, t) == expected


class TestCertificates:
    def test_production_substitutions_all_nonnegative(self):
        for sub_id in ("A", "Aprime", "B", "C"):
            report = certify(sub_id)
            assert report.all_nonneg, sub_id
            assert report.min_coefficient > 0

    def test_margin_locations(self):
        assert certify("A").min_coefficient == 35
        assert certify("Aprime").min_coefficient == 35
        assert certify("B").min_coefficient == 35
        assert certify("C").min_coefficient == 8960

    def test_control_substitution_fails(self):
        report = certify("control")
        assert not report.all_nonneg
        assert report.min_coefficient == -163154

    def test_sixth_power_row_exact(self):
        poly = certify("A").polynomial
        row = {j: c for (i, j), c in poly.coeffs.items() if i == 6}
        assert row == {2: Fraction(5614, 5), 1: Fraction(2030), 0: Fraction(70)}

    def test_rounded_rows_match_published_display(self):
        poly = certify("A").polynomial
        degrees = {i for i, _ in poly.coeffs}
        assert degrees == set(A_ROUNDED_ROWS)
        for m_deg, entries in A_ROUNDED_ROWS.items():
            row = {j: c for (i, j), c in poly.coeffs.items() if i == m_deg}
            assert set(row) == {j for j, _, _ in entries}
            for t_deg, printed, scale in entries:
                actual = row[t_deg] / scale
                ulp = Fraction(1, 10 ** decimal_places(printed))
                assert abs(actual - Fraction(printed)) <= ulp, (m_deg, t_deg)

    def test_json_payload(self):
        payload = certify("A").to_json_dict()
        assert set(payload) == {
            "substitution", "coefficients", "min_coefficient", "all_nonneg",
        }
        assert payload["substitution"] == "A"
        assert payload["all_nonneg"] is True
        assert payload["min_coefficient"] == "35/1"
        assert payload["coefficients"][0] == [7, 1, "35/1"]
        keys = [(i, j) for i, j, _ in payload["coefficients"]]
        assert keys == sorted(keys, key=lambda e: (-e[0], e[1]))

    def test_unknown_substitution_rejected(self):
        with pytest.raises(ValueError):
            certify("Z")
        assert set(CERT_SUBSTITUTIONS) == {"A", "Aprime", "B", "C", "control"}
