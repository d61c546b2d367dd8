"""Seeded workloads: lists of verification items, each checked.

A workload is built from a seed into a fixed list of items (one pass).
Every item calls into the package and then checks what came back:

* discrete outcomes (thresholds, crossings, flags, sign counts,
  certificate coefficients) must match exactly;
* real values must lie within ``eps_for(P)`` (scaled by the size of the
  reference) of a reference from an independent route -- exact rational
  weights, closed forms, or a second public function of the package;
* quadrature values, which carry their own error bound, must lie within
  that bound of their reference.

Package functions are always looked up on their module at call time, so
the traced run sees the wrapped versions.  Only the seed varies between
runs; every size below is fixed, so the work in one pass does not
depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

import mpmath
from mpmath import mpf

from discrete_epi import (
    asymptotics,
    cli,
    discrimination,
    dist_core,
    epi_engine,
    moments_bounds,
    polycert,
)
from discrete_epi.precision import eps_for

# The frozen slack polynomial g(n, t) = 420 (n+1)^6 n^3 f(n, t).
G_EXPECTED = {
    (7, 1): 35, (6, 2): 35, (6, 1): 315, (6, 0): 70,
    (5, 3): -721, (5, 2): -3339, (5, 1): -2989, (5, 0): -315,
    (4, 4): -546, (4, 3): -1568, (4, 2): 371, (4, 1): 721, (4, 0): -826,
    (3, 5): -10, (3, 4): -66, (3, 3): -157, (3, 2): -135, (3, 1): -90,
    (3, 0): -826, (2, 0): -630, (1, 0): -315, (0, 0): -70,
}

# Smallest slope s, after 12 bisections of [0, 111/25], for which the
# substitution n = s t + 7 + m leaves every coefficient nonnegative.
# Seed-independent; recorded from the package at the seed.
BISECTION_SLOPE = Fraction(227217, 51200)
BISECTION_STEPS = 12


class CheckFailed(AssertionError):
    """An item's result disagreed with its reference."""


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[["Checker"], None]


@dataclass(frozen=True)
class Workload:
    name: str
    precision: int
    build: Callable[[int], List[Item]]
    tail_q: float    # percentile reported as item_tail_s
    min_items: int   # item samples per run, so >= 10 lie beyond tail_q


class Checker:
    """Comparison helpers shared by the items of one run."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.max_dev_eps = 0.0

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            raise CheckFailed(what)

    def close(self, what: str, actual, ref, precision: int, scale=1, slack=0) -> None:
        """|actual - ref| <= eps_for(P) * max(1, |ref|, scale) + slack."""
        with mpmath.workdps(precision + 10):
            actual, ref = mpf(actual), mpf(ref)
            unit = eps_for(precision) * max(mpf(1), abs(ref), abs(mpf(scale)))
            dev = abs(actual - ref)
            if slack == 0:
                self.max_dev_eps = max(self.max_dev_eps, float(dev / unit))
            if not dev <= unit + mpf(slack):
                raise CheckFailed(
                    f"{what}: {mpmath.nstr(actual, 20)} vs reference "
                    f"{mpmath.nstr(ref, 20)} (off by {mpmath.nstr(dev, 3)})"
                )

    def cli(self, argv: Sequence[str], name: str) -> str:
        """Run the command line in-process; return what it wrote."""
        path = os.path.join(self.out_dir, name)
        code = cli.main(list(argv) + ["--out", path])
        self.expect(code == 0, f"{' '.join(argv)} exited {code}")
        with open(path, encoding="utf-8") as fh:
            return fh.read()


# ---------------------------------------------------------------------------
# Exact references
# ---------------------------------------------------------------------------

def binomial_weights(n: int, p: Fraction) -> List[Fraction]:
    q = 1 - p
    return [math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)]


def exact_entropy(weights: Sequence[Fraction], precision: int) -> mpf:
    with mpmath.workdps(precision + 10):
        ws = [mpf(w.numerator) / w.denominator for w in weights if w > 0]
        return -mpmath.fsum(w * mpmath.ln(w) for w in ws)


def binomial_entropy(n: int, p: Fraction, precision: int) -> mpf:
    return exact_entropy(binomial_weights(n, p), precision)


def exact_formulas(p: Fraction):
    t = (2 * p - 1) ** 2 / (p * (1 - p))
    return (
        math.ceil(polycert.THRESHOLD_SLOPE * t + 7),
        math.ceil(t * t + polycert.QUAD_LINEAR_COEFF * t + 7),
    )


def exact_cumulants(weights: Sequence[Fraction], offset: int, order: int) -> List[Fraction]:
    raw = [sum(w * Fraction(offset + i) ** j for i, w in enumerate(weights)) for j in range(1, order + 1)]
    kappas: List[Fraction] = []
    for n in range(1, order + 1):
        acc = raw[n - 1]
        for j in range(1, n):
            acc -= math.comb(n - 1, j - 1) * kappas[j - 1] * raw[n - j - 1]
        kappas.append(acc)
    return kappas


def g_value(n: Fraction, t: Fraction) -> Fraction:
    return sum((c * n**i * t**j for (i, j), c in G_EXPECTED.items()), Fraction(0))


def certificate_value(sub: str, m: Fraction, t: Fraction) -> Fraction:
    """The certificate polynomial at (m, t), from the frozen g directly."""
    if sub == "C":
        top = max(j for _, j in G_EXPECTED)
        return (4 * (1 + t)) ** top * g_value(7 + m, t / (4 * (1 + t)))
    if sub == "B":
        return g_value(t * t + polycert.QUAD_LINEAR_COEFF * t + 7 + m, t)
    slope, intercept = {
        "A": (polycert.THRESHOLD_SLOPE, 7),
        "Aprime": (polycert.THRESHOLD_SLOPE_REFINED, 7),
        "control": (Fraction(1), 1),
    }[sub]
    return g_value(slope * t + intercept + m, t)


def _mpf_str(text: str, precision: int) -> mpf:
    with mpmath.workdps(precision + 10):
        return mpf(text)


def _mpf_frac(x: Fraction, precision: int) -> mpf:
    with mpmath.workdps(precision + 10):
        return mpf(x.numerator) / x.denominator


def _rational(rng: random.Random, lo: Fraction, hi: Fraction, taken: set) -> Fraction:
    while True:
        den = rng.randint(7, 60)
        num = rng.randint(1, den - 1)
        p = Fraction(num, den)
        if lo <= p <= hi and p != Fraction(1, 2) and p not in taken:
            taken.add(p)
            return p


def _pstr(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


# ---------------------------------------------------------------------------
# binomial-steps: Bernoulli-mixing entropy chains and the verdicts on them
# ---------------------------------------------------------------------------

BIN_P = 50
BIN_PS = 5          # rational p per pass
BIN_CAP = 120       # threshold and crossing scan horizon
BIN_GRID = 6
BIN_SEMI_M = (1, 2, 3, 5, 8, 13)
BIN_STEP_N = 32
BIN_BOUND_N = 48


def _margin_c(n: int, p, precision: int) -> mpf:
    """Step margin at n through the discrimination route."""
    step = discrimination.binomial_step_c(n, p, precision)
    with mpmath.workdps(precision):
        return step - mpmath.ln(mpf(n + 1) / n) / 2


def _sign(x: mpf, precision: int) -> int:
    eps = eps_for(precision)
    return 1 if x > eps else (-1 if x < -eps else 0)


def _check_threshold(ck: Checker, p: Fraction, n0, fa: int, fb: int, P: int) -> None:
    efa, efb = exact_formulas(p)
    ck.expect((fa, fb) == (efa, efb), f"formula thresholds {(fa, fb)} != exact {(efa, efb)} at p={p}")
    ck.expect(n0 is not None and n0 <= min(fa, fb), f"empirical n0={n0} above the closed forms at p={p}")
    if n0 > 1:
        ck.expect(_sign(_margin_c(n0 - 1, p, P), P) < 0, f"step holds at n0-1={n0 - 1}, p={p}")
    for n in (n0, n0 + 1):
        ck.expect(_sign(_margin_c(n, p, P), P) >= 0, f"step fails at n={n} >= n0, p={p}")


def _threshold_item(p: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        rep = epi_engine.empirical_threshold(p, BIN_CAP, BIN_P)
        _check_threshold(ck, p, rep.empirical_n0, rep.formula_a, rep.formula_b, BIN_P)
    return run


def _threshold_cli_item(p: Fraction, tag: str) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        out = json.loads(ck.cli(["threshold", "--p", _pstr(p), "--cap", str(BIN_CAP)], tag + ".json"))
        _check_threshold(ck, p, out["empirical_n0"], out["formula_a"], out["formula_b"], BIN_P)
        if p == Fraction(1, 2):
            ck.expect(out["empirical_n0"] <= 7 and out["formula_a"] == out["formula_b"] == 7,
                      f"threshold at p=1/2: {out}")
            for n in (7, 8, 50):
                ck.expect(epi_engine.sufficient_step_check(n, "0.5", BIN_P).holds,
                          f"step condition fails at n={n}, p=1/2")
    return run


def _crossings_item(p: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        crossings = epi_engine.zero_crossing_scan(p, BIN_CAP, BIN_P)
        for n in crossings:
            before = _sign(_margin_c(n - 1, p, BIN_P), BIN_P)
            after = _sign(_margin_c(n, p, BIN_P), BIN_P)
            ck.expect(before * after == -1, f"no sign change at crossing n={n}, p={p}")
        ck.expect(_sign(_margin_c(BIN_CAP, p, BIN_P), BIN_P) == 1, f"step fails at the cap, p={p}")
    return run


def _grid_check(ck: Checker, p: Fraction, cells: Dict, P: int) -> None:
    with mpmath.workdps(P + 10):
        powers = [mpmath.exp(2 * binomial_entropy(k, p, P)) for k in range(2 * BIN_GRID + 1)]
        refs = {(m, n): powers[m + n] - powers[m] - powers[n] for m, n in cells}
    ck.expect(len(cells) == BIN_GRID * BIN_GRID, "grid size")
    for (m, n), (gap, holds) in cells.items():
        ref = refs[(m, n)]
        ck.close(f"gap({m},{n}) at p={p}", gap, ref, P, scale=powers[m + n])
        ck.expect(holds == bool(ref >= -eps_for(P)), f"holds flag at ({m},{n}), p={p}")


def _grid_item(p: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        cells = epi_engine.epi_grid_check(BIN_GRID, BIN_GRID, p, BIN_P)
        _grid_check(ck, p, {k: (r.gap, r.holds) for k, r in cells.items()}, BIN_P)
    return run


def _grid_cli_item(p: Fraction, tag: str) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        out = json.loads(ck.cli(["grid", "--m", str(BIN_GRID), "--n", str(BIN_GRID), "--p", _pstr(p)], tag + ".json"))
        cells = {(c["m"], c["n"]): (_mpf_str(c["gap"], BIN_P), c["holds"]) for c in out["cells"]}
        _grid_check(ck, p, cells, BIN_P)
        ck.expect(out["all_hold"] == all(h for _, h in cells.values()), "grid all_hold")
    return run


def _semi_item(p: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        for m in BIN_SEMI_M:
            res = epi_engine.semi_asymptotic_condition(m, p, BIN_P)
            lhs = binomial_entropy(m, p, BIN_P)
            with mpmath.workdps(BIN_P + 10):
                rhs = mpmath.ln(2 * mpmath.pi * mpmath.e * m * p.numerator * (p.denominator - p.numerator)
                                / mpf(p.denominator) ** 2) / 2
                holds = bool(lhs <= rhs + eps_for(BIN_P))
            ck.close(f"H[B({m},{p})]", res.lhs, lhs, BIN_P)
            ck.close(f"Gaussian reference m={m}, p={p}", res.rhs, rhs, BIN_P)
            ck.expect(res.holds == holds, f"semi-asymptotic flag m={m}, p={p}")
    return run


def _criterion10_item(ck: Checker) -> None:
    skewed = epi_engine.semi_asymptotic_condition(1, "0.01", BIN_P)
    symmetric = epi_engine.semi_asymptotic_condition(1, "0.5", BIN_P)
    ck.expect(not skewed.holds and symmetric.holds, "criterion 10: (1, 0.01) must fail, (1, 0.5) hold")


def _step_check(ck: Checker, p: Fraction, n: int, step, direct, partial, tail) -> None:
    with mpmath.workdps(BIN_P + 10):
        ref = binomial_entropy(n + 1, p, BIN_P) - binomial_entropy(n, p, BIN_P)
    ck.close(f"binomial_step_c({n}, {p})", step, ref, BIN_P)
    ck.close(f"cap_discrimination at n={n}, p={p}", direct, ref, BIN_P)
    ck.close(f"series at n={n}, p={p}", partial, ref, BIN_P, slack=tail)
    with mpmath.workdps(BIN_P + 10):
        ck.expect(partial <= ref + eps_for(BIN_P), f"series partial sum overshoots at n={n}, p={p}")


def _step_item(p: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        n = BIN_STEP_N
        step = discrimination.binomial_step_c(n, p, BIN_P)
        before = dist_core.binomial_pmf(n, p, BIN_P)
        after = dist_core.shift(before, 1)
        direct = discrimination.cap_discrimination(after, before, p)
        series = discrimination.cap_via_series(after, before, p, "1e-4")
        _step_check(ck, p, n, step, direct, series.partial_sum, series.tail_bound)
    return run


def _step_cli_item(p: Fraction, tag: str) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        out = json.loads(ck.cli(["discrimination", "--n", str(BIN_STEP_N), "--p", _pstr(p)], tag + ".json"))
        val = lambda key: _mpf_str(out[key], BIN_P)  # noqa: E731
        _step_check(ck, p, BIN_STEP_N, val("entropy_step"), val("direct"),
                    val("series_partial"), val("series_tail_bound"))
    return run


def _bounds_item(p: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        N = BIN_BOUND_N
        chain = dist_core.binomial_entropy_chain(p, N, BIN_P)
        ck.close(f"chain H[B({N},{p})]", chain[N], binomial_entropy(N, p, BIN_P), BIN_P)
        eps = eps_for(BIN_P)
        for depth in (1, 2, 3):
            with mpmath.workdps(BIN_P):
                acc = mpf(0)
                for j in range(1, N + 1):
                    acc += moments_bounds.gamma_l(j, p, depth, BIN_P)
                    ck.expect(acc <= chain[j] + eps, f"telescoped bound above H at n={j}, l={depth}, p={p}")
            ck.close(f"cumulative bound l={depth}, p={p}",
                     moments_bounds.cumulative_gamma_bound(N, p, depth, BIN_P), acc, BIN_P)
    return run


def _bound_cli_item(p: Fraction, tag: str) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        out = json.loads(ck.cli(["bound", "--p", _pstr(p), "--n", str(BIN_BOUND_N), "--l", "2"], tag + ".json"))
        exact = binomial_entropy(BIN_BOUND_N, p, BIN_P)
        ck.close(f"bound entropy at p={p}", _mpf_str(out["entropy"], BIN_P), exact, BIN_P)
        ck.expect(out["cumulative_holds"] and _mpf_str(out["cumulative_bound"], BIN_P) <= exact,
                  f"telescoped bound above H at p={p}")
        ck.expect(out["harmonic_holds"] == bool(_mpf_str(out["harmonic_bound"], BIN_P) <= _mpf_str(out["entropy"], BIN_P)),
                  "harmonic_holds flag")
    return run


def _harmonic_item(ck: Checker) -> None:
    found = moments_bounds.harmonic_bound_violations("0.5", BIN_BOUND_N, 2, BIN_P)
    ck.expect(found == [1, 2, 3], f"harmonic bound violations at p=1/2: {found}")


def _gap_closed_form(m: int, n: int, p: mpf) -> mpf:
    """exp(2H) gap of B(m,p)+B(n,p) from closed-form weights (no mixing)."""
    q = 1 - p

    def h(k: int) -> mpf:
        ws = [math.comb(k, i) * p**i * q ** (k - i) for i in range(k + 1)]
        return -mpmath.fsum(w * mpmath.ln(w) for w in ws)

    return mpmath.exp(2 * h(m + n)) - mpmath.exp(2 * h(m)) - mpmath.exp(2 * h(n))


def _sweep_rows(ck: Checker, text: str, m: int, n: int) -> List:
    rows = list(csv.reader(text.splitlines()))
    ck.expect(rows[0] == ["p", "gap"], "sweep header")
    out = []
    for p_text, gap_text in rows[1:]:
        p = _mpf_str(p_text, BIN_P)
        gap = _mpf_str(gap_text, BIN_P)
        with mpmath.workdps(BIN_P + 10):
            ref = _gap_closed_form(m, n, p)
        ck.close(f"sweep gap({m},{n}) at p={p_text}", gap, ref, BIN_P, scale=(m + n + 1) ** 2)
        out.append((p, gap))
    return out


def _gap_cli_item(p: Fraction, m: int, n: int) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        out = json.loads(ck.cli(["gap", "--m", str(m), "--n", str(n), "--p", _pstr(p)], "gap.json"))
        with mpmath.workdps(BIN_P + 10):
            ref = _gap_closed_form(m, n, _mpf_frac(p, BIN_P))
        ck.close(f"gap({m},{n}) at p={p}", _mpf_str(out["gap"], BIN_P), ref, BIN_P, scale=(m + n + 1) ** 2)
        ck.expect(out["holds"] == bool(ref >= -eps_for(BIN_P)), f"gap flag at p={p}")
    return run


def _fig1_item(ck: Checker) -> None:
    rows = _sweep_rows(ck, ck.cli(["preset", "fig1"], "fig1.csv"), 1, 2)
    gaps = [g for _, g in rows]
    signs = [1 if g > 0 else -1 for g in gaps if g != 0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    ck.expect(len(rows) == 197 and abs(gaps[98] - mpf("0.3167")) < mpf("1e-3")
              and gaps[8] < 0 and gaps[188] < 0 and changes == 2,
              f"criterion 1: gap(0.5)={gaps[98]}, sign changes={changes}")


def _sweep11_item(lo: Fraction, hi: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        text = ck.cli(["sweep", "--m", "1", "--n", "1", "--p-min", _pstr(lo), "--p-max", _pstr(hi),
                       "--steps", "49"], "sweep11.csv")
        rows = _sweep_rows(ck, text, 1, 1)
        ck.expect(len(rows) == 49 and all(g < 0 for _, g in rows), "criterion 3: single-pair gap not negative")
        center = _sweep_rows(ck, ck.cli(["sweep", "--m", "1", "--n", "1", "--p", "0.5"], "sweep11c.csv"), 1, 1)
        ck.expect(abs(center[0][1]) < mpf("1e-30"), "criterion 3: gap at p=1/2 does not vanish")
    return run


def _certify_item(sub: str, points) -> Callable[[Checker], None]:
    argv = ["certify", "--sub", sub] if sub == "control" else ["preset", "certify" + sub]

    def run(ck: Checker) -> None:
        out = json.loads(ck.cli(argv, f"certify{sub}.json"))
        coeffs = {(i, j): Fraction(c) for i, j, c in out["coefficients"]}
        for m, t in points:
            value = sum((c * m**i * t**j for (i, j), c in coeffs.items()), Fraction(0))
            ck.expect(value == certificate_value(sub, m, t), f"certificate {sub} at (m, t)=({m}, {t})")
        ck.expect(Fraction(out["min_coefficient"]) == min(coeffs.values()), f"certificate {sub} min coefficient")
        ck.expect(out["all_nonneg"] == (sub != "control"), f"certificate {sub} verdict {out['all_nonneg']}")
    return run


def _bisection_item(ck: Checker) -> None:
    g = polycert.build_g()
    ck.expect(g.coeffs == {e: Fraction(c) for e, c in G_EXPECTED.items()}, "g(n, t) differs from the frozen table")
    lo, hi = Fraction(0), polycert.THRESHOLD_SLOPE
    for _ in range(BISECTION_STEPS):
        mid = (lo + hi) / 2
        if min(polycert.shift_expand(g, mid, 7).coeffs.values()) >= 0:
            hi = mid
        else:
            lo = mid
    ck.expect(hi == BISECTION_SLOPE, f"bisection slope {hi} != recorded {BISECTION_SLOPE}")


def build_binomial_steps(seed: int) -> List[Item]:
    rng = random.Random(f"binomial-steps:{seed}")
    taken: set = set()
    ps = [_rational(rng, Fraction(3, 20), Fraction(17, 20), taken) for _ in range(BIN_PS)]
    points = [(Fraction(rng.randint(0, 40), rng.randint(1, 9)), Fraction(rng.randint(0, 40), rng.randint(1, 9)))
              for _ in range(3)]
    lo = Fraction(rng.randint(1, 9), 100)
    hi = Fraction(rng.randint(40, 49), 100)
    items: List[Item] = []
    for i, p in enumerate(ps):
        tag = f"p{i}"
        items += [
            Item(f"threshold[{p}]", _threshold_cli_item(p, tag) if i == 0 else _threshold_item(p)),
            Item(f"crossings[{p}]", _crossings_item(p)),
            Item(f"grid[{p}]", _grid_cli_item(p, tag) if i == 1 else _grid_item(p)),
            Item(f"semi[{p}]", _semi_item(p)),
            Item(f"step[{p}]", _step_cli_item(p, tag) if i == 2 else _step_item(p)),
            Item(f"bounds[{p}]", _bound_cli_item(p, tag) if i == 3 else _bounds_item(p)),
        ]
    items += [
        Item("threshold[1/2]", _threshold_cli_item(Fraction(1, 2), "half")),
        Item("fig1", _fig1_item),
        Item("sweep11", _sweep11_item(lo, hi)),
        Item("gap", _gap_cli_item(ps[4], 2, 3)),
        Item("criterion10", _criterion10_item),
        Item("harmonic[1/2]", _harmonic_item),
        Item("bisection", _bisection_item),
    ]
    items += [Item(f"certify{sub}", _certify_item(sub, points)) for sub in ("A", "Aprime", "B", "C", "control")]
    return items


# ---------------------------------------------------------------------------
# lattice-sums: convolution of seeded integer bases and tail-ratio checks
# ---------------------------------------------------------------------------

LAT_P = 50
LAT_SIZES = (2, 3, 4, 5, 6)     # one base of each support size per pass
LAT_SKEWED = (3, 5)             # sizes whose base is strongly skewed
LAT_FAMILY = (8, 16, 32, 64)
LAT_GAP_PAIRS = ((1, 1), (1, 2), (2, 3), (4, 8), (16, 16))
LAT_PAIR_SIZES = (2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64, 64, 48, 32, 16, 8)
# The series needs more terms the further the weight is from 1/2, so the
# weights are fixed per pair (0.05 .. 0.95) and only the pmfs are seeded.
LAT_PAIR_WEIGHTS = tuple(Fraction(5 + 6 * i, 100) for i in range(len(LAT_PAIR_SIZES)))
LAT_CRIT6_N = 40
LAT_KNESSL_N = 256


def _base_weights(rng: random.Random, size: int, skewed: bool) -> List[Fraction]:
    if skewed:
        # the heavy end keeps a fixed share, so the series work is seed-free
        raw = [rng.randint(1, 9) * 1000**k for k in range(size - 1)] + [9 * 1000 ** (size - 1)]
        if rng.random() < 0.5:
            raw.reverse()
    else:
        # balanced within 2:1, so no end of the sum is heavy by chance
        raw = [rng.randint(500, 1000) for _ in range(size)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def _natural_scale(variance: Fraction, k: int):
    return max(1.0, float(variance) ** (k / 2))


def _iid_gap_item(base, m: int, n: int) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        rep = epi_engine.iid_epi_gap(base, m, n)
        with mpmath.workdps(LAT_P + 10):
            powers = {k: mpmath.exp(2 * dist_core.entropy(dist_core.iid_sum_pmf(base, k))) for k in {m, n, m + n}}
            ref = powers[m + n] - powers[m] - powers[n]
        ck.close(f"iid gap ({m},{n})", rep.gap, ref, LAT_P, scale=powers[m + n])
        ck.expect(rep.holds == bool(ref >= -eps_for(LAT_P)), f"iid gap flag ({m},{n})")
    return run


def _knessl_item(base, weights: List[Fraction], offset: int) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        profile = asymptotics.knessl_profile(base, LAT_FAMILY, LAT_P)
        fit = asymptotics.leading_constant_fit(base, LAT_FAMILY, LAT_P)
        kappas = exact_cumulants(weights, offset, 8)
        for g, kappa in enumerate(kappas, start=1):
            ck.close(f"cumulant {g}", profile.kappa.kappa(g), _mpf_frac(kappa, LAT_P), LAT_P)
        top = LAT_FAMILY[-1]
        with mpmath.workdps(LAT_P + 10):
            sigma2 = _mpf_frac(kappas[1], LAT_P)
            ref = dist_core.entropy(dist_core.iid_sum_pmf(base, top)) - mpmath.ln(
                2 * mpmath.pi * mpmath.e * top * sigma2) / 2
        ck.close(f"g({top})", profile.g_values[top], ref, LAT_P)
        xs = [math.log(n) for n in LAT_FAMILY]
        ys = [math.log(abs(float(profile.g_values[n]))) for n in LAT_FAMILY]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        ck.expect(math.isclose(fit.exponent, -slope, rel_tol=1e-9, abs_tol=1e-12), "fitted exponent")
        ck.expect(math.isclose(fit.constant, math.exp(my - slope * mx), rel_tol=1e-9), "fitted constant")
    return run


def _moments_item(base, weights: List[Fraction], offset: int) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        sums = asymptotics.iid_power_pmfs(base, LAT_FAMILY[-2:])
        with mpmath.workdps(LAT_P):
            raw = [mpmath.fsum(w * mpf(k) ** j for k, w in base.items()) for j in range(1, 9)]
        cumulants = moments_bounds.cumulants_from_raw_moments(raw, LAT_P)
        variance = exact_cumulants(weights, offset, 2)[1]
        for k in range(2, 9):
            poly = moments_bounds.faa_di_bruno_poly(k, cumulants)
            for j, pmf in sums.items():
                ck.close(f"moment k={k}, j={j}", moments_bounds.central_moment_brute(pmf, k),
                         poly.evaluate(j), LAT_P, scale=_natural_scale(j * variance, k))
    return run


def _tail_item(base, weights: List[Fraction], mix_weight: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        n = LAT_FAMILY[-1]
        total = dist_core.iid_sum_pmf(base, n)
        exact_ends = [
            (0, weights[0] ** n), (1, n * weights[0] ** (n - 1) * weights[1]),
            (-1, weights[-1] ** n), (-2, n * weights[-1] ** (n - 1) * weights[-2]),
        ]
        for index, ref in exact_ends:
            # relative: the tail weights may lie far below eps
            with mpmath.workdps(LAT_P + 10):
                ratio = total.weights[index] / _mpf_frac(ref, LAT_P)
            ck.close(f"tail weight [{index}] relative", ratio, 1, LAT_P)
        shifted = dist_core.shift(total, 1)
        direct = discrimination.cap_discrimination(shifted, total, mix_weight)
        mixed = discrimination.mixture(shifted, total, mix_weight)
        with mpmath.workdps(LAT_P + 10):
            ref = (mix_weight.numerator * discrimination.kl_divergence(shifted, mixed)
                   + (mix_weight.denominator - mix_weight.numerator) * discrimination.kl_divergence(total, mixed)
                   ) / mix_weight.denominator
        ck.close("capacitory discrimination vs divergences", direct, ref, LAT_P)
        series = discrimination.cap_via_series(shifted, total, mix_weight, "1e-4")
        ck.close("series vs direct on the shifted sum", series.partial_sum, direct, LAT_P, slack=series.tail_bound)
    return run


def _pair_item(rng: random.Random, size: int, weight: Fraction) -> Callable[[Checker], None]:
    raw_p = [rng.randint(1, 1000) + 200 for _ in range(size)]
    raw_q = [rng.randint(1, 1000) + 200 for _ in range(size)]

    def run(ck: Checker) -> None:
        P = dist_core.IntegerPmf.from_weights([Fraction(w, sum(raw_p)) for w in raw_p], precision=LAT_P)
        Q = dist_core.IntegerPmf.from_weights([Fraction(w, sum(raw_q)) for w in raw_q], precision=LAT_P)
        direct = discrimination.cap_discrimination(P, Q, weight)
        series = discrimination.cap_via_series(P, Q, weight, tol="1e-14")
        ck.close(f"criterion 4 pair of size {size}", series.partial_sum, direct, LAT_P, slack=series.tail_bound)
        ck.expect(abs(series.partial_sum - direct) <= mpf("1e-12"), "criterion 4 tolerance")
    return run


def _crit6_item(p: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        bern = dist_core.binomial_pmf(1, p, LAT_P)
        pmf = bern
        variance = p * (1 - p)
        for n in range(1, LAT_CRIT6_N + 1):
            if n > 1:
                pmf = dist_core.convolve(pmf, bern)
            for k in range(8):
                ck.close(f"closed moment n={n}, k={k}", moments_bounds.central_moment_brute(pmf, k),
                         moments_bounds.central_moment_closed(n, p, k, LAT_P), LAT_P,
                         scale=_natural_scale(n * variance, k))
    return run


def _knessl_cli_item(p: Fraction) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        out = json.loads(ck.cli(["knessl", "--p", _pstr(p), "--n", str(LAT_KNESSL_N)], f"knessl{p.denominator}.json"))
        n = LAT_KNESSL_N
        g = _mpf_str(out["g"][str(n)], LAT_P)
        predicted = _mpf_str(out["predicted_constant"], LAT_P)
        scaled = -g * n ** out["predicted_exponent"]
        ck.expect(out["fit_monotone"], f"knessl fit not monotone at p={p}")
        ck.expect(abs(scaled / predicted - 1) < mpf("0.05"),
                  f"criterion 8: n^k g(n) = {mpmath.nstr(-scaled, 8)} vs -{mpmath.nstr(predicted, 8)} at p={p}")
    return run


def build_lattice_sums(seed: int) -> List[Item]:
    rng = random.Random(f"lattice-sums:{seed}")
    items: List[Item] = []
    for index, size in enumerate(LAT_SIZES):
        weights = _base_weights(rng, size, size in LAT_SKEWED)
        offset = rng.randint(-3, 3)
        base = dist_core.IntegerPmf.from_weights(weights, offset=offset, precision=LAT_P)
        label = f"b{index}s{size}{'k' if size in LAT_SKEWED else ''}"
        items += [Item(f"iid_gap[{label},{m},{n}]", _iid_gap_item(base, m, n)) for m, n in LAT_GAP_PAIRS]
        items += [
            Item(f"knessl[{label}]", _knessl_item(base, weights, offset)),
            Item(f"moments[{label}]", _moments_item(base, weights, offset)),
            Item(f"tail[{label}]", _tail_item(base, weights, Fraction(1, 2))),
        ]
    items += [Item(f"pair[{i},{size}]", _pair_item(rng, size, weight))
              for i, (size, weight) in enumerate(zip(LAT_PAIR_SIZES, LAT_PAIR_WEIGHTS))]
    taken: set = set()
    p6 = _rational(rng, Fraction(1, 10), Fraction(9, 10), taken)
    p8 = _rational(rng, Fraction(3, 20), Fraction(7, 20), taken)
    items += [
        Item(f"criterion6[{p6}]", _crit6_item(p6)),
        Item("knessl[1/2]", _knessl_cli_item(Fraction(1, 2))),
        Item(f"knessl[{p8}]", _knessl_cli_item(p8)),
    ]
    return items


# ---------------------------------------------------------------------------
# smoothed: adaptive quadrature of Gaussian-smoothed binomials
# ---------------------------------------------------------------------------

SM_P = 30
SM_TOL = "1e-9"
SM_SIGMA = "1e-3"          # per summand: peaked regime
SM_WINDOW = (3, 4, 5, 6)
SM_OVERLAP = (Fraction(1, 4), Fraction(1, 2))
SM_CRIT9 = (8, 9)


def _smoothed_ref(n: int, p: Fraction, sigma2) -> mpf:
    """Closed form H(P) + (1/2) ln(2 pi e sigma^2) of disjoint peaks."""
    with mpmath.workdps(SM_P + 10):
        return binomial_entropy(n, p, SM_P) + mpmath.ln(2 * mpmath.pi * mpmath.e * sigma2) / 2


def _tulino_item(p: Fraction, n: int) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        (row,) = asymptotics.tulino_verdu_compare(p, SM_SIGMA, [n], tol=SM_TOL, precision=SM_P)
        slack = 2 * mpf(SM_TOL)
        with mpmath.workdps(SM_P + 10):
            s2 = mpf(SM_SIGMA) ** 2
            ref = _smoothed_ref(n, p, n * s2) - _smoothed_ref(n - 1, p, (n - 1) * s2)
            full = mpmath.ln(mpf(n) / (n - 1))
            half = full / 2
        ck.close(f"smoothed increment n={n}, p={p}", row.increment, ref, SM_P, slack=slack)
        ck.close("half-log bound", row.half_log, half, SM_P)
        ck.expect(row.meets_half, f"half-log increment fails at n={n}, p={p}")
        if abs(ref - full) > 2 * slack:
            ck.expect(row.meets_full == bool(ref > full), f"full-log flag at n={n}, p={p}")
    return run


def _overlap_item(p: Fraction, n: int) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        values = {}
        for sigma in SM_OVERLAP:
            res = asymptotics.gaussian_smoothed_entropy(dist_core.binomial_pmf(n, p, SM_P), sigma, SM_TOL, SM_P, n=n)
            mirror = asymptotics.gaussian_smoothed_entropy(
                dist_core.binomial_pmf(n, 1 - p, SM_P), sigma, SM_TOL, SM_P, n=n)
            err = res.quadrature_error
            ck.close(f"mirror p<->1-p at n={n}, sigma={sigma}", res.h_value, mirror.h_value, SM_P,
                     slack=err + mirror.quadrature_error)
            with mpmath.workdps(SM_P + 10):
                s2 = mpf(sigma.numerator) ** 2 / sigma.denominator ** 2
                floor = mpmath.ln(2 * mpmath.pi * mpmath.e * s2) / 2
                var = mpf(n * p.numerator * (p.denominator - p.numerator)) / p.denominator ** 2
                gauss = mpmath.ln(2 * mpmath.pi * mpmath.e * (var + s2)) / 2
                disjoint = _smoothed_ref(n, p, s2)
            ck.expect(floor - err <= res.h_value <= min(gauss, disjoint) + err,
                      f"smoothed entropy outside its bounds at n={n}, sigma={sigma}")
            values[sigma] = (res.h_value, err, s2)
        (ha, ea, sa), (hb, eb, sb) = values[SM_OVERLAP[0]], values[SM_OVERLAP[1]]
        with mpmath.workdps(SM_P + 10):
            lhs = mpmath.exp(2 * hb)
            rhs = mpmath.exp(2 * ha) + 2 * mpmath.pi * mpmath.e * (sb - sa)
            slack = 2 * lhs * eb + 2 * mpmath.exp(2 * ha) * ea * 2
        ck.expect(lhs >= rhs - slack, f"continuous EPI fails at n={n}, p={p}")
    return run


def _tulino_cli_item(ck: Checker) -> None:
    text = ck.cli(["tulino", "--p", "0.5", "--sigma", SM_SIGMA,
                  "--n-min", str(SM_CRIT9[0]), "--n-max", str(SM_CRIT9[-1]), "--precision", str(SM_P)], "tulino.csv")
    rows = list(csv.DictReader(text.splitlines()))
    ck.expect(len(rows) == len(SM_CRIT9), "tulino row count")
    for row in rows:
        n = int(row["n"])
        inc = _mpf_str(row["increment"], SM_P)
        with mpmath.workdps(SM_P + 10):
            full = mpmath.ln(mpf(n) / (n - 1))
            ref = _smoothed_ref(n, Fraction(1, 2), n * mpf(SM_SIGMA) ** 2) - _smoothed_ref(
                n - 1, Fraction(1, 2), (n - 1) * mpf(SM_SIGMA) ** 2)
        ck.expect(inc >= full - mpf("1e-4"), f"criterion 9 fails at n={n}")
        ck.close(f"tulino increment n={n}", inc, ref, SM_P, slack=2 * mpf(SM_TOL))


def _smooth_cli_item(p: Fraction, n: int) -> Callable[[Checker], None]:
    def run(ck: Checker) -> None:
        sigma = SM_OVERLAP[0]
        out = json.loads(ck.cli(["smooth", "--p", _pstr(p), "--n", str(n), "--sigma", str(float(sigma)),
                                 "--precision", str(SM_P)], "smooth.json"))
        h = _mpf_str(out["h"], SM_P)
        err = _mpf_str(out["quadrature_error"], SM_P)
        with mpmath.workdps(SM_P + 10):
            disjoint = _smoothed_ref(n, p, mpf(sigma.numerator) ** 2 / sigma.denominator ** 2)
        ck.expect(_mpf_str(out["excess_over_floor"], SM_P) >= -err and h <= disjoint + err,
                  f"smooth output outside its bounds: {out}")
    return run


def build_smoothed(seed: int) -> List[Item]:
    rng = random.Random(f"smoothed:{seed}")
    p = _rational(rng, Fraction(1, 4), Fraction(3, 4), set())
    items = [Item(f"tulino[{p},{n}]", _tulino_item(p, n)) for n in SM_WINDOW]
    items += [Item(f"overlap[{p},{n}]", _overlap_item(p, n)) for n in SM_WINDOW]
    items += [
        Item("tulino[1/2]", _tulino_cli_item),
        Item(f"smooth[{p}]", _smooth_cli_item(p, SM_WINDOW[-1])),
    ]
    return items


WORKLOADS = {
    "binomial-steps": Workload("binomial-steps", BIN_P, build_binomial_steps, tail_q=0.9, min_items=100),
    "lattice-sums": Workload("lattice-sums", LAT_P, build_lattice_sums, tail_q=0.9, min_items=100),
    "smoothed": Workload("smoothed", SM_P, build_smoothed, tail_q=0.75, min_items=40),
}
