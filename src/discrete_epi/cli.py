"""Command-line front end: sweeps, reports, figure data, certificates.

Every subcommand computes through the library modules and emits either
CSV (sweeps/tables), JSON (reports), or a minimal static SVG line chart.
Output is deterministic for a fixed configuration: JSON keys are sorted,
numbers are printed at a digit count tied to the working precision, and
line endings are always "\n".

Exit codes: 0 success; 2 bad arguments; 3 computation budget exceeded
(series truncation or quadrature refinement); 4 internal consistency
failure (exact-arithmetic contradictions).

Presets bundle the recipes behind the shipped figures and tables:

    fig1          sweep of the (1, 2) entropy-power gap across p
    thresholds    step-condition thresholds for a spread of p
    certifyA      linear-threshold positivity certificate
    certifyAprime sharper linear-threshold certificate
    certifyB      quadratic-threshold certificate
    certifyC      small-skew threshold-7 certificate
    knessl        lattice-correction decay for the symmetric Bernoulli sum
    tulino        smoothed-entropy increments vs the two log bounds
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, astuple, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import mpf

from . import asymptotics, discrimination, dist_core, epi_engine, moments_bounds
from .errors import BudgetExceededError, ConsistencyError
from .polycert import CERT_SUBSTITUTIONS, certify
from .precision import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    _count,
    _probability,
    _slack_sign,
    check_precision,
    working_precision,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4

# What a handler returns: a JSON report, CSV rows (header first) or SVG text.
Payload = Union[Dict[str, Any], List[Sequence[Any]], str]


def _fmt(x: mpf, precision: int) -> str:
    """Decimal rendering of an mpf with precision-tagged digit count."""
    return mpmath.nstr(x, precision, strip_zeros=True)


def _render(value: Any, precision: int) -> Any:
    """The value with every mpf in it rendered by ``_fmt``."""
    if isinstance(value, mpf):
        return _fmt(value, precision)
    if isinstance(value, dict):
        return {key: _render(item, precision) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_render(item, precision) for item in value]
    return value


def _text(payload: Payload, precision: int) -> str:
    """A dict as sorted JSON, a list of rows as CSV, and text as it is."""
    if isinstance(payload, str):
        return payload
    payload = _render(payload, precision)
    if isinstance(payload, dict):
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "".join(
        ",".join(cell if isinstance(cell, str) else json.dumps(cell) for cell in row) + "\n"
        for row in payload
    )


def _svg_text(points: List[Tuple[float, float]], x_label: str, y_label: str) -> str:
    """Minimal static SVG polyline; the CSV is the source of truth."""
    width, height, pad = 800.0, 500.0, 60.0
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) * (width - 2 * pad) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) * (height - 2 * pad) / (y_hi - y_lo)

    polyline = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if y_lo < 0 < y_hi:
        zero_y = sy(0.0)
        parts.append(
            f'<line x1="{pad:.2f}" y1="{zero_y:.2f}" x2="{width - pad:.2f}" '
            f'y2="{zero_y:.2f}" stroke="#999" stroke-dasharray="4 4"/>'
        )
    parts.extend(
        [
            f'<line x1="{pad:.2f}" y1="{height - pad:.2f}" x2="{width - pad:.2f}" '
            f'y2="{height - pad:.2f}" stroke="black"/>',
            f'<line x1="{pad:.2f}" y1="{pad:.2f}" x2="{pad:.2f}" '
            f'y2="{height - pad:.2f}" stroke="black"/>',
            f'<text x="{width / 2:.2f}" y="{height - 15:.2f}" '
            f'text-anchor="middle" font-size="14">{x_label}</text>',
            f'<text x="18" y="{height / 2:.2f}" text-anchor="middle" '
            f'font-size="14" transform="rotate(-90 18 {height / 2:.2f})">{y_label}</text>',
            f'<text x="{pad:.2f}" y="{height - pad + 20:.2f}" '
            f'text-anchor="middle" font-size="12">{x_lo:.4g}</text>',
            f'<text x="{width - pad:.2f}" y="{height - pad + 20:.2f}" '
            f'text-anchor="middle" font-size="12">{x_hi:.4g}</text>',
            f'<text x="{pad - 8:.2f}" y="{height - pad:.2f}" '
            f'text-anchor="end" font-size="12">{y_lo:.4g}</text>',
            f'<text x="{pad - 8:.2f}" y="{pad:.2f}" '
            f'text-anchor="end" font-size="12">{y_hi:.4g}</text>',
            f'<polyline points="{polyline}" fill="none" stroke="#1f6feb" '
            f'stroke-width="1.5"/>',
            "</svg>",
        ]
    )
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gap(args: argparse.Namespace) -> Payload:
    return asdict(epi_engine.epi_gap(args.m, args.n, args.p, args.precision))


def _cmd_sweep(args: argparse.Namespace) -> Payload:
    precision, budget = args.precision, dist_core.MAX_CHAIN_ROWS
    p_min, p_max = (args.p, args.p) if args.p is not None else (args.p_min, args.p_max)
    steps = 1 if args.p is not None else _count(args.steps, "steps", 1)
    lo = _probability(p_min, precision, strict=True)
    hi = _probability(p_max, precision, strict=True)
    if lo > hi:
        raise ValueError(f"p-min must not exceed p-max, got {p_min} > {p_max}")
    # A chain of r rows costs about r**2, so a sweep may cost no more than
    # the largest single chain; it is refused before the first chain.  A
    # chain past the row budget refuses itself at once.  Small chains cost
    # little each, so the p grid itself is held to the same budget.
    chain_rows = _count(args.m, "m", 1) + _count(args.n, "n", 1) + 1
    if chain_rows <= budget and steps * chain_rows**2 > budget**2:
        raise BudgetExceededError(
            f"{steps} chains of {chain_rows} rows cost more than one {budget}-row chain"
        )
    if steps > budget:
        raise BudgetExceededError(f"steps={steps} puts the sweep past the {budget}-step budget")
    with working_precision(precision):
        step = (hi - lo) / max(steps - 1, 1)
        grid = [lo + i * step for i in range(steps)]
    rows = [(p, epi_engine.epi_gap(args.m, args.n, p, precision).gap) for p in grid]
    if args.format == "svg":
        return _svg_text([(float(p), float(g)) for p, g in rows], "p", "entropy power gap")
    return [("p", "gap"), *rows]


def _cmd_threshold(args: argparse.Namespace) -> Payload:
    return asdict(epi_engine.empirical_threshold(args.p, args.cap, args.precision))


def _cmd_grid(args: argparse.Namespace) -> Payload:
    cells = epi_engine.epi_grid_check(args.m, args.n, args.p, args.precision)
    worst = min(cells.values(), key=lambda rep: rep.gap)
    return {
        "m_max": args.m,
        "n_max": args.n,
        "p": args.p,
        "all_hold": all(rep.holds for rep in cells.values()),
        "worst_cell": {"m": worst.m, "n": worst.n},
        "worst_gap": worst.gap,
        "cells": [
            {"m": rep.m, "n": rep.n, "gap": rep.gap, "holds": rep.holds}
            for _, rep in sorted(cells.items())
        ],
        "precision": args.precision,
    }


def _cmd_bound(args: argparse.Namespace) -> Payload:
    precision = args.precision
    # The telescoped bound's count checks come first, before B(n) is built.
    _count(args.n, "n", 1)
    _count(args.l, "l", 1)
    with working_precision(precision):
        pmf = dist_core.binomial_pmf(args.n, args.p, precision)
        exact = dist_core.entropy(pmf)
        # Taylor depth l feeds harmonic orders up to w = 2l (Taylor order
        # k = 2l+1 reaches j**-(k-1) through the n**1 row of mu_k).  The
        # depth-2l table comes before the cumulative bound, so a depth
        # past the moment budget is refused early.
        harmonic = moments_bounds.harmonic_lower_bound(
            args.n, args.p, 2 * args.l, precision
        )
        cumulative = moments_bounds.cumulative_gamma_bound(
            args.n, args.p, args.l, precision
        )
        # Slack 0: a rounded nonzero difference keeps its sign.
        return {
            "p": args.p,
            "n": args.n,
            "l": args.l,
            "entropy": exact,
            "cumulative_bound": cumulative,
            "cumulative_holds": _slack_sign(exact - cumulative, precision, 0) >= 0,
            "harmonic_bound": harmonic,
            "harmonic_holds": _slack_sign(exact - harmonic, precision, 0) >= 0,
            "precision": precision,
        }


def _cmd_discrimination(args: argparse.Namespace) -> Payload:
    precision = args.precision
    if args.n + 1 >= dist_core.MAX_CHAIN_ROWS:
        # The entropy step needs B(n + 1); refuse before B(n) is built.
        raise BudgetExceededError(
            f"n={args.n}: the entropy step's B(n + 1) is past the "
            f"{dist_core.MAX_CHAIN_ROWS}-weight budget"
        )
    with working_precision(precision):
        before = dist_core.binomial_pmf(args.n, args.p, precision)
        after = dist_core.shift(before, 1)
        direct = discrimination.cap_discrimination(after, before, args.p)
        series = discrimination.cap_via_series(after, before, args.p, tol=args.tol)
        step = discrimination.binomial_step_c(args.n, args.p, precision)
        return {
            "n": args.n,
            "p": args.p,
            "direct": direct,
            "series_partial": series.partial_sum,
            "series_terms": series.terms_used,
            "series_tail_bound": series.tail_bound,
            "series_vs_direct": abs(series.partial_sum - direct),
            "entropy_step": step,
            "step_vs_direct": abs(step - direct),
            "precision": precision,
        }


def _cmd_certify(args: argparse.Namespace) -> Payload:
    return certify(args.sub).to_json_dict()


def _cmd_knessl(args: argparse.Namespace) -> Payload:
    precision = args.precision
    if args.n < 8:
        raise ValueError("the decay scan needs --n >= 8")
    family = sorted({max(1, args.n >> k) for k in range(4)})
    with working_precision(precision):
        base = dist_core.binomial_pmf(1, args.p, precision)
        profile = asymptotics.knessl_profile(base, family, precision)
        fit = profile.fit()
        kappa3 = profile.kappa.kappa(3)
        kappa4 = profile.kappa.kappa(4)
        sigma2 = profile.sigma2
        if abs(kappa3) > 0:
            predicted = kappa3**2 / (12 * sigma2**3)
            predicted_exponent = 1
        else:
            predicted = kappa4**2 / (48 * sigma2**4)
            predicted_exponent = 2
    return {
        "p": args.p,
        "sigma2": sigma2,
        "kappa3": kappa3,
        "kappa4": kappa4,
        "g": {str(n): profile.g_values[n] for n in family},
        "negativity_onset": profile.negativity_onset(),
        "fit_constant": fit.constant,
        "fit_exponent": fit.exponent,
        "fit_monotone": fit.monotone,
        "predicted_constant": predicted,
        "predicted_exponent": predicted_exponent,
        "precision": precision,
    }


def _cmd_smooth(args: argparse.Namespace) -> Payload:
    precision = args.precision
    with working_precision(precision):
        pmf = dist_core.binomial_pmf(args.n, args.p, precision)
        result = asymptotics.gaussian_smoothed_entropy(
            pmf, args.sigma, args.tol, precision, n=args.n
        )
        floor = mpmath.ln(2 * mpmath.pi * mpmath.e * result.sigma**2) / 2
        return {
            "n": args.n,
            "p": args.p,
            "sigma": result.sigma,
            "h": result.h_value,
            "quadrature_error": result.quadrature_error,
            "gaussian_floor": floor,
            "excess_over_floor": result.h_value - floor,
            "precision": precision,
        }


def _cmd_tulino(args: argparse.Namespace) -> Payload:
    if args.n_min < 2 or args.n_max < args.n_min:
        raise ValueError("need 2 <= n-min <= n-max")
    rows = asymptotics.tulino_verdu_compare(
        args.p,
        args.sigma,
        range(args.n_min, args.n_max + 1),
        tol=args.tol,
        precision=args.precision,
    )
    return [[f.name for f in fields(asymptotics.TulinoRow)], *map(astuple, rows)]


PRESETS: Dict[str, List[str]] = {
    "fig1": [
        "sweep", "--m", "1", "--n", "2",
        "--p-min", "0.01", "--p-max", "0.99", "--steps", "197",
    ],
    "thresholds": ["threshold", "--p", "0.5", "--cap", "2000"],
    "certifyA": ["certify", "--sub", "A"],
    "certifyAprime": ["certify", "--sub", "Aprime"],
    "certifyB": ["certify", "--sub", "B"],
    "certifyC": ["certify", "--sub", "C"],
    "knessl": ["knessl", "--p", "0.5", "--n", "4096"],
    "tulino": [
        "tulino", "--p", "0.5", "--sigma", "1e-3",
        "--n-min", "8", "--n-max", "64", "--precision", "30",
    ],
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--precision", type=int, default=DEFAULT_PRECISION,
        help=f"working decimal digits (min {MIN_PRECISION}, default "
        f"{DEFAULT_PRECISION})",
    )
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and reused."""
    parser = argparse.ArgumentParser(
        prog="discrete-epi",
        description="Verification toolkit for the entropy power inequality "
        "on integer-valued random variables.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gap = subs.add_parser("gap", help="entropy power gap for one (m, n, p)")
    gap.add_argument("--m", type=int, required=True)
    gap.add_argument("--n", type=int, required=True)
    gap.add_argument("--p", required=True)
    _add_common(gap)
    gap.set_defaults(handler=_cmd_gap)

    sweep = subs.add_parser("sweep", help="gap as a function of p (CSV or SVG)")
    sweep.add_argument("--m", type=int, required=True)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--p", default=None, help="single-point sweep")
    sweep.add_argument("--p-min", default="0.01")
    sweep.add_argument("--p-max", default="0.99")
    sweep.add_argument("--steps", type=int, default=197)
    sweep.add_argument("--format", choices=["csv", "svg"], default="csv")
    _add_common(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    threshold = subs.add_parser(
        "threshold", help="empirical and closed-form step-condition thresholds"
    )
    threshold.add_argument("--p", required=True)
    threshold.add_argument("--cap", type=int, default=2000)
    _add_common(threshold)
    threshold.set_defaults(handler=_cmd_threshold)

    grid = subs.add_parser("grid", help="gap over all 1<=m<=M, 1<=n<=N")
    grid.add_argument("--m", type=int, required=True, help="largest m")
    grid.add_argument("--n", type=int, required=True, help="largest n")
    grid.add_argument("--p", required=True)
    _add_common(grid)
    grid.set_defaults(handler=_cmd_grid)

    bound = subs.add_parser(
        "bound", help="entropy lower bounds vs the exact binomial entropy"
    )
    bound.add_argument("--p", required=True)
    bound.add_argument("--n", type=int, required=True)
    bound.add_argument(
        "--l", type=int, default=1,
        help="Taylor truncation depth; the telescoped bound is valid for "
        "every depth, while the harmonic form is an asymptotic approximant "
        "that overshoots outside its validity region (holds flags report "
        "each bound honestly).  The harmonic form needs binomial moments to "
        f"order 4l + 1, so depths past {(moments_bounds.MAX_MOMENT_ORDER - 1) // 4} exit 3",
    )
    _add_common(bound)
    bound.set_defaults(handler=_cmd_bound)

    disc = subs.add_parser(
        "discrimination",
        help="mixing-step discrimination: direct vs series evaluation",
    )
    disc.add_argument("--n", type=int, required=True)
    disc.add_argument("--p", required=True)
    disc.add_argument(
        "--tol", default="1e-4",
        help="series tail tolerance; the binomial pair shares ratio-one "
        "endpoint atoms, so the tail bound decays only like 1/terms and "
        "deep tolerances exceed the term budget",
    )
    _add_common(disc)
    disc.set_defaults(handler=_cmd_discrimination)

    cert = subs.add_parser(
        "certify", help="exact positivity certificate for a threshold substitution"
    )
    cert.add_argument("--sub", required=True, choices=sorted(CERT_SUBSTITUTIONS))
    _add_common(cert)
    cert.set_defaults(handler=_cmd_certify)

    knessl = subs.add_parser(
        "knessl", help="lattice correction decay for Bernoulli sums"
    )
    knessl.add_argument("--p", required=True)
    knessl.add_argument("--n", type=int, required=True, help="largest fold count")
    _add_common(knessl)
    knessl.set_defaults(handler=_cmd_knessl)

    smooth = subs.add_parser(
        "smooth", help="differential entropy of a Gaussian-smoothed binomial"
    )
    smooth.add_argument("--p", required=True)
    smooth.add_argument("--n", type=int, required=True)
    smooth.add_argument("--sigma", required=True)
    smooth.add_argument("--tol", default="1e-9", help="quadrature tolerance")
    _add_common(smooth)
    smooth.set_defaults(handler=_cmd_smooth)

    tulino = subs.add_parser(
        "tulino", help="smoothed-entropy increments vs half-log and full-log"
    )
    tulino.add_argument("--p", required=True)
    tulino.add_argument("--sigma", required=True, help="per-summand noise std")
    tulino.add_argument("--n-min", type=int, default=8)
    tulino.add_argument("--n-max", type=int, default=64)
    tulino.add_argument("--tol", default="1e-9", help="quadrature tolerance")
    _add_common(tulino)
    tulino.set_defaults(handler=_cmd_tulino)

    preset = subs.add_parser("preset", help="run a canned experiment recipe")
    preset.add_argument("name", choices=sorted(PRESETS))
    preset.add_argument("--out", default=None)
    preset.add_argument("--format", choices=["csv", "svg"], default=None)

    return parser


def _partial_text(partial: object, precision: int) -> str:
    """How far a truncated series got, for the exit-3 message."""
    if not isinstance(partial, discrimination.SeriesEvaluation):
        return ""
    return (
        f"; partial evaluation: terms_used={partial.terms_used}, "
        f"partial_sum={_fmt(partial.partial_sum, precision)}, "
        f"tail_bound={_fmt(partial.tail_bound, precision)}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "preset":
            recipe = list(PRESETS[args.name])
            for flag, value in (("--out", args.out), ("--format", args.format)):
                if value is not None:
                    recipe.extend([flag, value])
            args = parser.parse_args(recipe)
    except SystemExit as exc:
        return EXIT_BAD_ARGS if exc.code not in (0, None) else EXIT_OK
    try:
        check_precision(args.precision)
        text = _text(args.handler(args), args.precision)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return EXIT_OK
    except BudgetExceededError as exc:
        print(
            f"computation budget exceeded: {exc}{_partial_text(exc.partial, args.precision)}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
