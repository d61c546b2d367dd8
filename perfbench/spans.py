"""Layer spans and work counts, recorded from outside the package.

The traced run replaces each public function of a layer, wherever a
module of the package holds a reference to it, by a wrapper that opens
a span (layer, function, item, start, end, parent) and, on return,
adds work counts computed from the arguments and the return value only,
so the counts repeat exactly from run to run.  Spans stay in memory and
are summarised (and written out) when the run ends.

Statistics per layer:

* ``calls``  -- wrapped calls that entered the layer;
* ``busy_s`` -- time inside the layer, counting a call nested in another
  call of the same layer once;
* ``self_s`` -- span time minus the time covered by direct child spans;
* ``errors`` -- calls that raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional

# A Gaussian peak is treated as disjoint from its neighbours when 40
# standard deviations (the package's density window) fit inside half a
# lattice spacing; wider peaks overlap and need the full quadrature.
PEAKED_SIGMA_MAX = 1 / 80


def _regime(sigma) -> str:
    return "asymptotics.quad.peaked" if _as_float(sigma) <= PEAKED_SIGMA_MAX else "asymptotics.quad.overlap"


def _bound(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _as_float(p) -> float:
    try:
        return float(p)
    except ValueError:
        return float(Fraction(p))


def _union_points(P, Q) -> int:
    return max(P.last, Q.last) - min(P.offset, Q.offset) + 1


def _mixing_counts(n_max: int) -> Dict[str, int]:
    # step k turns k weights into k + 1 with 2k products
    return {"rows": n_max, "madds": n_max * (n_max + 1)}


# --- work counters: (func, bound arguments, result) -> {count: value} ---

def _count_chain(a, result):
    n = a["n_max"]
    return {**_mixing_counts(n), "ln_calls": n * (n + 3) // 2}


def _count_mix(a, result):
    return _mixing_counts(a["n"])


def _count_convolve(a, result):
    left, right = a["a"], a["b"]
    nonzero = sum(1 for w in left.weights if w != 0)
    return {"madds": nonzero * right.size, "max_support": result.size}


def _count_entropy(a, result):
    return {"ln_calls": sum(1 for w in a["pmf"].weights if w > 0)}


def _count_series(a, result):
    return {"terms": result.terms_used, "points": _union_points(a["P"], a["Q"])}


def _count_direct_pair(a, result):
    return {"points": _union_points(a["P"], a["Q"])}


def _count_step_c(a, result):
    return {"points": a["n"] + 2}


def _count_fold_max_keys(a, result):
    return {"fold_max": max(result) if result else 0}


def _count_profile(a, result):
    return {"fold_max": max(result.g_values)}


def _count_fit(a, result):
    return {"fold_max": max(result.residuals)}


def _count_quad(a, result):
    return {"points": sum(1 for w in a["pmf"].weights if w > 0)}


def _count_poly(a, result):
    poly = getattr(result, "polynomial", result)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs.values()),
        default=0,
    )
    return {"terms": len(poly.coeffs), "coeff_bits": bits}


def _count_cli(a, result):
    argv = list(a["argv"] or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"bytes_out": os.path.getsize(path)}
    return {"bytes_out": 0}


# Work counts aggregated by maximum rather than by sum.
MAX_COUNTS = {"max_support", "fold_max", "coeff_bits"}

def _smoothed_layer(a) -> str:
    return _regime(a["sigma"])


def _tulino_layer(a) -> str:
    ns = list(a["n_values"]) if isinstance(a["n_values"], (list, tuple, range)) else []
    top = max(ns) if ns else 1
    return _regime(_as_float(a["sigma"]) * top ** 0.5)


# (layer, module, function names, work counter or None).  A callable
# layer picks the layer per call from the bound arguments (quadrature
# regimes); function names of None mean every public function.
LAYERS = [
    ("dist_core.chain", "dist_core", ["binomial_entropy_chain"], _count_chain),
    ("dist_core.mix", "dist_core", ["binomial_pmf"], _count_mix),
    ("dist_core.convolve", "dist_core", ["convolve"], _count_convolve),
    ("dist_core.convolve", "dist_core", ["iid_sum_pmf"], None),
    ("dist_core.entropy", "dist_core", ["entropy"], _count_entropy),
    ("discrimination.series", "discrimination", ["cap_via_series"], _count_series),
    ("discrimination.direct", "discrimination", ["cap_discrimination", "kl_divergence"], _count_direct_pair),
    ("discrimination.direct", "discrimination", ["binomial_step_c"], _count_step_c),
    ("moments_bounds.moments", "moments_bounds",
     ["central_moment_brute", "central_moment_closed", "faa_di_bruno_poly"], None),
    ("moments_bounds.bounds", "moments_bounds",
     ["gamma_l", "cumulative_gamma_bound", "harmonic_lower_bound", "c_coeff"], None),
    ("asymptotics.ladder", "asymptotics", ["iid_power_pmfs"], _count_fold_max_keys),
    ("asymptotics.ladder", "asymptotics", ["knessl_profile"], _count_profile),
    ("asymptotics.ladder", "asymptotics", ["leading_constant_fit"], _count_fit),
    (_smoothed_layer, "asymptotics", ["gaussian_smoothed_entropy"], _count_quad),
    (_tulino_layer, "asymptotics", ["tulino_verdu_compare"], None),
    ("epi_engine", "epi_engine", None, None),
    ("polycert", "polycert",
     ["build_g", "certify", "shift_expand", "quadratic_shift_expand", "rational_substitute_t"],
     _count_poly),
    ("cli", "cli", ["main"], _count_cli),
]

LAYER_NAMES = [
    "dist_core.chain", "dist_core.mix", "dist_core.convolve", "dist_core.entropy",
    "discrimination.series", "discrimination.direct",
    "moments_bounds.moments", "moments_bounds.bounds",
    "asymptotics.ladder", "asymptotics.quad.peaked", "asymptotics.quad.overlap",
    "epi_engine", "polycert", "cli",
]

# layer -> work counts it reports (beyond calls, busy_s, self_s, errors)
WORK_COUNTS = {
    "dist_core.chain": ["rows", "madds", "ln_calls"],
    "dist_core.mix": ["rows", "madds"],
    "dist_core.convolve": ["madds", "max_support"],
    "dist_core.entropy": ["ln_calls"],
    "discrimination.series": ["terms", "points"],
    "discrimination.direct": ["points"],
    "asymptotics.ladder": ["fold_max"],
    "asymptotics.quad.peaked": ["points"],
    "asymptotics.quad.overlap": ["points"],
    "polycert": ["terms", "coeff_bits"],
    "cli": ["bytes_out"],
}


class Tracer:
    """Collects spans and work counts for wrapped calls.

    ``clock`` is injectable so the span arithmetic can be tested with a
    fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []  # [id, parent, layer, func, item, start, end, error]
        self.stack: List[int] = []
        self.item: Optional[str] = None
        self.counts: Dict[str, Dict[str, int]] = {}
        self.chain_requests: Dict[tuple, int] = {}

    def wrap(self, func, layer, counter=None):
        """Return a wrapper of func that records a span in ``layer``.

        ``layer`` is a layer name or a callable taking the bound
        arguments and returning one.
        """
        tracer = self
        signature = inspect.signature(func)
        needs_args = counter is not None or callable(layer)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            a = _bound(signature, args, kwargs) if needs_args else None
            name = layer(a) if callable(layer) else layer
            span = [len(tracer.spans), tracer.stack[-1] if tracer.stack else None,
                    name, func.__name__, tracer.item, 0.0, 0.0, False]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            span[5] = tracer.clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[6] = tracer.clock()
                tracer.stack.pop()
            if counter is not None:
                tracer._add_counts(name, counter(a, result))
            if name == "dist_core.chain":
                key = (_as_float(a["p"]), a["precision"])
                tracer.chain_requests[key] = max(tracer.chain_requests.get(key, 0), a["n_max"])
            return result

        return wrapper

    def _add_counts(self, layer: str, counts: Dict[str, int]) -> None:
        acc = self.counts.setdefault(layer, {})
        for key, value in counts.items():
            if key in MAX_COUNTS:
                acc[key] = max(acc.get(key, 0), value)
            else:
                acc[key] = acc.get(key, 0) + value

    def install(self) -> Callable[[], None]:
        """Wrap every layer function wherever the package refers to it.

        Returns a function that restores the originals.
        """
        restore = []
        for layer, module_name, names, counter in LAYERS:
            module = importlib.import_module(f"discrete_epi.{module_name}")
            if names is None:
                names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self.wrap(original, layer, counter)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "discrete_epi":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            restore.append((mod, attr, original))

        def uninstall():
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

        return uninstall

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """calls, busy_s, self_s and errors for every layer in LAYER_NAMES."""
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0} for name in LAYER_NAMES}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[6] - span[5]
        for span in self.spans:
            s = stats.setdefault(span[2], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
            duration = span[6] - span[5]
            s["calls"] += 1
            s["self_s"] += duration - child_time[span[0]]
            s["errors"] += int(span[7])
            parent = span[1]
            while parent is not None and self.spans[parent][2] != span[2]:
                parent = self.spans[parent][1]
            if parent is None:
                s["busy_s"] += duration
        return stats

    def useful_frac(self, rows: int) -> float:
        """Largest chain length requested per p over the rows computed.

        1 when no chain was computed: no row was wasted.
        """
        return sum(self.chain_requests.values()) / rows if rows else 1.0

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, layer, func, item, start, end, error in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer, "func": func,
                    "item": item, "start": start, "end": end, "error": error,
                }) + "\n")
