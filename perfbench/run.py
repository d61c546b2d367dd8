"""Verification benchmark for discrete-epi.

    python3 perfbench/run.py --workload binomial-steps --seed 1 --seconds 20 --trace 0

Builds the workload's items from the seed, then runs them in this
process as a closed loop with one client: each item starts when the
previous one has finished and been checked, and the whole list (one
pass) repeats until ``--seconds`` have passed and enough item samples
exist for the tail percentile.  One untimed pass runs first, so lazy
caches are filled before timing starts; its items are still checked.
No threads are used; the only other
processes are the fresh interpreters that time set-up, started one at
a time and waited for.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with every layer function wrapped, and
reports the per-layer metrics.  A human-readable summary goes to
stderr; the last line of stdout is one JSON object.  Spans and a full
result record (with the environment) are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

from spans import LAYER_NAMES, MAX_COUNTS, WORK_COUNTS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE_ENV = HERE / "baseline_env.json"
SETUP_REPEATS = 25

# Timed in a fresh interpreter: the package import plus the warm-ups a
# command-line call pays (build_g's cache, Gauss-Legendre nodes at P).
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import discrete_epi.cli
from discrete_epi import asymptotics, dist_core, polycert
polycert.build_g()
asymptotics.gaussian_smoothed_entropy(dist_core.delta_pmf(0, {p}), 1, "1e-6", {p})
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "errors": "count"}
COUNT_UNITS = {"coeff_bits": "bits", "bytes_out": "bytes"}


def per_layer_spec() -> List[Dict[str, str]]:
    """Every per-layer metric the traced run reports, in order."""
    spec = []
    for layer in LAYER_NAMES:
        spec += [{"name": f"{layer}.{stat}", "unit": unit, "better": "lower"} for stat, unit in STAT_UNITS.items()]
        spec += [{"name": f"{layer}.{count}", "unit": COUNT_UNITS.get(count, "count"), "better": "lower"}
                 for count in WORK_COUNTS.get(layer, [])]
        if layer == "dist_core.chain":
            spec.append({"name": "dist_core.chain.useful_frac", "unit": "frac", "better": "higher"})
    spec += [
        {"name": "trace.overhead_frac", "unit": "frac", "better": "lower"},
        {"name": "check.max_dev_eps", "unit": "eps", "better": "lower"},
    ]
    return spec


def environment(precision: int) -> Dict[str, object]:
    import mpmath

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "precision": precision,
    }


def env_mismatches(env: Dict[str, object], workload: str) -> List[str]:
    """Differences from the recorded baseline environment."""
    baseline = json.loads(BASELINE_ENV.read_text(encoding="utf-8"))
    expected = dict(baseline["common"], precision=baseline["precision"][workload])
    return [f"{key}: baseline {expected[key]!r}, now {env.get(key)!r}"
            for key in expected if env.get(key) != expected[key]]


def measure_setup(precision: int) -> float:
    """Median set-up time over fresh interpreters, run one at a time."""
    code = SETUP_CODE.format(src=str(SRC), p=precision)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_passes(items, checker, seconds: float, min_items: int, tracer=None):
    """Closed loop over the item list until the time and sample budget are met.

    Returns (pass times, item latencies, failure messages).
    """
    pass_times: List[float] = []
    latencies: List[float] = []
    failures: List[str] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for item in items:
            if tracer is not None:
                tracer.item = item.name
            t0 = time.perf_counter()
            try:
                item.run(checker)
            except Exception as exc:  # noqa: BLE001 -- an item's failure is counted, the loop goes on
                failures.append(f"{item.name}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
        pass_times.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start >= seconds and len(latencies) >= min_items:
            return pass_times, latencies, failures


def layer_metrics(tracer, passes: int, wall_untraced: float, wall_traced: float, checker) -> Dict[str, float]:
    stats = tracer.layer_stats()
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        for stat in STAT_UNITS:
            out[f"{layer}.{stat}"] = stats[layer][stat] / passes
        counts = tracer.counts.get(layer, {})
        for count in WORK_COUNTS.get(layer, []):
            value = counts.get(count, 0)
            out[f"{layer}.{count}"] = value if count in MAX_COUNTS else value / passes
    out["dist_core.chain.useful_frac"] = tracer.useful_frac(out["dist_core.chain.rows"])
    out["trace.overhead_frac"] = wall_traced / wall_untraced - 1
    out["check.max_dev_eps"] = checker.max_dev_eps
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "discrete_epi" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import discrete_epi
    from discrete_epi import asymptotics, dist_core, polycert
    if Path(discrete_epi.__file__).resolve().parent != (SRC / "discrete_epi").resolve():
        print(f"perfbench: imported discrete_epi from {discrete_epi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(workload.precision)
    mismatches = env_mismatches(env, workload.name)
    for line in mismatches:
        print(f"perfbench: environment differs from the baseline -- {line}", file=sys.stderr)

    setup_s = measure_setup(workload.precision)
    items = workload.build(args.seed)
    polycert.build_g()
    asymptotics.gaussian_smoothed_entropy(dist_core.delta_pmf(0, workload.precision), 1, "1e-6",
                                          workload.precision)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cli-", dir=OUT) as out_dir:
        checker = workloads.Checker(out_dir)
        _, warm_latencies, warm_failures = run_passes(items, checker, 0, 1)
        if args.trace:
            passes, latencies, failures = run_passes(items, checker, args.seconds / 2, 1)
            tracer = Tracer()
            uninstall = tracer.install()
            try:
                traced, more_latencies, more_failures = run_passes(items, checker, args.seconds / 2, 1, tracer)
            finally:
                uninstall()
            latencies += more_latencies
            failures += more_failures
        else:
            passes, latencies, failures = run_passes(items, checker, args.seconds, workload.min_items)

    attempted = len(warm_latencies) + len(latencies)
    failures = warm_failures + failures
    failed = len(failures)
    if args.trace:
        metrics = layer_metrics(tracer, len(traced), statistics.median(passes), statistics.median(traced), checker)
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        extra = {"traced_pass_times": traced}
        tracer.write_spans(str(OUT / f"spans-{workload.name}-{args.seed}.jsonl"))
    else:
        metrics = {
            "wall_s": statistics.median(passes),
            "item_p50_s": statistics.median(latencies),
            "item_tail_s": quantile(latencies, workload.tail_q),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
        extra = {}

    for message in failures[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"perfbench: {workload.name} seed={args.seed} trace={args.trace}: {len(items)} items per pass, "
          f"{attempted} attempted, {failed} failed, fail_frac={failed / attempted:.4g}, "
          f"tail=p{round(workload.tail_q * 100)}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "items_per_pass": len(items), "pass_times": passes, "attempted": attempted, "failed": failed,
        "failures": failures, "environment": env, "environment_mismatch": mismatches,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        **extra,
    }
    (OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
