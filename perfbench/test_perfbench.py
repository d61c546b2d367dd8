"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402
from mpmath import mpf  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from discrete_epi import discrimination, dist_core  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        traced_inner()

    traced_inner = tracer.wrap(inner, "layer.inner")
    tracer.wrap(outer, "layer.outer")()
    stats = tracer.layer_stats()
    assert stats["layer.outer"] == {"calls": 1, "busy_s": 8.0, "self_s": 4.0, "errors": 0}
    assert stats["layer.inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0, "errors": 0}
    assert [span[1] for span in tracer.spans] == [None, 0, 0]


def test_same_layer_nesting_is_busy_once_and_errors_are_counted():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 1.0
        raise ValueError("leaf")

    def top():
        clock.now += 1.0
        try:
            traced_leaf()
        except ValueError:
            pass

    traced_leaf = tracer.wrap(leaf, "layer")
    tracer.wrap(top, "layer")()
    assert tracer.layer_stats()["layer"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0, "errors": 1}


def test_work_counts_match_hand_counts():
    original = dist_core.convolve
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        a = dist_core.IntegerPmf.from_weights([Fraction(1, 3)] * 3)
        b = dist_core.IntegerPmf.from_weights([Fraction(1, 4)] * 4)
        dist_core.convolve(a, b)
        # chain to N = 3: steps make 2, 4 and 6 products; rows 1..3 hold 2 + 3 + 4 weights
        dist_core.binomial_entropy_chain("0.3", 3)
        dist_core.entropy(a)
        P = dist_core.binomial_pmf(2, "0.5")
        series = discrimination.cap_via_series(dist_core.shift(P, 1), P, "0.5", "1e-2")
    finally:
        uninstall()
    assert dist_core.convolve is original
    assert tracer.counts["dist_core.convolve"] == {"madds": 12, "max_support": 6}
    assert tracer.counts["dist_core.chain"] == {"rows": 3, "madds": 12, "ln_calls": 9}
    assert tracer.counts["dist_core.entropy"] == {"ln_calls": 3}
    assert tracer.counts["dist_core.mix"] == {"rows": 2, "madds": 6}
    assert tracer.counts["discrimination.series"] == {"terms": series.terms_used, "points": 4}


def test_iid_sum_convolutions_are_nested_in_one_layer():
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        # 3 = 1 + 2: (1 x 2) to start, (2 x 2) to square, (2 x 3) to combine
        dist_core.iid_sum_pmf(dist_core.binomial_pmf(1, "0.5"), 3)
    finally:
        uninstall()
    assert tracer.counts["dist_core.convolve"] == {"madds": 12, "max_support": 4}
    stats = tracer.layer_stats()["dist_core.convolve"]
    top = tracer.spans[1]  # after binomial_pmf
    assert top[3] == "iid_sum_pmf" and stats["calls"] == 4
    assert stats["busy_s"] == pytest.approx(top[6] - top[5])


def test_chain_useful_fraction():
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        dist_core.binomial_entropy_chain(Fraction(1, 3), 10)
        dist_core.binomial_entropy_chain("1/3", 4)
        dist_core.binomial_entropy_chain(Fraction(1, 4), 5)
    finally:
        uninstall()
    assert tracer.useful_frac(tracer.counts["dist_core.chain"]["rows"]) == (10 + 5) / 19


def test_forced_wrong_value_counts_as_failure(tmp_path, monkeypatch):
    p = Fraction(2, 7)
    items = [workloads.Item("step", workloads._step_item(p)), workloads.Item("semi", workloads._semi_item(p))]
    checker = workloads.Checker(str(tmp_path))
    _, latencies, failures = run.run_passes(items, checker, 0, 2)
    assert (len(latencies), failures) == (2, [])

    true_step = discrimination.binomial_step_c
    monkeypatch.setattr(discrimination, "binomial_step_c",
                        lambda n, p, precision=50: true_step(n, p, precision) * (1 + mpf(10) ** -30))
    _, latencies, failures = run.run_passes(items, checker, 0, 4)
    assert len(latencies) == 4 and len(failures) == 2
    assert all(f.startswith("step: CheckFailed") for f in failures)


def test_nearest_rank_quantile():
    values = list(range(1, 101))
    assert run.quantile(values, 0.9) == 90
    assert run.quantile(values, 0.75) == 75
    assert run.quantile([3.0], 0.9) == 3.0


def test_items_depend_only_on_seed():
    for workload in workloads.WORKLOADS.values():
        names = [item.name for item in workload.build(7)]
        assert names == [item.name for item in workload.build(7)]
        assert names != [item.name for item in workload.build(8)]
        # nearest rank leaves at least ten samples beyond the tail percentile
        assert workload.min_items - math.ceil(workload.tail_q * workload.min_items) >= 10


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in run.per_layer_spec()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
