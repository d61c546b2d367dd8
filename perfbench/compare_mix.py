"""Compare the mix of work of two traced runs of one workload.

    python3 perfbench/compare_mix.py .perfbench_out/result-smoothed-1-trace1.json \
        .perfbench_out/result-smoothed-2-trace1.json

For every layer it prints the share of the traced pass time spent busy
in that layer under each seed.  A share may move by at most the wall_s
bound of BENCHMARK.json, taken relative to the larger of the first share
and 5%; the exit code is 1 if any layer moves further, so a seed cannot
pick inputs that are easy for one layer.
"""

import json
import statistics
import sys
from pathlib import Path

FLOOR = 0.05


def shares(record):
    wall = statistics.median(record["traced_pass_times"])
    return {name[: -len(".busy_s")]: m["value"] / wall
            for name, m in record["metrics"].items() if name.endswith(".busy_s")}


def main(first_path: str, second_path: str) -> int:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    first = json.loads(Path(first_path).read_text(encoding="utf-8"))
    second = json.loads(Path(second_path).read_text(encoding="utf-8"))
    a, b = shares(first), shares(second)
    print(f"| layer | seed {first['seed']} | seed {second['seed']} |")
    print("| --- | --- | --- |")
    moved = []
    for layer in a:
        if a[layer] or b[layer]:
            print(f"| `{layer}` | {a[layer]:.1%} | {b[layer]:.1%} |")
        if abs(b[layer] - a[layer]) > bound * max(a[layer], FLOOR):
            moved.append(layer)
    for layer in moved:
        print(f"share of {layer} moved beyond the bound {bound}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
