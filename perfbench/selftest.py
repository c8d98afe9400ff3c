"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Runs every workload traced, on small inputs, and checks that each
per-layer metric of ``layer_map.json`` records work on exactly the
workloads where the map says its layer works, and none elsewhere. A
wrapper that misses a binding shows up as a zero where work was expected.
It also checks that the metric names agree with ``BENCHMARK.json``, that
every output check passes, and that child spans cover at least 80% of each
workload's top-level call. Exits 1 and lists the problems on failure.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

MIN_COVERAGE = 0.8


def main() -> int:
    layer_map = run.load_layer_map()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected_works = {}
    for layer in layer_map["layers"]:
        for kind in layer["metrics"]:
            metric = layer["name"] if kind == "value" else f"{layer['name']}.{kind}"
            expected_works[metric] = set(layer["works_on"])
    if set(declared) != set(expected_works):
        problems.append("BENCHMARK.json per_layer names differ from layer_map.json: "
                        f"{sorted(set(declared) ^ set(expected_works))}")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from the launcher's")

    for name in run.WORKLOAD_NAMES:
        result = run.run_workload(name, seed=0, seconds=0, trace=True, small=True)
        if not result["correct"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} steps failed")
        metrics = result["per_layer"]
        for metric, works_on in expected_works.items():
            got = metrics.get(metric)
            if got is None:
                problems.append(f"{name}: metric {metric} missing")
                continue
            if got["unit"] != declared.get(metric, got["unit"]):
                problems.append(f"{name}: {metric} unit {got['unit']} != {declared[metric]}")
            if (got["value"] > 0) != (name in works_on):
                want = "work" if name in works_on else "no work"
                problems.append(f"{name}: {metric} = {got['value']!r}, expected {want}")
        coverage = metrics["trace.top_coverage"]["value"]
        if coverage < MIN_COVERAGE:
            problems.append(f"{name}: child spans cover {coverage:.1%} of the top-level call")
        print(f"{name}: {len(metrics)} per-layer metrics, coverage {coverage:.1%}, "
              f"overhead {metrics['trace.overhead']['value']:.2f}x")

    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
