"""Fast self-check of the benchmark itself (runs in well under a minute)::

    python3 kwbench/selfcheck.py

Checks that the arrival schedule is a pure function of the seed, that
every metric name uses only ``[A-Za-z0-9_.-]`` and that ``BENCHMARK.json``
lists exactly the catalogue in ``metrics.py``, and makes a smoke pass of
each workload at toy size, timed and traced, requiring every named metric.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run  # sets up sys.path and pins BLAS threads before numpy loads
from harness import check_names
from metrics import E2E_NAMES, END_TO_END, LAYER_NAMES, PER_LAYER, WORKLOADS


def check(condition: bool, label: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}", flush=True)
    if not condition:
        sys.exit(1)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from servicemix import build_schedule

    a = build_schedule(7, 30.0, 2.0, 5)
    check(a == build_schedule(7, 30.0, 2.0, 5) and len(a) > 10,
          "schedule is deterministic in the seed")
    check(a != build_schedule(8, 30.0, 2.0, 5),
          "another seed gives another schedule")
    repeats = sum(x.repeat for x in a)
    check(0 < repeats < len(a), "schedule mixes repeats and fresh pairs")

    names = E2E_NAMES + LAYER_NAMES
    check(not check_names(names) and len(set(names)) == len(names),
          "metric names are unique and use only [A-Za-z0-9_.-]")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the workloads")
    check([[m["name"], m["unit"], m["better"], m["bound"]]
           for m in spec["end_to_end"]] == [list(m) for m in END_TO_END],
          "BENCHMARK.json end_to_end matches metrics.py")
    check([[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]]
          == [list(m) for m in PER_LAYER],
          "BENCHMARK.json per_layer matches metrics.py")

    for workload in WORKLOADS:
        for trace in (False, True):
            if workload == "service-mix" and not trace:
                continue  # the traced pass below also yields e2e metrics
            result = run.run_workload(workload, 3, 2.0, trace, toy=True)
            label = f"{workload} toy {'traced' if trace else 'timed'}"
            check(all(ok for _, ok, _ in result.checks),
                  f"{label}: correctness checks pass")
            check(set(result.e2e) == set(E2E_NAMES),
                  f"{label}: every end-to-end metric")
            if trace:
                check(set(result.layers) == set(LAYER_NAMES),
                      f"{label}: every per-layer metric")
            check(result.failed == 0 and result.attempted > 0,
                  f"{label}: nothing failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
