"""kwbench: the repository benchmark.

Run from the root of a checkout::

    python3 kwbench/run.py --workload vcycle-50k --seed 1 --seconds 50 --trace 0

Workloads: ``vcycle-50k`` (see ``flows.py``) and ``service-mix`` (see
``servicemix.py``).  ``--trace 0`` is a timed run and reports the
end-to-end metrics; ``--trace 1`` is the separate traced run and reports
the per-layer metrics, writing its spans to ``.kwbench/traces/``.  Every
metric is printed by name with its unit, then the correctness checks,
then one JSON line.  The exit code is non-zero when a check fails or the
workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import environment, metric, pin_blas_threads  # noqa: E402

# Before anything imports numpy.
pin_blas_threads()

from metrics import E2E_NAMES, LAYER_NAMES, UNITS, WORKLOADS  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False):
    """Dispatch one run; *toy* swaps in the self-check's tiny inputs."""
    if name == "service-mix":
        import servicemix

        kwargs = {"sizes": servicemix.TOY_SIZES, "rate": 4.0} if toy else {}
        return servicemix.run_service_mix(ROOT, seed, seconds, trace,
                                          **kwargs)
    import flows

    spec = flows.TOY_CIRCUIT if toy else flows.CIRCUIT
    return flows.run_placement(trace, seconds, spec=spec)


def _terminate(signum, frame):
    """SIGTERM unwinds like an error, so every ``finally`` runs and the
    service-mix server and its workers are stopped before exit."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"kwbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 1

    names = LAYER_NAMES if args.trace else E2E_NAMES
    values = result.layers if args.trace else result.e2e
    env = environment(args.seed, workload=args.workload, **result.info)
    print("environment " + json.dumps(env, sort_keys=True, default=str))
    metrics = {}
    for name in names:
        if name in values:
            metrics[name] = metric(values[name], UNITS[name])
            print(f"metric {name} = {values[name]!r} {UNITS[name]}")
    missing = [name for name in names if name not in values]
    checks = list(result.checks)
    checks.append(("every metric measured", not missing, ", ".join(missing)))
    print(f"failed_fraction = {result.failed}/{result.attempted}")
    for label, passed, detail in checks:
        print(f"check {'PASS' if passed else 'FAIL'}: {label}"
              + (f" ({detail})" if detail else ""))
    if result.tracer is not None:
        path = result.tracer.write(
            ROOT / ".kwbench" / "traces"
            / f"{args.workload}-seed{args.seed}.jsonl"
        )
        print(f"trace {path.relative_to(ROOT)} "
              f"({len(result.tracer.spans)} spans)")
    correct = all(passed for _, passed, _ in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
