"""The benchmark's metric catalogue: names, units, direction and bounds.

``BENCHMARK.json`` at the repository root must list exactly these
metrics; ``selfcheck.py`` verifies that it does.
"""

from __future__ import annotations

WORKLOADS = ("vcycle-50k", "service-mix")

#: (name, unit, better, bound) — reported by every ``--trace 0`` run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("flow_s", "s", "lower", 0.25),
    ("legal_hpwl_m", "m", "lower", 0.05),
    ("job_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("ok_fraction", "fraction", "higher", 0.05),
)

#: (name, unit, better) — reported by every ``--trace 1`` run.  A layer
#: that does not run on a workload reports 0 there.  README.md maps each
#: to the end-to-end metric it should move.
PER_LAYER = (
    ("netlist.generate_s", "s", "lower"),
    ("netlist.coarsen_s", "s", "lower"),
    ("core.setup_s", "s", "lower"),
    ("core.place_s", "s", "lower"),
    ("core.assemble_s", "s", "lower"),
    ("core.hold_s", "s", "lower"),
    ("core.solve_s", "s", "lower"),
    ("core.stats_s", "s", "lower"),
    ("core.expand_s", "s", "lower"),
    ("core.iterations", "count", "lower"),
    ("core.cg_iters", "count", "lower"),
    ("core.density_s", "s", "lower"),
    ("core.poisson_s", "s", "lower"),
    ("core.sample_s", "s", "lower"),
    ("core.global_hpwl_m", "m", "lower"),
    ("core.handoff_overflow", "fraction", "lower"),
    ("core.handoff_empty_square", "cells", "lower"),
    ("core.escalations", "count", "lower"),
    ("legalize.wall_s", "s", "lower"),
    ("legalize.snap_s", "s", "lower"),
    ("legalize.improve_s", "s", "lower"),
    ("legalize.mean_disp_um", "um", "lower"),
    ("legalize.max_disp_um", "um", "lower"),
    ("legalize.hpwl_ratio", "ratio", "lower"),
    ("evaluation.hpwl_s", "s", "lower"),
    ("service.submit_p50_s", "s", "lower"),
    ("service.hit_p50_s", "s", "lower"),
    ("service.job_p90_s", "s", "lower"),
    ("service.cold_p50_s", "s", "lower"),
    ("service.attempt_p50_s", "s", "lower"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.queue_wait_p90_s", "s", "lower"),
    ("service.queue_depth_max", "count", "lower"),
    ("service.hit_ratio", "fraction", "higher"),
    ("service.retries", "count", "lower"),
    ("service.worker_restarts", "count", "lower"),
    ("service.shed", "count", "lower"),
    ("service.gen_lag_p90_s", "s", "lower"),
    ("service.close_s", "s", "lower"),
    ("observability.trace_overhead_frac", "ratio", "lower"),
    ("observability.span_coverage_frac", "fraction", "higher"),
)

E2E_NAMES = tuple(m[0] for m in END_TO_END)
LAYER_NAMES = tuple(m[0] for m in PER_LAYER)
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}

#: Leaf layers whose sum must cover most of a traced placement flow.
FLOW_LEAVES = (
    "netlist.coarsen_s", "core.setup_s", "core.assemble_s", "core.density_s",
    "core.poisson_s", "core.sample_s", "core.hold_s", "core.solve_s",
    "core.stats_s", "core.expand_s", "legalize.snap_s", "legalize.improve_s",
)
