"""The placement workload, ``vcycle-50k``.

It places one generated 50 000-cell, 100-row circuit with the 2-level
V-cycle (``multilevel_levels=2``, library defaults otherwise) and
legalizes it, making the calls :func:`repro.api.place` makes with the same
arguments: ``MultilevelPlacer(...).place()``, then ``final_placement`` and
``hpwl_meters``.

The circuit and the placer seed are fixed.  ``--seed`` does not reach the
placer: the placer's stop rule is chaotic in its input.  Measured with flat
placement on this circuit family, five of seven generator seeds run to the
120-iteration cap while two stall after 60-71 iterations, and on one fixed
circuit the placer's 1e-3 symmetry-breaking jitter alone gives 120, 60 or
94 iterations (legal HPWL 149, 224 or 153 m).  A seeded input would make
``flow_s`` bimodal, and no run that fits the time budget could average
that out.  Every run therefore places bit-identical input, and
``core.iterations``, ``core.cg_iters`` and the quality metrics repeat
exactly.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from harness import RunResult, Tracer, median, peak_rss_mb_self
from metrics import FLOW_LEAVES, LAYER_NAMES

#: The circuit the placement workload places.
CIRCUIT = {"name": "kw50k", "num_cells": 50_000, "num_rows": 100, "seed": 0}
#: Toy-size stand-in for the self-check.
TOY_CIRCUIT = {"name": "kw50k", "num_cells": 400, "num_rows": 8, "seed": 0}
#: The placer seed (``PlacerConfig.seed``, i.e. ``repro.api.place``'s
#: default ``seed=0``).
PLACER_SEED = 0
#: V-cycle depth of the placement workload.
LEVELS = 2
#: Circuit generations per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Telemetry span name -> per-layer metric (placement workload).
TELEMETRY_LAYERS = {
    "coarsen": "netlist.coarsen_s",
    "assemble": "core.assemble_s",
    "hold": "core.hold_s",
    "solve": "core.solve_s",
    "stats": "core.stats_s",
    "expand": "core.expand_s",
    "density": "core.density_s",
    "poisson": "core.poisson_s",
    "sample": "core.sample_s",
    "snap": "legalize.snap_s",
    "improve": "legalize.improve_s",
}


def generate(spec: Dict):
    from repro.netlist.generator import GeneratorSpec, generate_circuit

    return generate_circuit(GeneratorSpec(**spec))


def positions_hash(placement) -> str:
    """SHA-256 over the float64 coordinate bytes, x then y: the digest
    ``FlowResult.positions_hash`` gives, computed here so the benchmark
    does not import the program's own bench harness."""
    digest = hashlib.sha256()
    digest.update(placement.x.astype("<f8", copy=False).tobytes())
    digest.update(placement.y.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()


@dataclass
class Flow:
    """One place + legalize flow and what the benchmark checks on it."""

    seconds: float = math.nan
    setup_s: float = math.nan
    place_s: float = math.nan
    legalize_s: float = math.nan
    hpwl_s: float = math.nan
    global_hpwl_m: float = math.nan
    legal_hpwl_m: float = math.nan
    iterations: int = 0
    cg_iters: int = 0
    escalations: int = 0
    handoff_overflow: float = math.nan
    handoff_empty_square: float = math.nan
    mean_disp_um: float = math.nan
    max_disp_um: float = math.nan
    legal_hash: str = ""
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_flow(circuit, telemetry=None, tracer: Optional[Tracer] = None,
             trace: str = "") -> Flow:
    """Place and legalize *circuit*; never raises (a failure is recorded
    in :attr:`Flow.error`).  With *tracer*, each layer call is a span of
    trace *trace*, and *telemetry*'s spans are imported under them."""
    from repro.core import PlacerConfig
    from repro.core.multilevel import MultilevelPlacer
    from repro.evaluation import hpwl_meters
    from repro.legalize import final_placement
    from repro.testing.legal import assert_legal

    def timed(name, fn):
        if tracer is None:
            t0 = time.perf_counter()
            value = fn()
            return value, time.perf_counter() - t0, None
        with tracer.span(name, trace) as span:
            value = fn()
        return value, span["end"] - span["start"], span["id"]

    flow = Flow()
    netlist, region = circuit.netlist, circuit.region
    cfg = PlacerConfig(seed=PLACER_SEED, multilevel_levels=LEVELS)
    try:
        placer, flow.setup_s, _ = timed(
            "core.setup", lambda: MultilevelPlacer(
                netlist, region, cfg, refine_iterations=None,
                telemetry=telemetry,
            ),
        )
        ml, flow.place_s, place_id = timed("core.place", placer.place)
        result = ml.refine_result
        histories = [r.history for r in ml.coarse_results]
        histories.append(result.history)
        flow.iterations = ml.total_iterations
        flow.escalations = result.recovery_escalations + sum(
            r.recovery_escalations for r in ml.coarse_results
        )
        leg_kwargs = {} if telemetry is None else {"telemetry": telemetry}
        legal, flow.legalize_s, legal_id = timed(
            "legalize", lambda: final_placement(
                result.placement, region,
                bands=cfg.legalize_bands,
                threads=cfg.legalize_threads,
                improver_min_gain=cfg.improver_min_gain,
                **leg_kwargs,
            ),
        )
        flow.seconds = flow.setup_s + flow.place_s + flow.legalize_s
        flow.legal_hpwl_m, flow.hpwl_s, _ = timed(
            "evaluation.hpwl", lambda: hpwl_meters(legal)
        )
    except Exception as exc:  # noqa: BLE001 - a raising flow is a failed one
        flow.error = f"{type(exc).__name__}: {exc}"
        return flow

    if tracer is not None and telemetry is not None:
        tracer.import_telemetry(
            telemetry, trace, place_id, {"legalize": legal_id}
        )
    flow.global_hpwl_m = hpwl_meters(result.placement)
    flow.cg_iters = sum(s.cg_iterations for h in histories for s in h)
    last = result.history[-1]
    flow.handoff_overflow = last.overflow_fraction
    flow.handoff_empty_square = last.empty_square_ratio
    movable = netlist.movable_indices
    moved = legal.displacement_from(result.placement)[movable]
    flow.mean_disp_um = float(moved.mean())
    flow.max_disp_um = float(moved.max())
    flow.legal_hash = positions_hash(legal)
    finite = all(
        np.all(np.isfinite(a))
        for a in (result.placement.x, result.placement.y, legal.x, legal.y)
    ) and math.isfinite(flow.legal_hpwl_m)
    if not finite:
        flow.error = "non-finite coordinates or HPWL"
        return flow
    try:
        assert_legal(legal, region, reference=result.placement)
    except AssertionError as exc:
        flow.error = f"illegal placement: {exc}"
    return flow


def _warm_up(circuit) -> None:
    """Fill the placer's per-process caches (FFT kernels, pin arrays,
    lazy imports) with a two-iteration run, so the two flows the traced
    run compares both start warm."""
    from repro.core import PlacerConfig
    from repro.core.multilevel import MultilevelPlacer

    cfg = PlacerConfig(seed=PLACER_SEED, multilevel_levels=LEVELS,
                       max_iterations=2)
    MultilevelPlacer(circuit.netlist, circuit.region, cfg,
                     refine_iterations=2).place()


def run_placement(trace: bool, seconds: float,
                  spec: Dict = CIRCUIT) -> RunResult:
    """One ``vcycle-50k`` run.  Timed: set up :data:`SETUP_REPEATS` times,
    then run whole flows for about *seconds* (see :func:`timed_flows`) and
    report their medians.  Traced: one set-up, a warm-up, one untraced and
    one traced flow."""
    out = RunResult()
    out.info["circuit"] = dict(spec)
    out.info["placer_seed"] = PLACER_SEED
    out.info["multilevel_levels"] = LEVELS
    if trace:
        return _traced_placement(out, spec)

    setup_times = []
    circuit = None
    for _ in range(SETUP_REPEATS):
        circuit = None  # free the previous copy before building the next
        t0 = time.perf_counter()
        circuit = generate(spec)
        setup_times.append(time.perf_counter() - t0)
    flows = timed_flows(circuit, seconds)
    out.attempted = len(flows)
    out.failed = sum(not f.ok for f in flows)
    out.info["cells"] = circuit.netlist.num_cells
    out.info["setup_samples_s"] = setup_times
    out.info["flows"] = [_flow_info(f) for f in flows]
    _flow_checks(out, flows)
    if not out.failed:
        out.e2e = _flow_e2e(flows, median(setup_times))
    return out


def timed_flows(circuit, seconds: float) -> List[Flow]:
    """Whole flows, back to back, for about *seconds*: another flow starts
    while at least half a flow's time (at the last flow's pace) is left.
    The first always runs, and a failed flow ends the loop.  At
    ``--seconds 50`` that is three or four flows of 11-20 s."""
    flows: List[Flow] = []
    spent = 0.0
    while True:
        flow = run_flow(circuit)
        flows.append(flow)
        if not flow.ok:
            return flows
        spent += flow.seconds
        if seconds - spent < flow.seconds / 2:
            return flows


def _flow_e2e(flows: List[Flow], setup_s: float) -> Dict[str, float]:
    """End-to-end metrics of finished flows: each flow is one job."""
    seconds = [f.seconds for f in flows]
    return {
        "setup_s": setup_s,
        "flow_s": median(seconds),
        "legal_hpwl_m": median([f.legal_hpwl_m for f in flows]),
        "job_p50_s": median(seconds),
        "peak_rss_mb": peak_rss_mb_self(),
        "ok_fraction": 1.0,
    }


def _traced_placement(out: RunResult, spec: Dict) -> RunResult:
    from repro import Telemetry

    tracer = Tracer()
    out.tracer = tracer
    with tracer.span("netlist.generate", "setup") as gen:
        circuit = generate(spec)
    with tracer.span("warm_up", "setup"):
        _warm_up(circuit)
    plain = run_flow(circuit)
    traced = run_flow(circuit, telemetry=Telemetry(),
                      tracer=tracer, trace="flow-1")
    flows = [plain, traced]
    out.attempted = 2
    out.failed = sum(not f.ok for f in flows)
    out.info["cells"] = circuit.netlist.num_cells
    out.info["flows"] = [_flow_info(f) for f in flows]
    _flow_checks(out, flows)
    if out.failed:
        return out
    layers = {name: 0.0 for name in LAYER_NAMES}
    layers["netlist.generate_s"] = gen["end"] - gen["start"]
    for span_name, metric_name in TELEMETRY_LAYERS.items():
        layers[metric_name] = tracer.seconds(span_name, source="telemetry")
    # The constructor, plus each level's placer, built inside place()
    # under a telemetry "setup" span.
    layers["core.setup_s"] = traced.setup_s + tracer.seconds(
        "setup", source="telemetry"
    )
    layers.update({
        "core.place_s": traced.place_s,
        "core.iterations": traced.iterations,
        "core.cg_iters": traced.cg_iters,
        "core.global_hpwl_m": traced.global_hpwl_m,
        "core.handoff_overflow": traced.handoff_overflow,
        "core.handoff_empty_square": traced.handoff_empty_square,
        "core.escalations": traced.escalations,
        "legalize.wall_s": traced.legalize_s,
        "legalize.mean_disp_um": traced.mean_disp_um,
        "legalize.max_disp_um": traced.max_disp_um,
        "legalize.hpwl_ratio": traced.legal_hpwl_m / traced.global_hpwl_m,
        "evaluation.hpwl_s": traced.hpwl_s,
        "observability.trace_overhead_frac": traced.seconds / plain.seconds,
        "observability.span_coverage_frac":
            sum(layers[name] for name in FLOW_LEAVES) / traced.seconds,
    })
    out.layers = layers
    out.e2e = _flow_e2e([plain], layers["netlist.generate_s"])
    return out


def _flow_info(flow: Flow) -> Dict:
    return {
        "ok": flow.ok, "error": flow.error, "seconds": flow.seconds,
        "iterations": flow.iterations, "cg_iters": flow.cg_iters,
        "global_hpwl_m": flow.global_hpwl_m,
        "legal_hpwl_m": flow.legal_hpwl_m,
        "handoff_overflow": flow.handoff_overflow,
        "positions_hash": flow.legal_hash,
    }


def _flow_checks(out: RunResult, flows: List[Flow]) -> None:
    for i, flow in enumerate(flows):
        out.checks.append((
            f"flow {i + 1} finite and legal", flow.ok, flow.error or "",
        ))
    hashes = sorted({f.legal_hash for f in flows if f.ok})
    out.checks.append((
        "one positions hash across the run's flows",
        len(hashes) <= 1, ", ".join(hashes),
    ))
