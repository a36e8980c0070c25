"""Job specs, results, retry policy and per-job records of the service.

:class:`PlacementJob` is the pure, picklable placement spec (design +
config + seed) a worker process runs; :class:`JobResult` is what one run
returns and :class:`BatchResult` folds a list of them into the
``repro-batch/1`` summary :meth:`repro.api.Client.map` hands back.  A
:class:`ServiceJob` wraps a placement spec with the serving concerns:
identity (``job_id``), queue ``priority``, a ``tenant`` for quota
accounting, a hard per-job wall-clock ``timeout_seconds`` watchdog, and a
:class:`RetryPolicy`.

Because every job is a deterministic pure function of its spec (the
paper's generic-flow framing), retrying a job — on the same worker or a
migrated one — can never change its answer, only its wall-clock.  That is
what makes supervision at this level *sound*: the supervisor reasons
about processes and time; placement results stay bit-identical.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..api import FlowResult
from ..core import PlacerConfig

BATCH_SCHEMA = "repro-batch/1"
#: Round-trip schema tag for :meth:`JobResult.to_dict`.
RESULT_SCHEMA = "repro-jobresult/1"


@dataclass(frozen=True)
class PlacementJob:
    """One placement run: a design + config + seed.

    *source* is anything :func:`repro.api.resolve_source` accepts; prefer
    name/path strings over live netlist objects when fanning out to worker
    processes — they pickle in bytes and resolve deterministically in the
    worker.  *config* is a :class:`~repro.core.config.PlacerConfig` or its
    canonical ``to_dict()`` form (the job normalizes to the dict form so
    specs serialize identically everywhere); *seed* overrides the config's
    seed, exactly like :func:`repro.api.place`.

    ``inject_faults`` is test support for failure-isolation coverage: a
    tuple of ``(site, kwargs)`` pairs resolved against
    :mod:`repro.testing.faults` (e.g. ``(("corrupt_field", {"at_iteration":
    1}),)``) and installed around the run *inside the worker*, so one job
    can be driven into a controlled failure without touching its siblings.
    """

    source: Any
    seed: int = 0
    config: Optional[Mapping[str, Any]] = None
    name: Optional[str] = None
    legalize: bool = True
    max_iterations: Optional[int] = None
    scale: float = 0.2
    utilization: float = 0.8
    inject_faults: Tuple[Tuple[str, Dict[str, Any]], ...] = ()

    def config_dict(self) -> Dict[str, Any]:
        """The job's config in canonical dict form (seed applied)."""
        cfg = self.config
        if isinstance(cfg, PlacerConfig):
            data = cfg.to_dict()
        elif cfg:
            data = PlacerConfig.from_dict(cfg).to_dict()  # validate keys
        else:
            data = PlacerConfig().to_dict()
        data["seed"] = int(self.seed)
        return data

    def display_name(self, index: int) -> str:
        """Stable human-readable job label (used for traces and reports)."""
        if self.name:
            return self.name
        if isinstance(self.source, (str, Path)):
            base = Path(str(self.source)).stem
        else:
            base = getattr(self.source, "name", None) or getattr(
                getattr(self.source, "netlist", None), "name", None
            ) or f"job{index}"
        return f"{base}-s{self.seed}"


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job run — success or isolated failure.

    ``ok`` jobs carry the scalar flow summary and, as a worker returns
    them, the full :class:`~repro.api.FlowResult` in ``flow`` (the
    supervisor drops it from stored records once terminal watchers have
    seen it); failed jobs carry ``error``/``error_type`` instead and never
    poison their siblings.
    """

    name: str
    index: int
    seed: int
    ok: bool
    hpwl_m: Optional[float] = None
    legal_hpwl_m: Optional[float] = None
    final_hpwl_m: Optional[float] = None
    iterations: int = 0
    converged: bool = False
    timed_out: bool = False
    seconds: float = 0.0
    recovery_escalations: int = 0
    error: Optional[str] = None
    error_type: Optional[str] = None
    trace_path: Optional[str] = None
    #: Per-phase wall-clock totals from the worker's telemetry recorder.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Full flow result (with placements), when it is still attached.
    flow: Optional[FlowResult] = None
    #: Iteration the run resumed from when a valid checkpoint was picked
    #: up (``None`` for a fresh start) — how the service proves migration.
    resumed_iteration: Optional[int] = None
    #: SHA-256 over the final placement's coordinate bytes (same digest as
    #: :func:`repro.observability.bench.placement_hash`).  Always computed
    #: worker-side for successful jobs, even when the coordinate arrays
    #: themselves are dropped — bit-exact identity travels for free.
    positions_hash: Optional[str] = None

    def summary(self) -> Dict[str, Any]:
        """JSON-safe scalar summary of this job."""
        return {
            "name": self.name,
            "index": self.index,
            "seed": self.seed,
            "ok": self.ok,
            "hpwl_m": self.hpwl_m,
            "legal_hpwl_m": self.legal_hpwl_m,
            "final_hpwl_m": self.final_hpwl_m,
            "iterations": self.iterations,
            "converged": self.converged,
            "timed_out": self.timed_out,
            "seconds": round(self.seconds, 6),
            "recovery_escalations": self.recovery_escalations,
            "error": self.error,
            "error_type": self.error_type,
            "trace_path": self.trace_path,
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "resumed_iteration": self.resumed_iteration,
            "positions_hash": self.positions_hash,
        }

    def to_dict(self, *, placements: bool = False) -> Dict[str, Any]:
        """Versioned round-trip form (wire frames, spool results).

        With ``placements=True`` the embedded :class:`FlowResult` carries
        its coordinate arrays (see :meth:`FlowResult.to_dict`); otherwise
        only scalars and the positions hash travel.
        """
        data = self.summary()
        data["schema"] = RESULT_SCHEMA
        data["flow"] = (
            self.flow.to_dict(placements=placements)
            if self.flow is not None else None
        )
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any], *, netlist=None) -> "JobResult":
        """Rebuild from :meth:`to_dict`.

        The embedded flow is reconstructed only when it carried coordinate
        arrays and *netlist* names the design they belong to; otherwise
        ``flow`` stays ``None`` and the scalar summary stands alone.
        """
        schema = data.get("schema")
        if schema != RESULT_SCHEMA:
            raise ValueError(
                f"expected schema {RESULT_SCHEMA!r}, got {schema!r}"
            )
        flow = None
        flow_data = data.get("flow")
        if flow_data is not None and netlist is not None and (
            flow_data.get("placement") is not None
        ):
            flow = FlowResult.from_dict(flow_data, netlist=netlist)
        return cls(
            name=str(data["name"]),
            index=int(data.get("index", 0)),
            seed=int(data.get("seed", 0)),
            ok=bool(data["ok"]),
            hpwl_m=data.get("hpwl_m"),
            legal_hpwl_m=data.get("legal_hpwl_m"),
            final_hpwl_m=data.get("final_hpwl_m"),
            iterations=int(data.get("iterations", 0)),
            converged=bool(data.get("converged", False)),
            timed_out=bool(data.get("timed_out", False)),
            seconds=float(data.get("seconds", 0.0)),
            recovery_escalations=int(data.get("recovery_escalations", 0)),
            error=data.get("error"),
            error_type=data.get("error_type"),
            trace_path=data.get("trace_path"),
            phases=dict(data.get("phases") or {}),
            flow=flow,
            resumed_iteration=data.get("resumed_iteration"),
            positions_hash=data.get("positions_hash"),
        )


@dataclass(frozen=True)
class BatchResult:
    """Aggregate outcome of a batch run.

    Carries every :class:`JobResult` (in job order), the batch wall-clock,
    and derived aggregates: best/median HPWL over successful jobs, the
    serial-time estimate (sum of in-worker job seconds) and the implied
    speedup of running them concurrently.
    """

    jobs: Tuple[JobResult, ...]
    wall_seconds: float
    workers: int
    mp_context: str

    @property
    def ok_jobs(self) -> Tuple[JobResult, ...]:
        return tuple(j for j in self.jobs if j.ok)

    @property
    def failed_jobs(self) -> Tuple[JobResult, ...]:
        return tuple(j for j in self.jobs if not j.ok)

    @property
    def hpwls(self) -> Tuple[float, ...]:
        """Final HPWL of every successful job, in job order."""
        return tuple(j.final_hpwl_m for j in self.ok_jobs)

    @property
    def best(self) -> Optional[JobResult]:
        """The successful job with the lowest final HPWL (None if all failed)."""
        ok = self.ok_jobs
        return min(ok, key=lambda j: j.final_hpwl_m) if ok else None

    @property
    def best_hpwl_m(self) -> Optional[float]:
        job = self.best
        return job.final_hpwl_m if job is not None else None

    @property
    def median_hpwl_m(self) -> Optional[float]:
        hpwls = self.hpwls
        return float(statistics.median(hpwls)) if hpwls else None

    @property
    def serial_seconds_estimate(self) -> float:
        """Sum of per-job in-worker seconds ≈ serial wall-clock."""
        return float(sum(j.seconds for j in self.jobs))

    @property
    def speedup_estimate(self) -> float:
        """Serial-time estimate over batch wall-clock (1.0 when serial)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.serial_seconds_estimate / self.wall_seconds

    def merged_phases(self) -> Dict[str, float]:
        """Per-phase wall-clock summed over all jobs' telemetry."""
        merged: Dict[str, float] = {}
        for job in self.jobs:
            for phase, seconds in job.phases.items():
                merged[phase] = merged.get(phase, 0.0) + seconds
        return {k: round(v, 6) for k, v in sorted(merged.items())}

    def summary(self) -> Dict[str, Any]:
        """The merged batch report (schema ``repro-batch/1``), JSON-safe."""
        return {
            "schema": BATCH_SCHEMA,
            "jobs": [j.summary() for j in self.jobs],
            "n_jobs": len(self.jobs),
            "n_ok": len(self.ok_jobs),
            "n_failed": len(self.failed_jobs),
            "workers": self.workers,
            "mp_context": self.mp_context,
            "wall_seconds": round(self.wall_seconds, 6),
            "serial_seconds_estimate": round(self.serial_seconds_estimate, 6),
            "speedup_estimate": round(self.speedup_estimate, 4),
            "best_hpwl_m": self.best_hpwl_m,
            "best_job": self.best.name if self.best is not None else None,
            "median_hpwl_m": self.median_hpwl_m,
            "phases": self.merged_phases(),
        }

    def write_summary(self, path: Union[str, Path]) -> Path:
        """Write :meth:`summary` as indented JSON; returns the path."""
        import json

        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


#: Service report schema.  ``/2`` adds the result-cache block, per-job
#: ``cached`` flags and p999 latency (PR 10); the report shape is
#: otherwise a superset of ``/1``.
SERVICE_SCHEMA = "repro-service/2"
#: Round-trip schema tag for :meth:`JobRecord.to_dict`.
JOB_SCHEMA = "repro-job/1"

#: Failure classes a finished attempt can be attributed to.  The first
#: two are the retryable-by-default ones (:data:`DEFAULT_RETRY_ON`);
#: ``numerical`` is retried only on request, and ``rejected`` (bad input,
#: e.g. ``ValueError``) and ``error`` (anything else) fail fast.
FAILURE_CLASSES = ("worker_death", "timeout", "numerical", "rejected", "error")

#: The failure classes :class:`RetryPolicy` retries unless told otherwise.
DEFAULT_RETRY_ON = ("worker_death", "timeout")


def classify_failure(error_type: Optional[str]) -> str:
    """Map a worker-reported exception type to a retry class.

    ``worker_death`` and ``timeout`` never reach here — the supervisor
    assigns those itself (the worker was killed and reported nothing).
    """
    if error_type == "NumericalHealthError":
        return "numerical"
    if error_type in ("ValueError", "TypeError", "SystemExit"):
        return "rejected"
    return "error"


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, on which failures, and with what backoff to retry.

    ``max_attempts`` counts the first attempt: 3 means one run plus up to
    two retries.  ``retry_on`` names failure classes (see
    :data:`FAILURE_CLASSES`).  The default retries what can go
    differently on another attempt: a dead worker and a timeout.
    ``numerical`` is an opt-in: a job is a deterministic function of its
    spec, so a :class:`~repro.core.health.NumericalHealthError` that
    escaped the in-process recovery ladder diverges again on a retry.
    Requeue delay grows exponentially and is capped:
    ``min(backoff_cap_s, backoff_base_s * 2**(attempt-1))``.
    """

    max_attempts: int = 3
    retry_on: Tuple[str, ...] = DEFAULT_RETRY_ON
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        unknown = set(self.retry_on) - set(FAILURE_CLASSES)
        if unknown:
            raise ValueError(
                f"unknown retry classes {sorted(unknown)}; choose from "
                f"{FAILURE_CLASSES}"
            )

    def delay_s(self, attempt: int) -> float:
        """Requeue delay after failed attempt number *attempt* (1-based)."""
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, attempt - 1)),
        )

    def should_retry(self, failure_class: str, attempt: int) -> bool:
        """True if attempt number *attempt* (1-based) may be retried."""
        return attempt < self.max_attempts and failure_class in self.retry_on

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "retry_on": list(self.retry_on),
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "RetryPolicy":
        if not data:
            return cls()
        return cls(
            max_attempts=int(data.get("max_attempts", 3)),
            retry_on=tuple(data.get("retry_on", DEFAULT_RETRY_ON)),
            backoff_base_s=float(data.get("backoff_base_s", 0.05)),
            backoff_cap_s=float(data.get("backoff_cap_s", 2.0)),
        )


@dataclass(frozen=True)
class ServiceJob:
    """One submitted unit of service work.

    ``job`` is the pure placement spec; everything else is scheduling
    metadata.  Lower ``priority`` runs first (0 is the default lane).
    ``timeout_seconds``/``retry`` of ``None`` fall back to the service
    defaults.
    """

    job: PlacementJob
    job_id: str
    priority: int = 0
    tenant: str = "default"
    timeout_seconds: Optional[float] = None
    retry: Optional[RetryPolicy] = None

    @classmethod
    def from_spec(cls, spec: Dict[str, Any], job_id: str) -> "ServiceJob":
        """Build from a JSON job spec (the ``repro submit`` file format,
        and the body of a ``repro-wire/1`` submit frame).

        ``netlist_text`` carries an inline design in the canonical repro
        netlist format (see :func:`repro.netlist.io.netlist_to_string`) —
        the way a wire client ships a live :class:`Netlist` that has no
        name resolvable server-side.  It wins over ``source``.
        """
        known = {
            "id", "source", "netlist_text", "seed", "config", "name",
            "legalize", "max_iterations", "scale", "utilization",
            "inject_faults", "priority", "tenant", "timeout_seconds",
            "retry",
        }
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown job-spec keys {sorted(unknown)}; known keys are "
                f"{sorted(known)}"
            )
        if "source" not in spec and "netlist_text" not in spec:
            raise ValueError("job spec needs a 'source' or 'netlist_text'")
        if spec.get("netlist_text") is not None:
            from ..netlist.io import netlist_from_string

            source: Any = netlist_from_string(spec["netlist_text"])
        else:
            source = spec["source"]
        job = PlacementJob(
            source=source,
            seed=int(spec.get("seed", 0)),
            config=spec.get("config"),
            name=spec.get("name") or job_id,
            legalize=bool(spec.get("legalize", True)),
            max_iterations=spec.get("max_iterations"),
            scale=float(spec.get("scale", 0.2)),
            utilization=float(spec.get("utilization", 0.8)),
            inject_faults=tuple(
                (site, dict(kwargs))
                for site, kwargs in spec.get("inject_faults", ())
            ),
        )
        retry = spec.get("retry")
        return cls(
            job=job,
            job_id=job_id,
            priority=int(spec.get("priority", 0)),
            tenant=str(spec.get("tenant", "default")),
            timeout_seconds=spec.get("timeout_seconds"),
            retry=RetryPolicy.from_dict(retry) if retry is not None else None,
        )

    def to_spec(self) -> Dict[str, Any]:
        """The JSON job spec this job round-trips through (inverse of
        :meth:`from_spec` — what a wire client puts in a submit frame).

        Name/path sources travel as strings; a live netlist travels as
        ``netlist_text``.  A ``(netlist, region)`` tuple source cannot
        serialize (explicit regions have no canonical text form) and
        raises ``ValueError`` — resolve it to a Bookshelf file first.
        """
        job = self.job
        spec: Dict[str, Any] = {"id": self.job_id}
        source = job.source
        if isinstance(source, (str,)) or hasattr(source, "__fspath__"):
            spec["source"] = str(source)
        else:
            netlist = getattr(source, "netlist", source)
            if isinstance(source, tuple) or not hasattr(netlist, "cells"):
                raise ValueError(
                    "cannot serialize a (netlist, region) tuple source; "
                    "use a name/path source or a bare Netlist"
                )
            from ..netlist.io import netlist_to_string

            spec["netlist_text"] = netlist_to_string(netlist)
        if job.seed:
            spec["seed"] = int(job.seed)
        if job.config is not None:
            spec["config"] = dict(job.config)
        if job.name:
            spec["name"] = job.name
        if not job.legalize:
            spec["legalize"] = False
        if job.max_iterations is not None:
            spec["max_iterations"] = job.max_iterations
        if job.scale != 0.2:
            spec["scale"] = job.scale
        if job.utilization != 0.8:
            spec["utilization"] = job.utilization
        if job.inject_faults:
            spec["inject_faults"] = [
                [site, dict(kwargs)] for site, kwargs in job.inject_faults
            ]
        if self.priority:
            spec["priority"] = self.priority
        if self.tenant != "default":
            spec["tenant"] = self.tenant
        if self.timeout_seconds is not None:
            spec["timeout_seconds"] = self.timeout_seconds
        if self.retry is not None:
            spec["retry"] = self.retry.to_dict()
        return spec


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    SHED = "shed"


@dataclass
class AttemptRecord:
    """One execution attempt of a job on one worker."""

    attempt: int
    worker_id: int
    dispatched_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    outcome: Optional[str] = None  # "done" or a failure class
    error: Optional[str] = None
    resumed_iteration: Optional[int] = None

    def summary(self) -> Dict[str, Any]:
        seconds = None
        if self.finished_at is not None:
            seconds = round(self.finished_at - self.dispatched_at, 6)
        return {
            "attempt": self.attempt,
            "worker": self.worker_id,
            "outcome": self.outcome,
            "error": self.error,
            "seconds": seconds,
            "resumed_iteration": self.resumed_iteration,
        }


@dataclass
class JobRecord:
    """Mutable supervisor-side state of one admitted job."""

    spec: ServiceJob
    seq: int
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.monotonic)
    finished_at: Optional[float] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    result: Optional[JobResult] = None
    failure_class: Optional[str] = None
    reason: Optional[str] = None
    not_before: float = 0.0  # earliest dispatch time (retry backoff)
    #: True when the job was answered from the result cache without
    #: dispatching (its flow is bit-identical to the run that seeded it).
    cached: bool = False
    #: Content signature of the job spec (``None`` when uncacheable).
    signature: Optional[str] = None

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-finish wall-clock, once the job reached an end state."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def summary(self) -> Dict[str, Any]:
        ok = self.state == JobState.DONE
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "attempts": [a.summary() for a in self.attempts],
            "n_attempts": self.attempt_count,
            "latency_s": round(self.latency_s, 6)
            if self.latency_s is not None else None,
            "failure_class": self.failure_class,
            "reason": self.reason,
            "hpwl_m": self.result.hpwl_m if ok and self.result else None,
            "legal_hpwl_m": self.result.legal_hpwl_m
            if ok and self.result else None,
            "final_hpwl_m": self.result.final_hpwl_m
            if ok and self.result else None,
            "iterations": self.result.iterations if ok and self.result else 0,
            "error": self.result.error
            if self.result is not None else self.reason,
            "error_type": self.result.error_type
            if self.result is not None else None,
            "cached": self.cached,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Versioned round-trip form (schema ``repro-job/1``).

        This is the record a ``repro-wire/1`` ``result`` frame carries and
        checkpoint metadata stores: identity, terminal state, outcome and
        the embedded :meth:`JobResult.to_dict` scalars (positions hash
        included, coordinate arrays not).  Worker-attempt timestamps are
        summarized, not round-tripped.
        """
        data = self.summary()
        data["schema"] = JOB_SCHEMA
        data["seq"] = self.seq
        data["signature"] = self.signature
        if isinstance(self.spec.job.source, str):
            data["source"] = self.spec.job.source
        data["result"] = (
            self.result.to_dict(placements=False)
            if self.result is not None else None
        )
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        """Rebuild a client-side view of the record from :meth:`to_dict`.

        The spec is reduced to identity + scheduling metadata (the pure
        job already ran server-side); ``latency_s`` is preserved via the
        stored value, attempt objects are not reconstructed.
        """
        schema = data.get("schema")
        if schema != JOB_SCHEMA:
            raise ValueError(
                f"expected schema {JOB_SCHEMA!r}, got {schema!r}"
            )
        job_id = str(data["job_id"])
        spec = ServiceJob(
            job=PlacementJob(
                source=data.get("source") or job_id, name=job_id
            ),
            job_id=job_id,
            priority=int(data.get("priority", 0)),
            tenant=str(data.get("tenant", "default")),
        )
        record = cls(spec=spec, seq=int(data.get("seq", 0)))
        record.state = JobState(data["state"])
        record.failure_class = data.get("failure_class")
        record.reason = data.get("reason")
        record.cached = bool(data.get("cached", False))
        record.signature = data.get("signature")
        latency = data.get("latency_s")
        record.submitted_at = 0.0
        record.finished_at = float(latency) if latency is not None else None
        result = data.get("result")
        if result is not None:
            record.result = JobResult.from_dict(result)
        return record


@dataclass(frozen=True)
class SubmitResult:
    """What :meth:`PlacementService.submit` returns: admitted or why not."""

    admitted: bool
    job_id: str
    reason: Optional[str] = None
    #: True when the submit was answered from the result cache (the job
    #: is already terminal by the time this returns).
    cached: bool = False


__all__ = [
    "AttemptRecord",
    "BATCH_SCHEMA",
    "BatchResult",
    "FAILURE_CLASSES",
    "JOB_SCHEMA",
    "JobRecord",
    "JobResult",
    "JobState",
    "PlacementJob",
    "RESULT_SCHEMA",
    "RetryPolicy",
    "SERVICE_SCHEMA",
    "ServiceJob",
    "SubmitResult",
    "classify_failure",
]
