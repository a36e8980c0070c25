"""Fault-tolerant placement service: pool, supervisor, admission.

The one execution substrate: every placement job that runs in another
process — a socket submit, a ``repro serve`` job file, a
:func:`repro.api.place_many` batch or a ``repro sweep`` — goes through
this package, which keeps placing under real-world failure — worker
processes that die, hang, start slowly, or tear a checkpoint mid-write —
without losing answers or changing them.  The guarantees:

- every admitted job either completes with an HPWL **bit-identical** to a
  serial run of the same spec (retries and cross-worker checkpoint
  migration included), or fails with a structured, attributed reason;
- jobs the service cannot serve are shed at admission with a reason, not
  queued without bound;
- every lifecycle transition is one event in a JSONL trace, and the
  summary report is computed from the same counters the trace writes.

Layering (each module only knows the one below):

- :mod:`~repro.service.pool` — supervised worker processes: pipes,
  heartbeats, sentinels, capped-backoff respawns;
- :mod:`~repro.service.supervisor` — priority queue, per-job watchdogs,
  retry policy, checkpoint migration, result cache, drain;
- :mod:`~repro.service.admission` — bounded queue, tenant quotas,
  lifecycle (accepting/draining/closed);
- :mod:`~repro.service.jobs` — job specs and results, retry policy,
  records;
- :mod:`~repro.service.cache` — signature-keyed ``FlowResult`` LRU;
- :mod:`~repro.service.progress` — per-job progress fan-out;
- :mod:`~repro.service.net` — the ``repro-wire/1`` TCP front end;
- :mod:`~repro.service.loadgen` — open-loop Poisson load harness.

Clients should reach all of this through :class:`repro.api.Client`.
"""

from .admission import AdmissionController, AdmissionDecision, SHED_REASONS
from .cache import ResultCache, job_signature
from .jobs import (
    BATCH_SCHEMA,
    FAILURE_CLASSES,
    JOB_SCHEMA,
    AttemptRecord,
    BatchResult,
    JobRecord,
    JobResult,
    JobState,
    PlacementJob,
    RetryPolicy,
    SERVICE_SCHEMA,
    ServiceJob,
    SubmitResult,
    classify_failure,
)
from .loadgen import LOADGEN_SCHEMA, LoadgenConfig, run_loadgen
from .net import (
    MAX_FRAME_BYTES,
    PlacementServer,
    WIRE_SCHEMA,
    WireClient,
    WireError,
)
from .pool import WorkerDeath, WorkerHandle, WorkerPool, resolve_mp_context
from .progress import PROGRESS_EVENT, ProgressBroker, RESULT_EVENT
from .supervisor import PlacementService, ServiceConfig, serve_jobs

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AttemptRecord",
    "BATCH_SCHEMA",
    "BatchResult",
    "FAILURE_CLASSES",
    "JOB_SCHEMA",
    "JobRecord",
    "JobResult",
    "JobState",
    "LOADGEN_SCHEMA",
    "LoadgenConfig",
    "MAX_FRAME_BYTES",
    "PROGRESS_EVENT",
    "PlacementJob",
    "PlacementServer",
    "PlacementService",
    "ProgressBroker",
    "RESULT_EVENT",
    "ResultCache",
    "RetryPolicy",
    "SERVICE_SCHEMA",
    "SHED_REASONS",
    "ServiceJob",
    "ServiceConfig",
    "SubmitResult",
    "WIRE_SCHEMA",
    "WireClient",
    "WireError",
    "WorkerDeath",
    "WorkerHandle",
    "WorkerPool",
    "classify_failure",
    "job_signature",
    "resolve_mp_context",
    "run_loadgen",
    "serve_jobs",
]
