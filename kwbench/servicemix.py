"""The ``service-mix`` workload: open-loop Poisson arrivals against
``repro serve --listen`` in its own process.

Set-up generates :data:`SIZES` circuits from fixed generator seeds and
writes them as netlist files.  Every run offers the same cold work: a
fixed, file-balanced set of (file, placer seed) pairs, each submitted once
fresh, with a third of all arrivals repeating an earlier pair, so cold
placements that fill the result cache run beside cache reads.  The
arrival times are one fixed draw of a Poisson process; ``--seed`` draws
the order of the fresh pairs and which pairs repeat (see
:func:`build_schedule`).

The generator is this module's own, not ``repro.service.loadgen``: one
thread submits on the schedule over one ``repro.api.Client.connect``
connection, whose reader thread timestamps each result frame.  Latency
runs from the *scheduled* arrival to the result frame, so a stalled submit
is charged to every job it delays; the generator's own lateness is
reported as ``service.gen_lag_p90_s``.
"""

from __future__ import annotations

import os
import random
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from harness import (
    RunResult,
    Tracer,
    median,
    nproc,
    percentile,
    pin_blas_threads,
    tree_peak_rss_mb,
)
from metrics import LAYER_NAMES

#: Cell counts of the circuit files jobs are drawn from: small enough
#: that one worker keeps up with the offered rate.  The 400- and
#: 1200-cell circuits of this generator were left out: most placer seeds
#: run them to the 120-iteration cap (11 and 7 of 12), which would let a
#: few slow cold jobs set the run's tail.  The cap still shows here: one
#: of the 50 fresh pairs of a 50 s run (600 cells, placer seed 9) runs
#: to it.
SIZES = (300, 500, 600, 700, 800)
TOY_SIZES = (60, 120)
#: Generator seed of every circuit file (fixed: see the module docstring).
CIRCUIT_SEED = 0
#: Offered arrival rate, jobs/s.  Waves of 40 distinct cold jobs over
#: these files drained at 3.75 jobs/s with ``--workers 1`` (6.4 with
#: ``--workers 2``) on a 2-core machine, so 1.5/s, a third of it
#: repeats, offers a bit under half the cold capacity.
RATE_PER_S = 1.5
#: Chance that an arrival repeats an earlier (file, seed) pair.
REPEAT_FRACTION = 1.0 / 3.0
#: Seed of the arrival times, the same in every run.  With one worker,
#: how tightly a seed's arrivals bunch sets how long jobs queue: in five
#: interleaved pairs of runs, times drawn per seed spread cold flow_s
#: 0.16 and job_p50_s 0.21 of their medians, fixed times 0.06 and 0.16.
ARRIVAL_SEED = 0
#: Generate-and-write repetitions per timed run; ``setup_s`` uses their
#: median.
SETUP_REPEATS = 3
START_TIMEOUT_S = 30.0
RPC_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 30.0
CLOSE_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Arrival:
    at_s: float
    file: int
    seed: int
    repeat: bool


def build_schedule(seed: int, window_s: float, rate: float,
                   n_files: int) -> List[Arrival]:
    """The whole run's arrivals, drawn up front from *seed* alone.

    Arrival times are one draw of a Poisson process conditioned on its
    count: exactly ``round(rate * window_s)`` points, uniform over the
    window, drawn from :data:`ARRIVAL_SEED`.  Exactly a third of the
    arrivals (never the first) repeat a uniformly chosen earlier pair.
    The fresh arrivals submit a fixed, file-balanced set of (file, placer
    seed) pairs in a shuffled order.  So every run offers the same cold
    work at the same times, and the seed draws the order and which pairs
    repeat.
    """
    rng = random.Random(seed)
    n = max(1, round(rate * window_s))
    times_rng = random.Random(ARRIVAL_SEED)
    times = sorted(times_rng.uniform(0.0, window_s) for _ in range(n))
    repeats = set(rng.sample(range(1, n), int(n * REPEAT_FRACTION)))
    fresh = [(k % n_files, 1 + k // n_files) for k in range(n - len(repeats))]
    rng.shuffle(fresh)
    used: List[Tuple[int, int]] = []
    out: List[Arrival] = []
    for i, t in enumerate(times):
        if i in repeats:
            out.append(Arrival(t, *rng.choice(used), True))
        else:
            used.append(fresh[len(used)])
            out.append(Arrival(t, *used[-1], False))
    return out


def write_circuits(workdir: Path,
                   sizes: Sequence[int]) -> Tuple[List[Path], float]:
    """Generate and save the circuit files; returns their paths and the
    seconds spent generating (writes excluded)."""
    from repro.netlist.generator import GeneratorSpec, generate_circuit
    from repro.netlist.io import save_netlist

    paths, generate_s = [], 0.0
    for n in sizes:
        spec = GeneratorSpec(
            name=f"mix{n}", num_cells=n,
            num_rows=max(4, round((n / 10) ** 0.5)), seed=CIRCUIT_SEED,
        )
        t0 = time.perf_counter()
        circuit = generate_circuit(spec)
        generate_s += time.perf_counter() - t0
        path = workdir / f"mix{n}.netlist"
        save_netlist(circuit.netlist, path)
        paths.append(path)
    return paths, generate_s


def _default_sigint() -> None:
    """Undo an inherited ``SIG_IGN`` for SIGINT (a job started in the
    background of a non-interactive shell has one), so that the server's
    Ctrl-C drain is what :meth:`Server.stop` triggers."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """``python -m repro serve --listen`` as a child process.  Its stderr
    passes through to ours, so a crash shows its traceback."""

    def __init__(self, root: Path, workdir: Path, workers: int):
        self.root = root
        self.workdir = workdir
        self.workers = workers
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> Tuple[str, int]:
        """Launch the server; returns the address it listens on."""
        env = pin_blas_threads(dict(os.environ))
        env["PYTHONPATH"] = str(self.root / "src")
        # A fixed string-hash seed, so dict and set layouts do not change
        # from run to run: over five runs of one schedule, cold flow_s
        # spread 0.16 of its median with a random seed and 0.09 with it.
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--listen",
             "127.0.0.1:0", "--workers", str(self.workers)],
            cwd=self.workdir, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,  # its own group, so kill() gets workers
            preexec_fn=_default_sigint,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError("server did not start listening")
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("server exited before listening")
                if line.startswith("serve: listening on "):
                    host, _, port = line.split()[3].rpartition(":")
                    return host, int(port)

    def peak_rss_mb(self) -> List[float]:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> float:
        """SIGINT the server and wait for it to exit (it drains and prints
        its summary first); returns the seconds that took."""
        t0 = time.perf_counter()
        self.proc.send_signal(signal.SIGINT)
        self.proc.communicate(timeout=CLOSE_TIMEOUT_S)
        return time.perf_counter() - t0

    def kill(self) -> None:
        """Last resort on an error path: SIGKILL the server's process
        group (server and workers) and reap the server."""
        if self.proc is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()


@dataclass
class Outcome:
    """One arrival, as the client saw it."""

    arrival: Arrival
    due: float
    sent: float = 0.0
    submit_s: float = 0.0
    job: str = ""
    admitted: bool = False
    cached: bool = False
    done_at: Optional[float] = None
    record: Optional[Dict] = None
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.done_at - self.due

    @property
    def state(self) -> str:
        if self.error:
            return "error"
        if not self.admitted:
            return "shed"
        if self.record is None:
            return "no-result"
        return str(self.record.get("state"))

    @property
    def result(self) -> Dict:
        return (self.record or {}).get("result") or {}


def drive(client, schedule: Sequence[Arrival],
          paths: Sequence[Path]) -> List[Outcome]:
    """Submit *schedule* open-loop; wait (bounded) for every result."""
    from repro.service.net import WireError

    lock = threading.Lock()
    results: Dict[str, Tuple[float, Dict]] = {}
    armed: set = set()
    finished = threading.Event()
    all_armed = False

    def on_result(frame: Dict) -> None:
        now = time.perf_counter()
        with lock:
            results[str(frame.get("job"))] = (now, frame.get("record"))
            if all_armed and armed <= results.keys():
                finished.set()

    # The wire client's completion tap: called on its reader thread for
    # every terminal result frame.
    client._wire.on_result = on_result
    outcomes: List[Outcome] = []
    t0 = time.perf_counter()
    for arrival in schedule:
        due = t0 + arrival.at_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        o = Outcome(arrival, due, sent=time.perf_counter())
        outcomes.append(o)
        try:
            handle = client.submit(str(paths[arrival.file]),
                                   seed=arrival.seed)
            o.submit_s = time.perf_counter() - o.sent
            o.job, o.admitted = handle.job_id, handle.admitted
            o.cached = handle.cached
            if handle.admitted:
                with lock:
                    armed.add(handle.job_id)
                handle.result(timeout=0)  # arms the terminal watcher only
        except WireError as exc:
            o.error = f"WireError: {exc}"
    with lock:
        all_armed = True
        if armed <= results.keys():
            finished.set()
    finished.wait(DRAIN_TIMEOUT_S)
    with lock:
        for o in outcomes:
            if o.job in results:
                o.done_at, o.record = results[o.job]
    return outcomes


def _p(values: Sequence[float], q: float) -> float:
    """Percentile, 0.0 for an empty sample (a layer that saw no work)."""
    return percentile(values, q) if values else 0.0


def run_service_mix(root: Path, seed: int, seconds: float, trace: bool,
                    sizes: Sequence[int] = SIZES,
                    rate: float = RATE_PER_S) -> RunResult:
    """One ``service-mix`` run with an arrival window of *seconds*."""
    from repro.api import Client

    out = RunResult()
    workdir = root / ".kwbench" / f"service-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # One core is left to the client and the server's front end: with
    # ``--workers nproc`` on two cores, two placements, the server and the
    # client contend, and five interleaved pairs of runs spread 0.20 (cold
    # flow_s) and 0.25 (job_p50_s) of their medians across seeds, against
    # 0.03 and 0.09 with one worker.
    workers = max(1, nproc() - 1)
    schedule = build_schedule(seed, seconds, rate, len(sizes))
    out.info.update({
        "sizes": list(sizes), "circuit_seed": CIRCUIT_SEED,
        "rate_per_s": rate, "window_s": seconds, "workers": workers,
        "offered": len(schedule),
    })
    server = Server(root, workdir, workers)
    client = None
    try:
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            paths, generate_s = write_circuits(workdir, sizes)
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        host, port = server.start()
        client = Client.connect(host, port, timeout=RPC_TIMEOUT_S)
        start_s = time.perf_counter() - t0
        outcomes = drive(client, schedule, paths)
        report = client.report()
        peak = server.peak_rss_mb()
        client.close()
        client = None
        close_s = server.stop()
    finally:
        if client is not None:
            client.close()
        server.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    out.info.update({
        "mp_context": report.get("mp_context"),
        "start_connect_s": start_s,
        "peak_rss_by_process_mb": peak,
    })
    conflicted = _check(out, outcomes)
    ok = [o for o in outcomes
          if o.state == "done" and o.job not in conflicted]
    out.attempted = len(outcomes)
    out.failed = len(outcomes) - len(ok)
    if not ok:
        return out
    lat = [o.latency_s for o in ok]
    cold = [o for o in ok if not o.cached]
    hits = [o for o in ok if o.cached]
    # Per file, its distinct (file, seed) pairs: the fresh set is fixed,
    # so repeats drawn by the seed do not weight the median.
    per_file: Dict[int, Dict[int, float]] = {}
    for o in ok:
        per_file.setdefault(o.arrival.file, {})[o.arrival.seed] = float(
            o.result["legal_hpwl_m"]
        )
    out.info["samples"] = {"jobs": len(lat), "cold": len(cold),
                           "hits": len(hits)}
    out.e2e = {
        "setup_s": median(setup_times) + start_s,
        "flow_s": _p([float(o.result["seconds"]) for o in cold], 50),
        "legal_hpwl_m": sum(median(list(v.values()))
                            for v in per_file.values()),
        "job_p50_s": median(lat),
        "peak_rss_mb": sum(peak),
        "ok_fraction": len(ok) / len(outcomes),
    }
    if trace:
        out.tracer = _trace_jobs(outcomes, report)
        out.layers = _service_layers(
            outcomes, ok, report, generate_s, close_s
        )
    return out


def _check(out: RunResult, outcomes: List[Outcome]) -> set:
    """Correctness checks: every offered job ended, and each (file, seed)
    pair carries one positions hash across cold runs and cache hits.
    Returns the ids of jobs whose pair broke the second rule."""
    states: Dict[str, int] = {}
    for o in outcomes:
        states[o.state] = states.get(o.state, 0) + 1
    out.info["states"] = states
    unended = [o.job or "?" for o in outcomes
               if o.state in ("error", "no-result")]
    out.checks.append((
        "every offered job reached a terminal state", not unended,
        ", ".join(unended[:5]),
    ))
    hashes: Dict[Tuple[int, int], set] = {}
    for o in outcomes:
        if o.state == "done":
            key = (o.arrival.file, o.arrival.seed)
            hashes.setdefault(key, set()).add(o.result.get("positions_hash"))
    conflicts = {k for k, v in hashes.items() if len(v) != 1}
    out.checks.append((
        "one positions hash per (file, seed) pair", not conflicts,
        ", ".join(map(str, sorted(conflicts)[:5])),
    ))
    return {o.job for o in outcomes
            if (o.arrival.file, o.arrival.seed) in conflicts}


def _queue_waits(report: Dict) -> List[float]:
    """Per dispatched job: submit-to-finish minus the attempts' seconds."""
    waits = []
    for job in report.get("jobs") or []:
        attempts = [a["seconds"] for a in job.get("attempts") or []
                    if a.get("seconds") is not None]
        if attempts and job.get("latency_s") is not None:
            waits.append(max(0.0, job["latency_s"] - sum(attempts)))
    return waits


def _service_layers(outcomes, ok, report, generate_s, close_s) -> Dict:
    cold = [o for o in ok if not o.cached]
    hits = [o for o in ok if o.cached]
    repeats = sum(o.arrival.repeat for o in outcomes)
    attempts = [
        a["seconds"] for o in cold
        for a in (o.record.get("attempts") or [])[-1:]
        if a.get("seconds") is not None
    ]
    waits = _queue_waits(report)
    layers = {name: 0.0 for name in LAYER_NAMES}
    layers.update({
        "netlist.generate_s": generate_s,
        "service.submit_p50_s": _p([o.submit_s for o in outcomes
                                    if not o.error], 50),
        "service.hit_p50_s": _p([o.latency_s for o in hits], 50),
        "service.job_p90_s": _p([o.latency_s for o in ok], 90),
        "service.cold_p50_s": _p([o.latency_s for o in cold], 50),
        "service.attempt_p50_s": _p(attempts, 50),
        "service.queue_wait_p50_s": _p(waits, 50),
        "service.queue_wait_p90_s": _p(waits, 90),
        "service.queue_depth_max": float(report.get("queue_depth_max") or 0),
        "service.hit_ratio": len(hits) / repeats if repeats else 0.0,
        "service.retries": float(report.get("retries") or 0),
        "service.worker_restarts": float(
            (report.get("worker") or {}).get("restarts") or 0
        ),
        "service.shed": float(sum(o.state == "shed" for o in outcomes)),
        "service.gen_lag_p90_s": _p([o.sent - o.due for o in outcomes], 90),
        "service.close_s": close_s,
    })
    return layers


def _trace_jobs(outcomes: List[Outcome], report: Dict) -> Tracer:
    """One trace per job: the job span (scheduled arrival to result frame)
    with its submit RPC and, from the server report, its queue wait and
    attempts laid end to end after the submit."""
    tracer = Tracer()
    by_id = {j["job_id"]: j for j in report.get("jobs") or []}
    for o in outcomes:
        if o.done_at is None:
            continue
        job_id = tracer.record("service.job", o.job, o.due, o.done_at,
                               cached=o.cached, file=o.arrival.file,
                               seed=o.arrival.seed)
        tracer.record("service.submit", o.job, o.sent, o.sent + o.submit_s,
                      job_id)
        summary = by_id.get(o.job) or {}
        attempts = [a for a in summary.get("attempts") or []
                    if a.get("seconds") is not None]
        if not attempts or summary.get("latency_s") is None:
            continue
        t = o.sent + max(0.0, summary["latency_s"]
                         - sum(a["seconds"] for a in attempts))
        tracer.record("service.queue_wait", o.job, o.sent, t, job_id)
        for a in attempts:
            tracer.record("service.attempt", o.job, t, t + a["seconds"],
                          job_id, attempt=a["attempt"], worker=a["worker"],
                          outcome=a["outcome"])
            t += a["seconds"]
    return tracer
