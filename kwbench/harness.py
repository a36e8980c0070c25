"""Measuring code shared by the kwbench workloads.

Everything that decides *how* a number is measured lives here, in the
benchmark's own files, so a change to the program under test can never
change the yardstick: percentiles, the in-memory span recorder of the
traced runs, peak-RSS readers and the environment record.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

#: Thread-count variables pinned to 1 before numpy loads, here and in the
#: server process: CG reductions go through BLAS ``ddot``, whose summation
#: order (and so the positions hash) depends on the thread count.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)


def pin_blas_threads(env: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Set every BLAS thread-count variable of *env* (default: this
    process's environment) to ``1`` and return the mapping."""
    target = os.environ if env is None else env
    for var in BLAS_THREAD_VARS:
        target[var] = "1"
    return target


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between the
    two closest ranks; raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kib(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise ValueError(f"no {field} for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of *pid*, from ``/proc/<pid>/task/*/children``."""
    out: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text(encoding="ascii")
        out.extend(int(tok) for tok in text.split())
    return out


def tree_peak_rss_mb(pid: int) -> List[float]:
    """Per-process peak RSS (``VmHWM``, MiB) of *pid* and every descendant
    still alive, *pid* first.  Pages a forked worker shares with its
    parent count in both, so the sum is an upper bound of the tree's
    peak."""
    out: List[float] = []
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            out.append(_status_kib(current, "VmHWM") / 1024.0)
            stack.extend(child_pids(current))
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
    return out


class Tracer:
    """In-memory span recorder of the traced runs.

    A span is ``{name, trace, id, parent, start, end, attrs}`` on the
    ``time.perf_counter`` clock (the clock :class:`repro.Telemetry` uses,
    so its spans import without conversion).  Spans of one flow or one job
    share a ``trace`` id.  Nothing is written until :meth:`write`.
    """

    def __init__(self):
        self.spans: List[Dict] = []
        self._next_id = 1
        self._stack: List[int] = []

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def record(self, name: str, trace: str, start: float, end: float,
               parent: Optional[int] = None, **attrs) -> int:
        """Append one finished span; returns its id."""
        span_id = self._new_id()
        self.spans.append({
            "name": name, "trace": trace, "id": span_id, "parent": parent,
            "start": start, "end": end, "attrs": attrs,
        })
        return span_id

    @contextmanager
    def span(self, name: str, trace: str, **attrs) -> Iterator[Dict]:
        """Time the ``with`` body as one span nested under the open one."""
        span_id = self._new_id()
        entry = {
            "name": name, "trace": trace, "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "attrs": attrs,
        }
        self.spans.append(entry)
        self._stack.append(span_id)
        try:
            yield entry
        finally:
            entry["end"] = time.perf_counter()
            self._stack.pop()

    def import_telemetry(self, telemetry, trace: str, parent: int,
                         parents: Optional[Dict[str, int]] = None) -> None:
        """Copy every span of a :class:`repro.Telemetry` into this trace.
        Each root goes under ``parents[root.name]`` when given, else under
        *parent*; children keep their nesting."""
        def visit(span, parent_id: int) -> None:
            span_id = self.record(
                span.name, trace, span.start, span.end, parent_id,
                source="telemetry", **dict(span.counters),
            )
            for child in span.children:
                visit(child, span_id)

        for root in telemetry.spans.roots:
            visit(root, (parents or {}).get(root.name, parent))

    def seconds(self, name: str, source: Optional[str] = None) -> float:
        """Summed duration of every span called *name* (optionally only
        those whose ``attrs["source"]`` equals *source*)."""
        return sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name
            and (source is None or s["attrs"].get("source") == source)
        )

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")
        return path


@dataclass
class RunResult:
    """What a workload hands back to ``run.py``."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: (check name, passed, detail)
    checks: List = field(default_factory=list)
    info: Dict = field(default_factory=dict)
    tracer: Optional[Tracer] = None


def environment(seed: int, **extra) -> Dict:
    """The run's pinned environment, printed next to every result."""
    import multiprocessing

    import numpy
    import scipy

    record = {
        "nproc": nproc(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "seed": seed,
    }
    record.update(extra)
    return record


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def check_names(names: Iterable[str]) -> List[str]:
    """Names that break the ``[A-Za-z0-9_.-]`` rule (empty when all pass)."""
    import re

    pattern = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    return [name for name in names if not pattern.match(name)]
