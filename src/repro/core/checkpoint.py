"""Checkpoint/recovery for interrupted placement runs.

A placement transformation is a pure function of (positions, accumulated
forces, warm-start state, iteration index): the placer draws no random
numbers after initialization, so snapshotting exactly that state lets an
interrupted run resume **bit-identically** — the resumed trajectory matches
the uninterrupted one float for float, which the checkpoint test suite
verifies by SHA-256 over the final coordinates.

The on-disk format is a single ``.npz`` archive (numpy's zip container):
float64 arrays stored raw, plus one JSON metadata entry carrying the
iteration counter, per-iteration history (needed by the stall detector),
a netlist signature, a content digest of the netlist and region, and the
run's config.  :func:`check_resumable` uses the last three to refuse a
snapshot that another netlist or region, another trajectory-changing
config or a larger iteration budget produced: such a resume could not
match a fresh run.  See ``docs/ROBUSTNESS.md`` for the format contract.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..netlist.io import netlist_to_string
from . import health

CHECKPOINT_SCHEMA = "repro-checkpoint/1"

PathLike = Union[str, Path]

#: Config keys that steer where snapshots land and logging, never the
#: answer.  The service's result cache leaves them out of its job key.
OBSERVATIONAL_CONFIG = ("checkpoint_path", "checkpoint_every", "verbose")

#: Config keys a resume may change: the observational ones, the
#: wall-clock budget and the iteration cap, never the trajectory (the cap
#: is checked against the snapshot's iteration separately).
RESUME_FREE_CONFIG = OBSERVATIONAL_CONFIG + ("deadline_seconds", "max_iterations")


class CheckpointMismatchError(ValueError):
    """A snapshot that cannot continue this run (:func:`check_resumable`)."""


def netlist_signature(netlist) -> str:
    """A cheap structural fingerprint used to reject mismatched resumes."""
    return (
        f"{netlist.name}/{netlist.num_cells}c/{netlist.num_nets}n/"
        f"{netlist.num_pins}p/{netlist.num_movable}m"
    )


def content_digest(netlist, region) -> str:
    """SHA-256 over the canonical netlist text and the region geometry.

    Two placements of equal config can differ only if this differs: the
    netlist bytes are the ``save_netlist`` text format (canonical by
    construction), the region is its bounds and row count (a derived
    region depends on ``utilization``, an explicit one on its file).
    """
    geometry = [
        round(float(region.bounds.xlo), 9),
        round(float(region.bounds.ylo), 9),
        round(float(region.width), 9),
        round(float(region.height), 9),
        len(region.rows),
    ]
    digest = hashlib.sha256(netlist_to_string(netlist).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(json.dumps(geometry).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class PlacerCheckpoint:
    """Everything the placer needs to continue a run mid-flight.

    ``iteration`` is the index of the *next* transformation to run; the
    coordinate arrays cover all cells (movable + fixed) in netlist order;
    ``warm`` holds the hold-step CG warm-start vectors; ``history`` is the
    list of per-iteration stat dicts accumulated so far (consumed by the
    stall detector, so it must survive the round trip); ``best`` carries
    the best-so-far tracker state (score, hpwl, coordinates, forces).
    """

    iteration: int
    x: np.ndarray
    y: np.ndarray
    e_x: np.ndarray
    e_y: np.ndarray
    warm: Dict[str, np.ndarray] = field(default_factory=dict)
    history: List[Dict] = field(default_factory=list)
    best: Optional[Dict] = None
    signature: str = ""
    elapsed_seconds: float = 0.0
    # The run's PlacerConfig in its canonical to_dict() form, so a resumed
    # or inspected checkpoint carries the exact knobs it was produced with.
    # Optional: checkpoints written before this field existed load as None.
    config: Optional[Dict] = None
    # content_digest() of the netlist and region the run placed; empty in
    # checkpoints written before this field existed, which never resume.
    digest: str = ""


def check_resumable(
    ckpt: PlacerCheckpoint,
    signature: str,
    digest: str,
    config: Dict,
    limit: int,
) -> None:
    """Raise :class:`CheckpointMismatchError` unless resuming from *ckpt*
    continues exactly the run a fresh start with *config* would make.

    The snapshot must be of the netlist with *signature*, of the netlist
    contents and region with :func:`content_digest` *digest*, carry a
    config equal to *config* on every key outside
    :data:`RESUME_FREE_CONFIG`, and stop at or before the run's iteration
    *limit*.
    """
    if ckpt.signature and ckpt.signature != signature:
        raise CheckpointMismatchError(
            f"checkpoint was taken for {ckpt.signature!r}, not this "
            f"netlist ({signature!r})"
        )
    if ckpt.digest != digest:
        raise CheckpointMismatchError(
            "checkpoint was taken for other netlist contents or another "
            f"region (content digest {ckpt.digest[:12] or 'missing'}, "
            f"this run {digest[:12]})"
        )
    if ckpt.config is not None:
        current = json.loads(json.dumps(config))
        changed = sorted(
            key for key in set(ckpt.config) | set(current)
            if key not in RESUME_FREE_CONFIG
            and ckpt.config.get(key) != current.get(key)
        )
        if changed:
            raise CheckpointMismatchError(
                f"checkpoint was taken with a different config ({changed})"
            )
    if ckpt.iteration > limit:
        raise CheckpointMismatchError(
            f"checkpoint is at iteration {ckpt.iteration}, past this run's "
            f"limit of {limit}"
        )


def save_checkpoint(path: PathLike, ckpt: PlacerCheckpoint) -> Path:
    """Write *ckpt* to *path* atomically (write-then-rename)."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "iteration": int(ckpt.iteration),
        "signature": ckpt.signature,
        "elapsed_seconds": float(ckpt.elapsed_seconds),
        "history": ckpt.history,
        "warm_keys": sorted(ckpt.warm),
        "best": None,
        "config": ckpt.config,
        "digest": ckpt.digest,
    }
    arrays: Dict[str, np.ndarray] = {
        "x": np.asarray(ckpt.x, dtype=np.float64),
        "y": np.asarray(ckpt.y, dtype=np.float64),
        "e_x": np.asarray(ckpt.e_x, dtype=np.float64),
        "e_y": np.asarray(ckpt.e_y, dtype=np.float64),
    }
    for key in meta["warm_keys"]:
        arrays[f"warm_{key}"] = np.asarray(ckpt.warm[key], dtype=np.float64)
    if ckpt.best is not None:
        meta["best"] = {
            "score": float(ckpt.best["score"]),
            "hpwl_m": float(ckpt.best["hpwl_m"]),
        }
        for key in ("x", "y", "e_x", "e_y"):
            arrays[f"best_{key}"] = np.asarray(
                ckpt.best[key], dtype=np.float64
            )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        np.savez(f, meta=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ), **arrays)
    if health._FAULT_HOOKS:
        # Chaos hook between tmp-write and commit: a kill injected here is
        # the torn-write scenario the atomic rename protects against.
        health.fire_hook("checkpoint", "pre_rename", tmp, path)
    tmp.replace(path)
    if health._FAULT_HOOKS:
        health.fire_hook("checkpoint", "post_rename", tmp, path)
    return path


def try_load_checkpoint(path: PathLike) -> Optional[PlacerCheckpoint]:
    """:func:`load_checkpoint`, but ``None`` for missing/torn/corrupt files.

    The retry/migration path uses this: a snapshot that cannot be read
    (never written, truncated mid-write by a crash, or garbage on disk)
    means "start fresh", not "fail the job" — a fresh start is
    bit-identical to the uninterrupted run anyway, it just costs the
    already-done iterations again.
    """
    try:
        return load_checkpoint(path)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None


def load_checkpoint(path: PathLike) -> PlacerCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    with np.load(path) as data:
        try:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: not a repro checkpoint") from exc
        if meta.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"{path}: unsupported checkpoint schema "
                f"{meta.get('schema')!r} (expected {CHECKPOINT_SCHEMA!r})"
            )
        warm = {key: data[f"warm_{key}"].copy() for key in meta["warm_keys"]}
        best = None
        if meta.get("best") is not None:
            best = {
                "score": float(meta["best"]["score"]),
                "hpwl_m": float(meta["best"]["hpwl_m"]),
                "x": data["best_x"].copy(),
                "y": data["best_y"].copy(),
                "e_x": data["best_e_x"].copy(),
                "e_y": data["best_e_y"].copy(),
            }
        return PlacerCheckpoint(
            iteration=int(meta["iteration"]),
            x=data["x"].copy(),
            y=data["y"].copy(),
            e_x=data["e_x"].copy(),
            e_y=data["e_y"].copy(),
            warm=warm,
            history=list(meta.get("history", [])),
            best=best,
            signature=meta.get("signature", ""),
            elapsed_seconds=float(meta.get("elapsed_seconds", 0.0)),
            config=meta.get("config"),
            digest=meta.get("digest", ""),
        )
