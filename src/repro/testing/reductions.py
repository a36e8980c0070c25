"""Oracles for the per-net reductions of the placement core loop.

The padded degree-class kernel
(:class:`~repro.evaluation.wirelength.DegreeClasses`) and the slot-matrix
assembly of :class:`~repro.core.quadratic.QuadraticSystem` replaced
simpler designs that live on here, each claimed bit-identical to its
replacement:

- :func:`reference_extents` reduces every net's pin coordinates with one
  segmented ``reduceat`` per bound;
- :func:`reference_exclusive_x` gathers, for every (cell, net) incidence,
  the net's pins of other cells and reduces them;
- :func:`reference_assemble` scatters every matrix entry into its CSR slot
  with ``np.bincount`` over an inverse map from a lexsorted entry list;
- :func:`reference_star_centroids` averages each star net's pins in a
  Python loop.

``tests/test_net_extremes.py`` holds the new code to these, bit for bit
(by value where a ``+0.0`` and a ``-0.0`` pin tie for an extreme).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.quadratic import QuadraticSystem
from ..evaluation.wirelength import pin_arrays
from ..legalize.extents import MoveEvaluator, _segment_gather
from ..netlist import Placement


def reference_extents(placement: Placement) -> Tuple[np.ndarray, ...]:
    """Per-net ``(xlo, xhi, ylo, yhi)`` by segmented ``reduceat``."""
    arrays = pin_arrays(placement.netlist)
    px, py = arrays.pin_coords(placement)
    seg = arrays.net_start[:-1]
    return (
        np.minimum.reduceat(px, seg), np.maximum.reduceat(px, seg),
        np.minimum.reduceat(py, seg), np.maximum.reduceat(py, seg),
    )


def reference_exclusive_x(
    ev: MoveEvaluator, x: np.ndarray, cells: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same contract as :meth:`MoveEvaluator.exclusive_x`, by gathering
    each incidence's net and masking its own cell's pins."""
    if cells is None:
        inc = np.arange(len(ev.inc_cell))
    else:
        cnt = ev.cell_ptr[cells + 1] - ev.cell_ptr[cells]
        inc = _segment_gather(ev.cell_ptr[cells], cnt)
    inc_cell = ev.inc_cell[inc]
    net = ev.inc_net[inc]
    deg = ev.degree[net]
    flat = _segment_gather(ev.net_start[net], deg)
    px = x[ev.pin_cell[flat]] + ev.pin_dx[flat]
    other = ev.pin_cell[flat] != inc_cell.repeat(deg)
    seg = np.cumsum(deg) - deg
    excl_min = np.minimum.reduceat(np.where(other, px, np.inf), seg)
    excl_max = np.maximum.reduceat(np.where(other, px, -np.inf), seg)
    return excl_min, excl_max, inc_cell


def reference_assemble(
    qs: QuadraticSystem,
    net_weights: Optional[np.ndarray] = None,
    lin_x: Optional[np.ndarray] = None,
    lin_y: Optional[np.ndarray] = None,
    anchor_weight: float = 0.0,
    anchor_xy: Tuple[float, float] = (0.0, 0.0),
) -> Tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix, np.ndarray]:
    """``(Ax, bx, Ay, by)`` as :meth:`QuadraticSystem.assemble` builds
    them, by ``bincount`` scatters over the lexsorted entry list."""
    n = qs.n_vars
    diag = np.arange(n)
    rows = np.concatenate((qs.mm_u, qs.mm_v, qs.mm_u, qs.mm_v, qs.mf_u, diag))
    cols = np.concatenate((qs.mm_u, qs.mm_v, qs.mm_v, qs.mm_u, qs.mf_u, diag))
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    first = np.ones(r.size, dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    inv = np.empty(r.size, dtype=np.int64)
    inv[order] = np.cumsum(first) - 1
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r[first], minlength=n))))

    runtime = np.ones(qs.netlist.num_nets) if net_weights is None else net_weights
    out = []
    for lin, off, q, anchor in (
        (lin_x, qs.mm_offx, qs.mf_qx, anchor_xy[0]),
        (lin_y, qs.mm_offy, qs.mf_qy, anchor_xy[1]),
    ):
        f = runtime if lin is None else runtime * lin
        w_mm = qs.mm_w * f[qs.mm_net]
        w_mf = qs.mf_w * f[qs.mf_net]
        vals = np.concatenate(
            (w_mm, w_mm, -w_mm, -w_mm, w_mf, np.full(n, float(anchor_weight)))
        )
        data = np.bincount(inv, weights=vals, minlength=int(first.sum()))
        A = sp.csr_matrix((data, c[first], indptr), shape=(n, n))
        b = np.zeros(n)
        b += np.bincount(qs.mm_u, weights=-w_mm * off, minlength=n)
        b += np.bincount(qs.mm_v, weights=w_mm * off, minlength=n)
        b += np.bincount(qs.mf_u, weights=w_mf * q, minlength=n)
        if anchor_weight > 0.0:
            b += anchor_weight * anchor
        out += [A, b]
    return tuple(out)


def reference_star_centroids(
    qs: QuadraticSystem, placement: Placement
) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`QuadraticSystem.vars_from_placement` with one ``np.mean``
    per star net."""
    nl = qs.netlist
    start = pin_arrays(nl).net_start
    pin_cell = pin_arrays(nl).pin_cell
    x = np.empty(qs.n_vars)
    y = np.empty(qs.n_vars)
    x[: qs.n_movable] = placement.x[nl.movable_indices]
    y[: qs.n_movable] = placement.y[nl.movable_indices]
    for s, j in enumerate(qs._star_nets):
        cells = [int(c) for c in pin_cell[start[j]:start[j + 1]]]
        x[qs.n_movable + s] = float(np.mean(placement.x[cells]))
        y[qs.n_movable + s] = float(np.mean(placement.y[cells]))
    return x, y
