"""Sequential oracles for the vectorized detailed-placement improver.

:class:`~repro.legalize.improver.VectorImprover` accepts moves with a
numpy independent-set computation and re-prices only the (move, net) pairs
whose net moved.  Both are claimed bit-identical to the simpler design they
replaced, which lives on here:

- :func:`reference_deltas` prices a batch of moves by gathering every pin
  of every affected net, every time;
- :func:`sequential_accept` is the best-first Python sweep over ranked
  candidates;
- :class:`SequentialImprover` is ``VectorImprover`` driven by the two: each
  pricing round re-prices every live candidate from scratch and sweeps.

``tests/test_improver_oracle.py`` holds the new code to these, result for
result and float for float.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..legalize.extents import MoveEvaluator, _segment_gather
from ..legalize.improver import _EPS, VectorImprover
from ..netlist import Placement


def reference_deltas(
    ev: MoveEvaluator,
    x: np.ndarray,
    y: np.ndarray,
    cell_a: np.ndarray,
    new_ax: np.ndarray,
    new_ay: np.ndarray,
    cell_b: np.ndarray = None,
    new_bx: np.ndarray = None,
    new_by: np.ndarray = None,
    x_only: bool = False,
) -> np.ndarray:
    """Exact HPWL delta (um) of each move, every pin gathered afresh.

    Same contract as :meth:`MoveEvaluator.deltas`."""
    nmoves = len(cell_a)
    if nmoves == 0:
        return np.zeros(0)
    # (move, net) pairs: nets of a (plus nets of b), deduped per move.
    cnt_a = ev.cell_ptr[cell_a + 1] - ev.cell_ptr[cell_a]
    idx_a = _segment_gather(ev.cell_ptr[cell_a], cnt_a)
    move_of = np.repeat(np.arange(nmoves, dtype=np.int64), cnt_a)
    nets = ev.inc_net[idx_a]
    num_nets = len(ev.degree)
    if cell_b is not None:
        cnt_b = ev.cell_ptr[cell_b + 1] - ev.cell_ptr[cell_b]
        idx_b = _segment_gather(ev.cell_ptr[cell_b], cnt_b)
        move_of = np.concatenate(
            (move_of, np.repeat(np.arange(nmoves, dtype=np.int64), cnt_b))
        )
        nets = np.concatenate((nets, ev.inc_net[idx_b]))
        pair_key = np.sort(move_of * num_nets + nets)
        first = np.empty(len(pair_key), dtype=bool)
        first[0] = True
        np.not_equal(pair_key[1:], pair_key[:-1], out=first[1:])
        pair_key = pair_key[first]
        pair_move = pair_key // num_nets
        pair_net = pair_key % num_nets
    else:
        pair_move = move_of
        pair_net = nets

    cnt = ev.degree[pair_net]
    flat = _segment_gather(ev.net_start[pair_net], cnt)
    fmove = np.repeat(pair_move, cnt)
    fcell = ev.pin_cell[flat]
    fdx = ev.pin_dx[flat]
    px_old = x[fcell] + fdx
    seg = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    is_a = fcell == cell_a[fmove]
    px = np.where(is_a, new_ax[fmove] + fdx, px_old)
    if cell_b is not None:
        is_b = fcell == cell_b[fmove]
        px = np.where(is_b, new_bx[fmove] + fdx, px)
    blocks = [px_old, px]
    if not x_only:
        fdy = ev.pin_dy[flat]
        py_old = y[fcell] + fdy
        py = np.where(is_a, new_ay[fmove] + fdy, py_old)
        if cell_b is not None:
            py = np.where(is_b, new_by[fmove] + fdy, py)
        blocks += [py_old, py]
    total = len(px)
    stacked = np.concatenate(blocks)
    segs = np.concatenate([seg + k * total for k in range(len(blocks))])
    ext = np.maximum.reduceat(stacked, segs) - np.minimum.reduceat(
        stacked, segs
    )
    npairs = len(seg)
    pair_delta = ext[npairs : 2 * npairs] - ext[:npairs]
    if not x_only:
        pair_delta = pair_delta + (
            ext[3 * npairs :] - ext[2 * npairs : 3 * npairs]
        )
    return np.bincount(pair_move, weights=pair_delta, minlength=nmoves)


def sequential_accept(
    windows: Sequence[Sequence[int]],
    nets: Sequence[Sequence[int]],
    locked: bytearray,
) -> Tuple[List[int], List[int]]:
    """Best-first sweep over candidates given in rank order.

    A candidate with a locked window cell (-1 is padding) is dropped; one
    with a net an earlier acceptance of this sweep touched is retried;
    any other is accepted, locking its window cells (``locked`` is updated
    in place) and dirtying its nets.  Returns the accepted and retried
    ranks, each in rank order."""
    dirty = set()
    accepted: List[int] = []
    retried: List[int] = []
    for m, (win, mnets) in enumerate(zip(windows, nets)):
        if any(c >= 0 and locked[c] for c in win):
            continue
        if any(j in dirty for j in mnets):
            retried.append(m)
            continue
        for c in win:
            if c >= 0:
                locked[c] = 1
        dirty.update(mnets)
        accepted.append(m)
    return accepted, retried


class SequentialImprover(VectorImprover):
    """:class:`VectorImprover` with the sequential accept loop: each
    pricing round re-prices every live candidate with
    :func:`reference_deltas` and accepts with :func:`sequential_accept`."""

    def _accept_rounds(
        self,
        out: Placement,
        ev: MoveEvaluator,
        moved: np.ndarray,
        windows: np.ndarray,
        cell_a: np.ndarray,
        new_ax: np.ndarray,
        new_ay: np.ndarray,
        cell_b: np.ndarray = None,
        new_bx: np.ndarray = None,
        new_by: np.ndarray = None,
        max_rounds: int = 6,
        x_only: bool = False,
    ) -> Tuple[int, float]:
        x, y = out.x, out.y
        two = cell_b is not None
        locked = bytearray(out.netlist.num_cells)
        cell_ptr = ev.cell_ptr.tolist()
        inc_net = ev.inc_net.tolist()

        def nets_of(m: int) -> List[int]:
            nets = []
            for c in (cell_a[m], cell_b[m]) if two else (cell_a[m],):
                nets += inc_net[cell_ptr[c] : cell_ptr[c + 1]]
            return nets

        alive = np.arange(len(cell_a))
        taken = 0
        gain = 0.0
        for _ in range(max_rounds):
            if not alive.size:
                break
            deltas = reference_deltas(
                ev, x, y, cell_a[alive], new_ax[alive], new_ay[alive],
                cell_b[alive] if two else None,
                new_bx[alive] if two else None,
                new_by[alive] if two else None,
                x_only=x_only,
            )
            cand = np.flatnonzero(deltas < -_EPS)
            if not cand.size:
                break
            order = cand[np.argsort(deltas[cand], kind="stable")]
            ranked = alive[order].tolist()
            accepted, retried = sequential_accept(
                [windows[m].tolist() for m in ranked],
                [nets_of(m) for m in ranked],
                locked,
            )
            for r in accepted:
                m = ranked[r]
                x[cell_a[m]] = new_ax[m]
                y[cell_a[m]] = new_ay[m]
                moved[cell_a[m]] = True
                if two:
                    x[cell_b[m]] = new_bx[m]
                    y[cell_b[m]] = new_by[m]
                    moved[cell_b[m]] = True
                gain -= float(deltas[order[r]])
            taken += len(accepted)
            if not accepted:
                break
            alive = np.array([ranked[r] for r in retried], dtype=np.int64)
        if alive.size:
            moved[cell_a[alive]] = True
            if two:
                moved[cell_b[alive]] = True
        return taken, gain
