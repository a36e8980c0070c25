"""Batched exact net-extent evaluation for detailed-placement moves.

The scalar improvers (:mod:`repro.legalize.detailed`,
:mod:`repro.legalize.domino`) price every candidate move by re-walking the
affected nets' pins in Python — exact, but ~30 us per move, which made the
improvement pass the dominant cost of the whole flow.  This module prices
*thousands* of candidate moves in a handful of numpy passes while keeping
the deltas exact:

- :class:`MoveEvaluator` holds CSR views of the netlist (net -> pins and
  cell -> nets) and, per (cell, net) incidence, the smallest and largest
  pin offset of that cell on that net;
- the delta splits into (move, net) pairs (:meth:`MoveEvaluator.pairs`)
  priced independently (:meth:`MoveEvaluator.price_pairs`), so a caller
  that keeps the pair deltas can re-price only the pairs whose net moved.
  A call summarizes each touched net once — its top-k distinct-cell pin
  extremes, k being one more than the cells a move relocates — and then
  prices every pair in O(1): the net's extent without the moved cells is
  the first summary entry held by another cell, and a moved cell's
  extreme pin is its new center plus its extreme offset;
- :meth:`MoveEvaluator.exclusive_x` returns, for every (cell, net)
  incidence, the net's x extent *excluding that cell's pins* — the
  ingredient for vectorized optimal-slide targets (the 1-D HPWL optimum is
  a median of these exclusive interval endpoints).

Every delta is the float a gather of the net's moved pins computes: min
and max do not depend on evaluation order, and ``fl(x + dx)`` is monotone
in ``dx``, so a moved cell's extreme pin ``new_x + max_dx`` is the largest
of its rounded pin coordinates.  (Where a ``+0.0`` and a ``-0.0`` pin tie
for an extreme, either may be returned, as with numpy's own reductions.)
:func:`repro.testing.reference_deltas` keeps the per-pin gather as the
oracle.

Deltas are exact as long as the moves actually applied together touch
disjoint net sets; the improver guarantees that with a dirty-net filter.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..evaluation.wirelength import pin_arrays
from ..netlist import Netlist


def _segment_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat index array covering ``[starts[i], starts[i]+counts[i])`` runs."""
    ends = counts.cumsum()
    if not ends.size:
        return np.zeros(0, dtype=np.int64)
    return (starts - (ends - counts)).repeat(counts) + np.arange(ends[-1])


def _sort_within(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.lexsort((values, groups))``: sort by group, then value, then index.

    Ranks ``values`` with one stable float argsort, then sorts the integer
    keys ``group * n + rank``.  The keys are unique, so the permutation is
    lexsort's to the last tie — at about twice its speed.
    """
    n = len(values)
    by_value = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_value] = np.arange(n)
    key = groups.astype(np.int64) * n + rank
    key.sort()
    return by_value[key % n]


class MoveEvaluator:
    """Exact, batched HPWL deltas over a fixed netlist.

    Construction is O(pins log pins); a pricing call is a few numpy
    passes over the pins of the nets it touches plus O(1) per pair.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        arrays = pin_arrays(netlist)
        self.classes = arrays.classes
        self.net_start = arrays.net_start
        self.pin_cell = arrays.pin_cell
        self.pin_dx = arrays.pin_dx
        self.pin_dy = arrays.pin_dy
        self.degree = arrays.degree.astype(np.int64)
        num_nets = len(self.degree)
        net_of_pin = np.repeat(np.arange(num_nets, dtype=np.int64), self.degree)

        # Unique (cell, net) incidence pairs in (cell, net) order -> CSR
        # over cells.  A cell with several pins on one net appears once,
        # with the extreme offsets of those pins.
        order = np.lexsort((net_of_pin, self.pin_cell))
        c_sorted = self.pin_cell[order]
        n_sorted = net_of_pin[order]
        if c_sorted.size:
            first = np.concatenate(
                ([True], (c_sorted[1:] != c_sorted[:-1]) | (n_sorted[1:] != n_sorted[:-1]))
            )
        else:
            first = np.zeros(0, dtype=bool)
        self.inc_cell = c_sorted[first]
        self.inc_net = n_sorted[first]
        self.cell_ptr = np.searchsorted(
            self.inc_cell, np.arange(netlist.num_cells + 1)
        )
        # Each incidence's smallest and largest pin offset per axis, with
        # a trailing +inf / -inf that incidence index -1 reads.
        seg = np.flatnonzero(first)

        def offset_range(offsets):
            sorted_offsets = offsets[order]
            lo = np.minimum.reduceat(sorted_offsets, seg) if seg.size else []
            hi = np.maximum.reduceat(sorted_offsets, seg) if seg.size else []
            return np.append(lo, np.inf), np.append(hi, -np.inf)

        self.inc_dx = offset_range(self.pin_dx)
        self.inc_dy = offset_range(self.pin_dy)

    # ------------------------------------------------------------------
    def nets_of(self, cell: int) -> np.ndarray:
        """Net indices incident to *cell* (each once)."""
        return self.inc_net[self.cell_ptr[cell] : self.cell_ptr[cell + 1]]

    def _touched(
        self, nets: np.ndarray
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Which nets to summarize for entries on *nets*, and each entry's
        column in the summary: the distinct nets (ascending), or ``None``
        — every net, so the column is the net — once they are more than
        half of them, where gathering the subset costs more than it
        saves."""
        num_nets = len(self.degree)
        mark = np.zeros(num_nets, dtype=bool)
        mark[nets] = True
        distinct = np.flatnonzero(mark)
        if 2 * distinct.size > num_nets:
            return None, nets
        slot = np.empty(num_nets, dtype=np.int64)
        slot[distinct] = np.arange(distinct.size)
        return distinct, slot[nets]

    # ------------------------------------------------------------------
    def exclusive_x(
        self, x: np.ndarray, cells: np.ndarray = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exclusive x extents per (cell, net) incidence pair.

        Returns ``(excl_min, excl_max, inc_cell)``: per incidence pair, the
        min/max pin x of the net over pins whose cell differs from the
        incidence cell (``+inf`` / ``-inf`` where the net has no other
        cells' pins), plus the incidence's cell index.  With ``cells``
        given, only that subset's incidences are evaluated — O(pins of the
        subset's nets) instead of O(all pins) — which keeps late, nearly
        converged improvement passes cheap.
        """
        if cells is None:
            inc_cell = self.inc_cell
            nets, n = None, self.inc_net
        else:
            cnt = self.cell_ptr[cells + 1] - self.cell_ptr[cells]
            inc_idx = _segment_gather(self.cell_ptr[cells], cnt)
            inc_cell = self.inc_cell[inc_idx]
            nets, n = self._touched(self.inc_net[inc_idx])
        ext = self.classes.extremes(x, 0, k=2, nets=nets)
        # Excluding one cell: the first of the net's two distinct-cell
        # extremes held by another cell.
        excl_min = np.where(inc_cell != ext.lo_cell[0, n], ext.lo[0, n],
                            ext.lo[1, n])
        excl_max = np.where(inc_cell != ext.hi_cell[0, n], ext.hi[0, n],
                            ext.hi[1, n])
        return excl_min, excl_max, inc_cell

    # ------------------------------------------------------------------
    def pairs(
        self, cell_a: np.ndarray, cell_b: np.ndarray = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (move, net) pairs a batch of moves affects.

        Returns ``(pair_move, pair_net, pair_inc)``: the nets of
        ``cell_a[m]`` (plus those of ``cell_b[m]``), each once per move,
        grouped by move in ascending move order and ascending net order
        within a move.  That order is the summation order of
        :meth:`deltas`, so summing any subset of moves' pair deltas in
        this order reproduces their :meth:`deltas` floats exactly.
        ``pair_inc`` is ``(1, npairs)`` for one-cell moves and
        ``(2, npairs)`` for two: row ``i`` holds the incidence index of
        the move's ``i``-th cell on the pair's net, -1 where that cell is
        not on it.
        """
        nmoves = len(cell_a)
        cnt_a = self.cell_ptr[cell_a + 1] - self.cell_ptr[cell_a]
        move_of = np.repeat(np.arange(nmoves, dtype=np.int64), cnt_a)
        inc_a = _segment_gather(self.cell_ptr[cell_a], cnt_a)
        if cell_b is None:
            # One cell per move: its incident nets are already unique.
            return move_of, self.inc_net[inc_a], inc_a[None, :]
        cnt_b = self.cell_ptr[cell_b + 1] - self.cell_ptr[cell_b]
        inc_b = _segment_gather(self.cell_ptr[cell_b], cnt_b)
        # Both cells may share a net; dedup the (move, net) pairs.  The
        # key's low bit says which cell an entry came from.  Each cell's
        # keys ascend, so after the sort each cell's entries are in its
        # own order and its incidences drop into place without an
        # argsort.
        num_nets = len(self.degree)
        move_b = np.repeat(np.arange(nmoves, dtype=np.int64), cnt_b)
        key = np.concatenate((
            (move_of * num_nets + self.inc_net[inc_a]) * 2,
            (move_b * num_nets + self.inc_net[inc_b]) * 2 + 1,
        ))
        key.sort()
        from_b = (key & 1).astype(bool)
        key >>= 1
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        pair = np.cumsum(first) - 1
        pair_key = key[first]
        pair_inc = np.full((2, len(pair_key)), -1, dtype=np.int64)
        pair_inc[0, pair[~from_b]] = inc_a
        pair_inc[1, pair[from_b]] = inc_b
        return pair_key // num_nets, pair_key % num_nets, pair_inc

    def price_pairs(
        self,
        x: np.ndarray,
        y: np.ndarray,
        pair_move: np.ndarray,
        pair_net: np.ndarray,
        pair_inc: np.ndarray,
        cell_a: np.ndarray,
        new_ax: np.ndarray,
        new_ay: np.ndarray,
        cell_b: np.ndarray = None,
        new_bx: np.ndarray = None,
        new_by: np.ndarray = None,
        x_only: bool = False,
    ) -> np.ndarray:
        """Exact HPWL delta (um) of each (move, net) pair.

        ``pair_move`` indexes the move arrays (see :meth:`deltas`) and
        ``pair_inc`` is :meth:`pairs`' incidence rows for the same pairs.
        Each pair's value depends only on that move and the net's pins,
        never on which other pairs share the batch, so any subset can be
        re-priced.  Where ``cell_b[m] == cell_a[m]``, the cell goes to
        ``cell_b``'s target.
        """
        if not pair_net.size:
            return np.zeros(0)
        nets, col = self._touched(pair_net)
        moved = [cell_a[pair_move]]
        inc = [pair_inc[0]]
        targets = [(new_ax, new_ay)]
        if cell_b is not None:
            moved.append(cell_b[pair_move])
            inc = [np.where(moved[0] != moved[1], pair_inc[0], -1),
                   pair_inc[1]]
            targets.append((new_bx, new_by))
        k = len(moved) + 1

        def rest(values, cells):
            # The extreme over the pins of unmoved cells: summary row r,
            # r being the number of leading rows held by moved cells.
            r = np.zeros(len(col), dtype=np.int64)
            run = np.ones(len(col), dtype=bool)
            for row in cells:
                holder = row[col]
                hit = holder == moved[0]
                for other in moved[1:]:
                    hit |= holder == other
                run &= hit
                r += run
            return values.ravel()[r * values.shape[1] + col]

        def extent_delta(coord, axis, offsets):
            ext = self.classes.extremes(coord, axis, k=k, nets=nets)
            lo = rest(ext.lo, ext.lo_cell)
            hi = rest(ext.hi, ext.hi_cell)
            # A moved cell's extreme pin is its target plus its extreme
            # offset on the net; -1 incidences read the +-inf sentinels.
            for cells_inc, target in zip(inc, targets):
                at = target[axis][pair_move]
                np.minimum(lo, at + offsets[0][cells_inc], out=lo)
                np.maximum(hi, at + offsets[1][cells_inc], out=hi)
            return (hi - lo) - (ext.hi[0, col] - ext.lo[0, col])

        pair_delta = extent_delta(x, 0, self.inc_dx)
        if not x_only:
            pair_delta = pair_delta + extent_delta(y, 1, self.inc_dy)
        return pair_delta

    def deltas(
        self,
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
        """Exact HPWL delta (um) of each candidate move.

        Each move relocates ``cell_a[m]`` to ``(new_ax[m], new_ay[m])`` and,
        when ``cell_b`` is given, simultaneously ``cell_b[m]`` to
        ``(new_bx[m], new_by[m])``.  Every other cell stays put.  Negative
        deltas are improvements.  ``x_only=True`` asserts that no move
        changes any y coordinate, so the (cancelling) y extents are skipped
        entirely — about half the work for row-internal moves.
        """
        nmoves = len(cell_a)
        if nmoves == 0:
            return np.zeros(0)
        pair_move, pair_net, pair_inc = self.pairs(cell_a, cell_b)
        pair_delta = self.price_pairs(
            x, y, pair_move, pair_net, pair_inc, cell_a, new_ax, new_ay,
            cell_b, new_bx, new_by, x_only=x_only,
        )
        return np.bincount(pair_move, weights=pair_delta, minlength=nmoves)
