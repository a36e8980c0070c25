"""Wire-length metrics.

The paper measures wire length as the *half perimeter of the enclosing
rectangle* (HPWL) summed over all nets, reported in meters.  The quadratic
engine internally optimizes squared Euclidean clique length; both metrics are
provided here, vectorized over the whole netlist.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..netlist import Netlist, Placement, PinDirection

MICRONS_PER_METER = 1.0e6


class NetPinArrays:
    """Flattened CSR-style pin arrays for vectorized per-net reductions."""

    def __init__(self, netlist: Netlist):
        starts = [0]
        cells: list = []
        dxs: list = []
        dys: list = []
        outs: list = []
        OUTPUT = PinDirection.OUTPUT
        for net in netlist.nets:
            for pin in net.pins:
                cells.append(pin.cell)
                dxs.append(pin.dx)
                dys.append(pin.dy)
                outs.append(pin.direction is OUTPUT)
            starts.append(len(cells))
        self.net_start = np.array(starts, dtype=np.int64)
        self.pin_cell = np.array(cells, dtype=np.int64)
        self.pin_dx = np.array(dxs, dtype=np.float64)
        self.pin_dy = np.array(dys, dtype=np.float64)
        self.pin_is_out = np.array(outs, dtype=bool)
        self.static_weight = np.array([n.weight for n in netlist.nets])
        self.degree = np.diff(self.net_start)

    def pin_coords(self, placement: Placement):
        px = placement.x[self.pin_cell] + self.pin_dx
        py = placement.y[self.pin_cell] + self.pin_dy
        return px, py

    @cached_property
    def classes(self) -> "DegreeClasses":
        """The padded degree-class layout, built on first use."""
        return DegreeClasses(self)

    def extents(self, placement: Placement) -> Tuple[np.ndarray, ...]:
        """Per-net ``(xlo, xhi, ylo, yhi)`` pin extents."""
        classes = self.classes
        return (
            *classes.extremes(placement.x, 0).bounds(),
            *classes.extremes(placement.y, 1).bounds(),
        )


def _class_width(degree: int) -> int:
    """Padded width of a net of *degree* pins.

    Degrees up to 4 are their own class; above that the widths run
    6, 8, 12, 16, 24, 32, ..., so padding adds at most half a net."""
    if degree <= 4:
        return max(int(degree), 1)
    width = 4
    while width < degree:
        width = width * 3 // 2 if width & (width - 1) == 0 else width * 4 // 3
    return width


#: Padding, in pin entries, below which a degree class is folded into the
#: next wider one.
FOLD_ENTRIES = 8192


class NetExtremes(NamedTuple):
    """Top-k distinct-cell extremes of each net's pins along one axis.

    ``lo[i]`` is the smallest pin coordinate over pins whose cell is none
    of ``lo_cell[:i]``, and ``lo_cell[i]`` a cell holding that pin (+inf,
    and an arbitrary cell of the net, where no such pin exists); ``hi``
    and ``hi_cell`` are the same for the largest.  Row 0 is the net's
    plain extent.  The minimum over the pins of the cells outside any set
    ``S`` of fewer than ``k`` cells is ``lo[r]`` for the first ``r`` with
    ``lo_cell[r]`` outside ``S``: the rows before it only removed cells of
    ``S``.  ``r < k`` always, so the cell rows stop at ``k - 1`` (they are
    ``None`` for ``k == 1``).
    """

    lo: np.ndarray
    lo_cell: Optional[np.ndarray]
    hi: np.ndarray
    hi_cell: Optional[np.ndarray]

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each net's ``(min, max)`` pin coordinate."""
        return self.lo[0], self.hi[0]


class DegreeClasses:
    """Nets grouped into width classes, each net padded to its class width.

    Class ``c`` holds ``nets[c]`` (net indices, ascending) and the
    ``(width, len(nets[c]))`` matrices ``cell[c]``, ``dx[c]`` and
    ``dy[c]``: column ``j`` lists the pins of net ``nets[c][j]`` in pin
    order, padded by repeating the net's last pin.  Repeating a pin
    changes no minimum or maximum, and a per-net reduction becomes
    ``width - 1`` vector operations over a class instead of one
    ``reduceat`` segment per net, whose per-segment overhead dominated
    on small nets.  ``net_class`` and ``net_col`` locate every net.
    """

    def __init__(self, arrays: NetPinArrays):
        degree = arrays.degree
        num_nets = degree.size
        # One width per distinct degree: a bookshelf clock net may have
        # 10^5 pins, so a table over every degree up to the largest is not
        # free.
        uniq, of_net = np.unique(degree, return_inverse=True)
        net_width = np.array(
            [_class_width(d) for d in uniq], dtype=np.int64
        )[of_net]
        # Fold classes into the next wider one while the nets carried up
        # gain fewer than FOLD_ENTRIES padding entries in all: each class
        # costs a few dozen numpy calls per reduction, which a small
        # class does not repay.
        widths, counts = np.unique(net_width, return_counts=True)
        self.widths: List[int] = []
        carried = carried_width = 0
        for i, width in enumerate(widths):
            carried += int(counts[i])
            carried_width += int(counts[i]) * int(width)
            if i + 1 < len(widths) and (
                carried * int(widths[i + 1]) - carried_width < FOLD_ENTRIES
            ):
                continue
            self.widths.append(int(width))
            carried = carried_width = 0
        self.net_class = np.searchsorted(self.widths, net_width).astype(np.int16)
        self.net_col = np.empty(num_nets, dtype=np.int64)
        self.nets: List[np.ndarray] = []
        self.cell: List[np.ndarray] = []
        self.dx: List[np.ndarray] = []
        self.dy: List[np.ndarray] = []
        start = arrays.net_start
        for c, width in enumerate(self.widths):
            nets = np.flatnonzero(self.net_class == c)
            self.net_col[nets] = np.arange(nets.size)
            # Pin j of each net, clamped to its last pin.
            last = start[nets + 1] - 1
            pins = np.minimum(
                start[nets][None, :] + np.arange(width)[:, None], last
            )
            self.nets.append(nets)
            self.cell.append(arrays.pin_cell[pins])
            self.dx.append(arrays.pin_dx[pins])
            self.dy.append(arrays.pin_dy[pins])

    def extremes(
        self,
        coord: np.ndarray,
        axis: int,
        k: int = 1,
        nets: Optional[np.ndarray] = None,
    ) -> NetExtremes:
        """Top-*k* distinct-cell pin extremes along one axis.

        ``coord`` holds every cell's center coordinate and ``axis``
        selects the pin offsets (0: x, 1: y).  Columns follow net order,
        or the order of ``nets`` when given (only those nets are read).
        Every value is one of the floats ``coord[cell] + offset`` a pin
        gather computes, and min/max do not depend on evaluation order,
        so the extents equal a segmented ``reduceat``'s bit for bit — up
        to the sign of a zero where ``+0.0`` and ``-0.0`` pins tie, which
        ``reduceat`` itself does not fix.
        """
        offsets = self.dx if axis == 0 else self.dy
        n = self.net_col.size if nets is None else nets.size
        if len(self.widths) == 1:
            # One class (most small netlists): its columns are the nets.
            groups = [(0, slice(None) if nets is None else nets, slice(None))]
        elif nets is None:
            groups = [
                (c, slice(None), self.nets[c]) for c in range(len(self.widths))
            ]
        else:
            cls = self.net_class[nets]
            order = np.argsort(cls, kind="stable")
            counts = np.bincount(cls, minlength=len(self.widths))
            ends = np.cumsum(counts)
            groups = []
            for c in np.flatnonzero(counts):
                dest = order[ends[c] - counts[c]:ends[c]]
                groups.append((c, self.net_col[nets[dest]], dest))
            if len(groups) == 1:
                # One class: the stable order is the identity.
                groups = [(groups[0][0], groups[0][1], slice(None))]
        if k == 1:
            lo = np.empty((1, n))
            hi = np.empty((1, n))
        else:
            # Row 0 the minima, row 1 the negated maxima (see _top_k).
            ext = np.empty((2, k, n))
            held = np.empty((2, k - 1, n), dtype=np.int64)
        for c, cols, dest in groups:
            cell = self.cell[c][:, cols]
            values = coord[cell]
            values += offsets[c][:, cols]
            if k == 1:
                lo[0, dest] = values.min(axis=0)
                hi[0, dest] = values.max(axis=0)
            elif isinstance(dest, slice):
                _top_k(values, cell, k, ext, held)
            else:
                ext[:, :, dest], held[:, :, dest] = _top_k(values, cell, k)
        if k == 1:
            return NetExtremes(lo, None, hi, None)
        return NetExtremes(ext[0], held[0], np.negative(ext[1]), held[1])


def _top_k(values, cell, k, ext=None, held=None):
    """The top-*k* distinct-cell extremes of the padded ``values`` columns.

    Fills ``ext`` (minima, negated maxima) and ``held`` (their cells),
    allocated here when not given, and returns them.  Both sides run as
    one: the maxima are the negated minima of the negated values, which
    is exact (negation is); tied entries are equal values, so which one
    a reduction keeps shows only in the sign of a tied zero.
    """
    n = values.shape[1]
    if ext is None:
        ext = np.empty((2, k, n))
        held = np.empty((2, k - 1, n), dtype=np.int64)
    both = np.empty((2,) + values.shape)
    both[0] = values
    np.negative(values, out=both[1])
    hit = np.empty(both.shape, dtype=bool)
    cells = np.empty(both.shape, dtype=cell.dtype)
    for i in range(k):
        best = both.min(axis=1)
        ext[:, i] = best
        if i + 1 == k:
            return ext, held
        # The largest cell index holding each extreme.  Cells are
        # non-negative, so a product replaces a (branchy) select.
        np.equal(both, best[:, None], out=hit)
        np.multiply(cell, hit, out=cells)
        holder = cells.max(axis=1)
        held[:, i] = holder
        np.equal(cell, holder[:, None], out=hit)
        np.putmask(both, hit, np.inf)


# Weak keys: entries die with their netlist.  An id(netlist)-keyed dict
# would both leak every entry forever and — worse — serve stale arrays when
# a freed netlist's address gets reused by a new one.
_PIN_ARRAY_CACHE: "weakref.WeakKeyDictionary[Netlist, NetPinArrays]" = (
    weakref.WeakKeyDictionary()
)


def pin_arrays(netlist: Netlist) -> NetPinArrays:
    """Cached flattened pin arrays for a netlist."""
    cached = _PIN_ARRAY_CACHE.get(netlist)
    if cached is None or cached.net_start.size != netlist.num_nets + 1:
        cached = NetPinArrays(netlist)
        _PIN_ARRAY_CACHE[netlist] = cached
    return cached


def net_hpwl(placement: Placement) -> np.ndarray:
    """Half-perimeter wire length of every net, in microns."""
    arrays = pin_arrays(placement.netlist)
    if arrays.pin_cell.size == 0:
        return np.zeros(placement.netlist.num_nets)
    xlo, xhi, ylo, yhi = arrays.extents(placement)
    return (xhi - xlo) + (yhi - ylo)


def hpwl(placement: Placement, weights: Optional[np.ndarray] = None) -> float:
    """Total (optionally weighted) HPWL in microns."""
    lengths = net_hpwl(placement)
    if weights is None:
        return float(lengths.sum())
    if len(weights) != len(lengths):
        raise ValueError("weight array does not match net count")
    return float((lengths * weights).sum())


def hpwl_meters(placement: Placement) -> float:
    """Total HPWL converted to meters (the paper's Table 1 unit)."""
    return hpwl(placement) / MICRONS_PER_METER


def quadratic_wirelength(placement: Placement) -> float:
    """Sum over nets of the clique squared-distance cost (Section 2.1).

    For each ``k``-pin net the clique contributes
    ``(1/k) * sum_{i<j} (d_ij_x^2 + d_ij_y^2)``, which equals
    ``sum(x^2) - k*mean(x)^2`` per axis — computed that way to stay O(pins).
    """
    arrays = pin_arrays(placement.netlist)
    if arrays.pin_cell.size == 0:
        return 0.0
    px, py = arrays.pin_coords(placement)
    seg = arrays.net_start[:-1]
    k = arrays.degree.astype(np.float64)
    total = 0.0
    for coords in (px, py):
        s1 = np.add.reduceat(coords, seg)
        s2 = np.add.reduceat(coords * coords, seg)
        # (1/k) * sum_{i<j} (c_i - c_j)^2 == s2 - s1^2 / k
        per_net = s2 - (s1 * s1) / k
        total += float(per_net.sum())
    return total


def net_mst_length(placement: Placement, max_degree: int = 64) -> np.ndarray:
    """Per-net rectilinear minimum spanning tree length (microns).

    A tighter routed-length estimate than HPWL (exact for 2-3 pins, within
    1.5x of the Steiner optimum in general).  Prim's algorithm on Manhattan
    distances, O(k^2) per net; nets above ``max_degree`` fall back to HPWL.
    """
    arrays = pin_arrays(placement.netlist)
    out = np.zeros(placement.netlist.num_nets)
    if arrays.pin_cell.size == 0:
        return out
    px, py = arrays.pin_coords(placement)
    hp = net_hpwl(placement)
    starts = arrays.net_start
    for j in range(placement.netlist.num_nets):
        lo, hi = int(starts[j]), int(starts[j + 1])
        k = hi - lo
        if k < 2:
            continue
        if k > max_degree:
            out[j] = hp[j]
            continue
        xs = px[lo:hi]
        ys = py[lo:hi]
        in_tree = np.zeros(k, dtype=bool)
        in_tree[0] = True
        dist = np.abs(xs - xs[0]) + np.abs(ys - ys[0])
        total = 0.0
        for _ in range(k - 1):
            dist_masked = np.where(in_tree, np.inf, dist)
            nxt = int(np.argmin(dist_masked))
            total += float(dist_masked[nxt])
            in_tree[nxt] = True
            cand = np.abs(xs - xs[nxt]) + np.abs(ys - ys[nxt])
            dist = np.minimum(dist, cand)
        out[j] = total
    return out


def mst_wirelength(placement: Placement) -> float:
    """Total rectilinear MST length in microns."""
    return float(net_mst_length(placement).sum())


def net_bounding_boxes(placement: Placement) -> np.ndarray:
    """Per-net (xlo, ylo, xhi, yhi); shape ``(num_nets, 4)``."""
    out = np.empty((placement.netlist.num_nets, 4))
    out[:, 0], out[:, 2], out[:, 1], out[:, 3] = pin_arrays(
        placement.netlist
    ).extents(placement)
    return out
