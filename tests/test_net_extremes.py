"""Bit-identity of the padded degree-class kernel and the slot matrix.

Every exact per-net reduction of the core loop and the improver goes
through :meth:`DegreeClasses.extremes`, and the quadratic system is
assembled by slot-matrix products.  Both replaced simpler designs that
:mod:`repro.testing.reductions` and :mod:`repro.testing.improver` keep as
oracles; the new code must agree with them to the last bit (compared on
the ``int64`` views).

The netlists here are built to hit the edges: degree-1 nets, nets of one
cell, several pins of one cell on a net, star nets above the clique
threshold (one past numpy's 128-element pairwise-summation block), fixed
cells, pin offsets, and coordinates on a coarse grid so that pins of
different cells tie.  Where +0.0 and -0.0 tie for an extreme, numpy's
own reductions do not fix which one they return (a long ``reduceat``
segment runs in SIMD lanes), so that case is checked separately, by
value and by the bits of every non-zero entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import NetlistBuilder, Placement
from repro.core import QuadraticSystem
from repro.core.linearization import linearization_factors
from repro.evaluation import net_bounding_boxes, net_hpwl, pin_arrays
from repro.legalize import (
    MoveEvaluator,
    VectorAbacusLegalizer,
    VectorImprover,
)
from repro.netlist import GeneratorSpec, generate_circuit
from repro.testing import (
    SequentialImprover,
    reference_assemble,
    reference_deltas,
    reference_exclusive_x,
    reference_extents,
    reference_star_centroids,
)

DEGREES = (1, 1, 2, 2, 2, 3, 3, 4, 5, 7, 9, 13, 22, 30, 150)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bitwise(got, want) -> None:
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(_bits(got), _bits(want))


def assert_bitwise_but_zero_sign(got, want) -> None:
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    nonzero = np.asarray(want) != 0
    assert np.array_equal(_bits(got)[nonzero], _bits(want)[nonzero])


def _edge_case(seed: int, num_cells: int = 60, num_nets: int = 80,
               signed_zeros: bool = False):
    """A netlist of the awkward cases and a tie-heavy placement."""
    rng = np.random.default_rng(seed)
    b = NetlistBuilder(f"edge{seed}")
    fixed = set(rng.choice(num_cells, size=num_cells // 6, replace=False))
    for c in range(num_cells):
        if c in fixed:
            b.add_fixed_cell(f"c{c}", 2.0, 2.0,
                             x=float(rng.integers(0, 40)),
                             y=float(rng.integers(0, 40)))
        else:
            b.add_cell(f"c{c}", 2.0, 2.0)
    offsets = (-1.0, -0.5, -0.0 if signed_zeros else 0.0, 0.0, 0.5, 1.0)
    for j in range(num_nets):
        degree = int(DEGREES[j % len(DEGREES)])
        if j % 11 == 4:
            # Every pin on one cell.
            cells = [int(rng.integers(num_cells))] * max(degree, 2)
        else:
            # Drawn with replacement: several pins of one cell.
            cells = rng.integers(num_cells, size=degree).tolist()
        b.add_net(f"n{j}", [
            (f"c{c}", "output" if i == 0 else "input",
             float(rng.choice(offsets)), float(rng.choice(offsets)))
            for i, c in enumerate(cells)
        ])
    nl = b.build()
    x = rng.integers(0, 12, size=nl.num_cells).astype(float) * 2.5
    y = rng.integers(0, 12, size=nl.num_cells).astype(float) * 2.5
    if signed_zeros:
        # A pin at -0.0 + -0.0 ties one at +0.0 in value only.
        for coord in (x, y):
            coord[(coord == 0) & (rng.random(nl.num_cells) < 0.5)] = -0.0
    return nl, Placement(nl, x, y)


SEEDS = range(4)


class TestExtents:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_match_reduceat(self, seed):
        _, p = _edge_case(seed)
        arrays = pin_arrays(p.netlist)
        xlo, xhi, ylo, yhi = reference_extents(p)
        for got, want in zip(arrays.extents(p), (xlo, xhi, ylo, yhi)):
            assert_bitwise(got, want)
        assert_bitwise(net_hpwl(p), (xhi - xlo) + (yhi - ylo))
        boxes = net_bounding_boxes(p)
        for col, want in enumerate((xlo, ylo, xhi, yhi)):
            assert_bitwise(boxes[:, col], want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linearization_factors(self, seed):
        _, p = _edge_case(seed)
        xlo, xhi, ylo, yhi = reference_extents(p)
        fx, fy = linearization_factors(p, gamma=1.0)
        for got, span in ((fx, xhi - xlo), (fy, yhi - ylo)):
            want = 1.0 / np.maximum(span, 1.0)
            want /= want.mean()
            assert_bitwise(got, np.clip(want, 0.1, 10.0))

    def test_generated_circuit(self, small_circuit, rng):
        nl = small_circuit.netlist
        p = Placement(nl, rng.uniform(0, 500, nl.num_cells),
                      rng.uniform(0, 500, nl.num_cells))
        for got, want in zip(pin_arrays(nl).extents(p), reference_extents(p)):
            assert_bitwise(got, want)


class TestTopK:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_excludes_any_smaller_set(self, seed, k):
        nl, p = _edge_case(seed)
        arrays = pin_arrays(nl)
        rng = np.random.default_rng(100 + seed)
        # A subset of the nets, in shuffled order.
        nets = rng.permutation(nl.num_nets)[: nl.num_nets // 2 + 3]
        for axis, coord, offsets in ((0, p.x, arrays.pin_dx),
                                     (1, p.y, arrays.pin_dy)):
            for subset in (None, nets):
                ext = arrays.classes.extremes(coord, axis, k=k, nets=subset)
                order = np.arange(nl.num_nets) if subset is None else subset
                for col, j in enumerate(order):
                    lo_pins = slice(arrays.net_start[j], arrays.net_start[j + 1])
                    cells = arrays.pin_cell[lo_pins]
                    vals = coord[cells] + offsets[lo_pins]
                    candidates = np.unique(cells).tolist() + [-5]
                    for _ in range(4):
                        size = int(rng.integers(0, k))
                        S = rng.choice(candidates, size=size, replace=False)
                        free = ~np.isin(cells, S)
                        want_lo = vals[free].min() if free.any() else np.inf
                        want_hi = vals[free].max() if free.any() else -np.inf
                        r = 0
                        while r < k - 1 and ext.lo_cell[r, col] in S:
                            r += 1
                        assert _bits(ext.lo[r, col]) == _bits(want_lo)
                        r = 0
                        while r < k - 1 and ext.hi_cell[r, col] in S:
                            r += 1
                        assert _bits(ext.hi[r, col]) == _bits(want_hi)


class TestImproverPricing:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exclusive_x(self, seed):
        nl, p = _edge_case(seed)
        ev = MoveEvaluator(nl)
        rng = np.random.default_rng(seed)
        cells_sets = (
            None,
            rng.choice(nl.num_cells, size=7, replace=False),  # few nets
            rng.choice(nl.num_cells, size=45, replace=False),  # most nets
        )
        for cells in cells_sets:
            got = ev.exclusive_x(p.x, cells)
            want = reference_exclusive_x(ev, p.x, cells)
            for g, w in zip(got[:2], want[:2]):
                assert_bitwise(g, w)
            assert np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("two", [False, True])
    @pytest.mark.parametrize("x_only", [False, True])
    def test_deltas(self, seed, two, x_only):
        nl, p = _edge_case(seed)
        ev = MoveEvaluator(nl)
        rng = np.random.default_rng(7 + seed)
        n = 90
        a = rng.integers(nl.num_cells, size=n)
        # Grid targets tie with pins of unmoved cells.
        new_ax = rng.integers(0, 12, size=n) * 2.5
        new_ay = p.y[a] if x_only else rng.integers(0, 12, size=n) * 2.5
        args = (p.x, p.y, a, new_ax, new_ay)
        if two:
            b = rng.integers(nl.num_cells, size=n)
            b[::9] = a[::9]  # the same cell twice: b's target wins
            new_by = p.y[b] if x_only else rng.integers(0, 12, size=n) * 2.5
            args += (b, rng.integers(0, 12, size=n) * 2.5, new_by)
        got = ev.deltas(*args, x_only=x_only)
        want = reference_deltas(ev, *args, x_only=x_only)
        assert_bitwise(got, want)

    @pytest.mark.parametrize("two", [False, True])
    def test_pairs_carry_incidences(self, two):
        nl, _ = _edge_case(1)
        ev = MoveEvaluator(nl)
        rng = np.random.default_rng(3)
        a = rng.integers(nl.num_cells, size=40)
        b = rng.integers(nl.num_cells, size=40) if two else None
        pair_move, pair_net, pair_inc = ev.pairs(a, b)
        assert pair_inc.shape == (2 if two else 1, len(pair_move))
        for row, cells in enumerate((a, b) if two else (a,)):
            inc = pair_inc[row]
            on = inc >= 0
            assert np.array_equal(ev.inc_cell[inc[on]], cells[pair_move[on]])
            assert np.array_equal(ev.inc_net[inc[on]], pair_net[on])
            for m, j in zip(pair_move[~on], pair_net[~on]):
                assert j not in ev.nets_of(int(cells[m]))


class TestSignedZeroTies:
    """+0.0 tying -0.0 at an extreme: equal values, either sign."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_extents_and_pricing(self, seed):
        nl, p = _edge_case(seed, signed_zeros=True)
        assert (np.signbit(p.x) & (p.x == 0)).any()
        for got, want in zip(pin_arrays(nl).extents(p), reference_extents(p)):
            assert_bitwise_but_zero_sign(got, want)
        ev = MoveEvaluator(nl)
        got = ev.exclusive_x(p.x)
        want = reference_exclusive_x(ev, p.x)
        for g, w in zip(got[:2], want[:2]):
            assert_bitwise_but_zero_sign(g, w)
        rng = np.random.default_rng(11 + seed)
        n = 90
        a, b = rng.integers(nl.num_cells, size=(2, n))
        args = (p.x, p.y, a, rng.integers(0, 12, size=n) * 2.5,
                rng.integers(0, 12, size=n) * 2.5,
                b, rng.integers(0, 12, size=n) * 2.5,
                rng.integers(0, 12, size=n) * 2.5)
        assert_bitwise_but_zero_sign(ev.deltas(*args),
                                     reference_deltas(ev, *args))


class TestImproverOnSummaries:
    """The whole improver, pricing through the summaries, gives the
    sequential oracle's result."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical(self, seed):
        circ = generate_circuit(GeneratorSpec(
            name=f"sum{seed}", num_cells=300, num_rows=8, seed=seed))
        placement = Placement.random(
            circ.netlist, circ.region, np.random.default_rng(seed))
        legal = VectorAbacusLegalizer(circ.region).legalize(placement)
        new = VectorImprover(circ.region, max_passes=5).improve(
            legal.placement)
        ref = SequentialImprover(circ.region, max_passes=5).improve(
            legal.placement)
        assert new.moves_accepted > 0
        assert np.array_equal(new.placement.x, ref.placement.x)
        assert np.array_equal(new.placement.y, ref.placement.y)
        assert new.hpwl_after_um == ref.hpwl_after_um


class TestAssembly:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("threshold", [2, 4, 20])
    def test_matches_scatter_oracle(self, seed, threshold):
        nl, p = _edge_case(seed)
        qs = QuadraticSystem(nl, clique_threshold=threshold)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 2.0, size=nl.num_nets)
        lin_x, lin_y = linearization_factors(p, gamma=1.0)
        for kwargs in (
            {},
            dict(net_weights=weights, anchor_weight=0.02,
                 anchor_xy=(3.0, -7.5)),
            dict(net_weights=weights, lin_x=lin_x, lin_y=lin_y,
                 anchor_weight=1e-3, anchor_xy=(50.0, 50.0)),
        ):
            system = qs.assemble(**kwargs)
            Ax, bx, Ay, by = reference_assemble(qs, **kwargs)
            for got, want in ((system.Ax, Ax), (system.Ay, Ay)):
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert_bitwise(got.data, want.data)
            assert_bitwise(system.bx, bx)
            assert_bitwise(system.by, by)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("threshold", [2, 20])
    def test_star_centroids(self, seed, threshold):
        nl, p = _edge_case(seed)
        qs = QuadraticSystem(nl, clique_threshold=threshold)
        assert qs.n_stars > 0
        got = qs.vars_from_placement(p)
        want = reference_star_centroids(qs, p)
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])
