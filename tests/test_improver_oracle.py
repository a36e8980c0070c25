"""Bit-identity of the vectorized improver against its sequential oracles.

``VectorImprover`` accepts moves with a numpy independent-set computation
and re-prices only the (move, net) pairs whose net moved.  The design it
replaced — a best-first Python sweep that re-prices every pin of every
live candidate each round — lives on in :mod:`repro.testing.improver`.
Both must agree exactly: positions to the last bit, pass and move counts,
and the HPWL floats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Rect
from repro.legalize import MoveEvaluator, VectorAbacusLegalizer, VectorImprover
from repro.legalize.extents import _sort_within
from repro.legalize.improver import _independent_set
from repro.netlist import GeneratorSpec, Placement, generate_circuit
from repro.testing import (
    SequentialImprover,
    assert_legal,
    reference_deltas,
    sequential_accept,
)


def _legal_case(seed: int, num_cells: int, obstacles: bool):
    circ = generate_circuit(
        GeneratorSpec(name=f"orc{seed}", num_cells=num_cells,
                      num_rows=max(8, num_cells // 40), seed=seed,
                      utilization=0.6 if obstacles else 0.8)
    )
    region = circ.region
    blocks = []
    if obstacles:
        b = region.bounds
        w, h = b.xhi - b.xlo, b.yhi - b.ylo
        blocks = [
            Rect(b.xlo + 0.30 * w, b.ylo + 0.25 * h,
                 b.xlo + 0.40 * w, b.ylo + 0.50 * h),
            Rect(b.xlo + 0.70 * w, b.ylo + 0.50 * h,
                 b.xlo + 0.80 * w, b.ylo + 0.75 * h),
        ]
    placement = Placement.random(
        circ.netlist, region, np.random.default_rng(seed + 7)
    )
    legal = VectorAbacusLegalizer(region, obstacles=blocks).legalize(placement)
    assert legal.success
    return circ.netlist, region, blocks, legal.placement


class TestImproverMatchesOracle:
    @pytest.mark.parametrize("min_gain", [0.0, 0.01])
    @pytest.mark.parametrize("obstacles", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical(self, seed, obstacles, min_gain):
        _, region, blocks, legal = _legal_case(
            seed, num_cells=200 + 150 * seed, obstacles=obstacles
        )
        kwargs = dict(max_passes=7, obstacles=blocks, min_gain=min_gain)
        new = VectorImprover(region, **kwargs).improve(legal)
        ref = SequentialImprover(region, **kwargs).improve(legal)
        assert np.array_equal(new.placement.x, ref.placement.x)
        assert np.array_equal(new.placement.y, ref.placement.y)
        assert new.passes == ref.passes
        assert new.moves_accepted == ref.moves_accepted
        assert new.hpwl_before_um == ref.hpwl_before_um
        assert new.hpwl_after_um == ref.hpwl_after_um
        assert new.moves_accepted > 0
        assert_legal(new.placement, region, obstacles=blocks, reference=legal)


class TestPairPricing:
    @pytest.mark.parametrize("two", [False, True])
    @pytest.mark.parametrize("x_only", [False, True])
    def test_deltas_match_per_pin_reference(self, two, x_only):
        netlist, _, _, legal = _legal_case(5, num_cells=300, obstacles=False)
        ev = MoveEvaluator(netlist)
        rng = np.random.default_rng(11)
        cells = rng.choice(netlist.movable_indices, size=(60, 2))
        a, b = cells[:, 0], cells[:, 1]
        new_ax = legal.x[a] + rng.uniform(-30, 30, size=60)
        new_ay = legal.y[a] if x_only else legal.y[b]
        args = (legal.x, legal.y, a, new_ax, new_ay)
        if two:
            args += (b, legal.x[a], legal.y[b] if x_only else legal.y[a])
        got = ev.deltas(*args, x_only=x_only)
        want = reference_deltas(ev, *args, x_only=x_only)
        assert np.array_equal(got, want)

    def test_pair_subset_reprices_to_the_same_floats(self):
        netlist, _, _, legal = _legal_case(6, num_cells=300, obstacles=False)
        ev = MoveEvaluator(netlist)
        rng = np.random.default_rng(3)
        cells = rng.choice(netlist.movable_indices, size=(40, 2),
                           replace=False)
        a, b = cells[:, 0], cells[:, 1]
        moves = (a, legal.x[b], legal.y[b], b, legal.x[a], legal.y[a])
        pair_move, pair_net, pair_inc = ev.pairs(a, b)
        full = ev.price_pairs(
            legal.x, legal.y, pair_move, pair_net, pair_inc, *moves
        )
        some = np.flatnonzero(rng.random(len(pair_move)) < 0.3)
        part = ev.price_pairs(
            legal.x, legal.y, pair_move[some], pair_net[some],
            pair_inc[:, some], *moves
        )
        assert np.array_equal(part, full[some])
        summed = np.bincount(pair_move, weights=full, minlength=len(a))
        assert np.array_equal(summed, ev.deltas(legal.x, legal.y, *moves))


class TestSortWithin:
    @pytest.mark.parametrize("seed", range(5))
    def test_is_lexsort_ties_included(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        groups = rng.integers(0, 40, size=n)
        # Few distinct values, signed zeros among them: every tie must
        # fall back to index order, as in lexsort.
        values = rng.choice([-1.5, -0.0, 0.0, 2.25, 7.0], size=n)
        assert np.array_equal(
            _sort_within(groups, values), np.lexsort((values, groups))
        )


def _random_candidates(rng, k, num_cells, num_nets):
    """k candidates with distinct window cells (-1 padded) and nets."""
    w = int(rng.integers(2, 7))
    windows = np.full((k, w), -1, dtype=np.int64)
    nets = []
    for m in range(k):
        size = int(rng.integers(1, min(w, num_cells) + 1))
        windows[m, :size] = rng.choice(num_cells, size=size, replace=False)
        rng.shuffle(windows[m])
        nets.append(rng.choice(
            num_nets, size=int(rng.integers(0, min(5, num_nets) + 1)),
            replace=False,
        ))
    return windows, nets


class TestIndependentSet:
    @pytest.mark.parametrize("trial", range(40))
    def test_matches_sequential_sweep(self, trial):
        rng = np.random.default_rng(trial)
        num_cells = int(rng.integers(5, 80))
        num_nets = int(rng.integers(1, 40))
        k = int(rng.integers(1, 120))
        windows, nets = _random_candidates(rng, k, num_cells, num_nets)
        locked_seq = bytearray(num_cells)
        locked_vec = np.zeros(num_cells + 1, dtype=bool)
        alive = np.arange(k)
        # Several rounds, so window locks carry over from one to the next.
        for _ in range(6):
            if not alive.size:
                break
            # Few distinct deltas: ties are broken by position in alive,
            # exactly as the improver's stable argsort does.
            deltas = rng.integers(-4, 1, size=len(alive)).astype(float)
            cand = np.flatnonzero(deltas < 0)
            if not cand.size:
                break
            order = cand[np.argsort(deltas[cand], kind="stable")]
            ranked = alive[order]
            acc_seq, retry_seq = sequential_accept(
                [windows[m].tolist() for m in ranked],
                [nets[m].tolist() for m in ranked],
                locked_seq,
            )
            owner = np.repeat(np.arange(len(ranked)),
                              [len(nets[m]) for m in ranked])
            flat = np.concatenate(
                [nets[m] for m in ranked] + [np.zeros(0, np.int64)]
            ).astype(np.int64)
            accept, retry = _independent_set(
                windows[ranked], owner, flat, locked_vec
            )
            assert np.flatnonzero(accept).tolist() == acc_seq
            assert np.flatnonzero(retry).tolist() == retry_seq
            locked_vec[windows[ranked[accept]]] = True
            locked_vec[-1] = False
            assert locked_vec[:-1].tolist() == [bool(v) for v in locked_seq]
            alive = ranked[retry]

    def test_chain_of_conflicts(self):
        # Candidate m shares a cell with m + 1: a path, best rank first.
        # The sweep takes every other candidate; each rejected one met a
        # better-ranked acceptance on a window cell, so none is retried.
        k = 9
        windows = np.stack((np.arange(k), np.arange(1, k + 1)), axis=1)
        locked = np.zeros(k + 2, dtype=bool)
        accept, retry = _independent_set(
            windows, np.zeros(0, np.int64), np.zeros(0, np.int64), locked
        )
        assert np.flatnonzero(accept).tolist() == [0, 2, 4, 6, 8]
        assert not retry.any()
