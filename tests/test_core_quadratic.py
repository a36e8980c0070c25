"""Tests for the quadratic system assembly (clique/star, fixed folding)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import NetlistBuilder, Placement, PlacementRegion
from repro.core import QuadraticSystem, conjugate_gradient
from repro.core.quadratic import AssembledSystem
from repro.testing import reference_assemble


def _solve(system: AssembledSystem):
    x = conjugate_gradient(system.Ax, system.bx, tol=1e-12).x
    y = conjugate_gradient(system.Ay, system.by, tol=1e-12).x
    return x, y


class TestTwoPinChain:
    """pad(0) -- a -- b -- pad(100): equilibrium is analytic."""

    def test_equilibrium_positions(self, four_cell_netlist):
        qs = QuadraticSystem(four_cell_netlist)
        system = qs.assemble()
        x, _ = _solve(system)
        # Equal springs in series: cells sit at 1/3 and 2/3.
        assert x[0] == pytest.approx(100.0 / 3.0, rel=1e-6)
        assert x[1] == pytest.approx(200.0 / 3.0, rel=1e-6)

    def test_matrix_symmetric(self, four_cell_netlist):
        system = QuadraticSystem(four_cell_netlist).assemble()
        diff = (system.Ax - system.Ax.T).toarray()
        assert np.abs(diff).max() < 1e-12

    def test_net_weight_shifts_equilibrium(self, four_cell_netlist):
        qs = QuadraticSystem(four_cell_netlist)
        w = np.array([10.0, 1.0, 1.0])  # n1 (pad-a) very stiff
        x, _ = _solve(qs.assemble(net_weights=w))
        assert x[0] < 10.0  # a pulled hard toward the left pad

    def test_axis_linearization_factors(self, four_cell_netlist):
        qs = QuadraticSystem(four_cell_netlist)
        lin_x = np.array([10.0, 1.0, 1.0])
        lin_y = np.ones(3)
        sys_lin = qs.assemble(lin_x=lin_x, lin_y=lin_y)
        x, _ = _solve(sys_lin)
        assert x[0] < 100.0 / 3.0

    def test_anchor_pulls_to_center(self, four_cell_netlist):
        qs = QuadraticSystem(four_cell_netlist)
        system = qs.assemble(anchor_weight=1e6, anchor_xy=(77.0, 33.0))
        x, y = _solve(system)
        assert np.allclose(x, 77.0, atol=1e-3)
        assert np.allclose(y, 33.0, atol=1e-3)

    def test_forces_shift_solution(self, four_cell_netlist):
        qs = QuadraticSystem(four_cell_netlist)
        system = qs.assemble()
        fx, fy = qs.forces_to_vars(np.array([1.0, 0.0]), np.zeros(2))
        x0, _ = _solve(system)
        x1 = conjugate_gradient(system.Ax, system.bx + fx, tol=1e-12).x
        assert x1[0] > x0[0]  # +x force moves cell a right


class TestStarModel:
    def _ring(self, k: int, clique_threshold: int):
        b = NetlistBuilder("star")
        b.add_fixed_cell("p", 1.0, 1.0, x=0.0, y=0.0)
        for i in range(k):
            b.add_cell(f"c{i}", 4.0, 4.0)
        pins = [("p", "output")] + [(f"c{i}", "input") for i in range(k)]
        b.add_net("big", pins)
        # Anchor each cell to a distinct fixed pad so the optimum is unique.
        for i in range(k):
            b.add_fixed_cell(f"q{i}", 1.0, 1.0, x=10.0 * (i + 1), y=5.0)
            b.add_net(f"t{i}", [(f"c{i}", "output"), (f"q{i}", "input")])
        return b.build()

    def test_star_equals_clique_optimum(self):
        nl = self._ring(6, clique_threshold=10)
        clique = QuadraticSystem(nl, clique_threshold=10)
        star = QuadraticSystem(nl, clique_threshold=3)
        assert clique.n_stars == 0
        assert star.n_stars == 1
        xc, yc = _solve(clique.assemble())
        xs, ys = _solve(star.assemble())
        # The star's cell coordinates must match the clique optimum.
        n = clique.n_movable
        assert np.allclose(xc[:n], xs[:n], atol=1e-6)
        assert np.allclose(yc[:n], ys[:n], atol=1e-6)

    def test_star_vertex_at_centroid_init(self):
        nl = self._ring(5, clique_threshold=3)
        qs = QuadraticSystem(nl, clique_threshold=3)
        region = PlacementRegion.standard_cell(100.0, 100.0, 10.0)
        p = Placement.at_center(nl, region)
        x, y = qs.vars_from_placement(p)
        assert len(x) == qs.n_vars == qs.n_movable + 1
        big = nl.net_by_name("big")
        pin_cells = [pin.cell for pin in big.pins]
        assert x[-1] == pytest.approx(np.mean(p.x[pin_cells]))


class TestPlacementConversion:
    def test_round_trip(self, tiny_circuit, rng):
        nl = tiny_circuit.netlist
        qs = QuadraticSystem(nl)
        p = Placement.random(nl, tiny_circuit.region, rng)
        x, y = qs.vars_from_placement(p)
        q = qs.placement_from_vars(x, y, p)
        assert np.allclose(q.x, p.x)
        assert np.allclose(q.y, p.y)

    def test_invalid_weight_length(self, four_cell_netlist):
        qs = QuadraticSystem(four_cell_netlist)
        with pytest.raises(ValueError):
            qs.assemble(net_weights=np.ones(99))

    def test_invalid_threshold(self, four_cell_netlist):
        with pytest.raises(ValueError):
            QuadraticSystem(four_cell_netlist, clique_threshold=1)


class TestPatternReuse:
    """The cached CSR pattern behind every assemble() call."""

    def test_every_row_stores_diagonal(self, tiny_circuit):
        qs = QuadraticSystem(tiny_circuit.netlist)
        system = qs.assemble()
        assert system.diag_positions is not None
        assert system.diag_positions.size == system.n_vars
        for A in (system.Ax, system.Ay):
            rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
            stored_diag = np.flatnonzero(A.indices == rows)
            assert np.array_equal(stored_diag, system.diag_positions)
            assert np.allclose(A.data[stored_diag], A.diagonal())

    def test_pattern_stable_across_assemblies(self, tiny_circuit, rng):
        qs = QuadraticSystem(tiny_circuit.netlist)
        a = qs.assemble()
        weights = rng.uniform(0.5, 2.0, size=tiny_circuit.netlist.num_nets)
        b = qs.assemble(net_weights=weights, anchor_weight=0.01)
        assert np.array_equal(a.Ax.indices, b.Ax.indices)
        assert np.array_equal(a.Ax.indptr, b.Ax.indptr)
        assert np.array_equal(a.diag_positions, b.diag_positions)
        # Different weights really produce different values on the pattern.
        assert not np.allclose(a.Ax.data, b.Ax.data)

    def test_weighted_assembly_matches_coo_reference(self, tiny_circuit, rng):
        nl = tiny_circuit.netlist
        qs = QuadraticSystem(nl)
        weights = rng.uniform(0.5, 2.0, size=nl.num_nets)
        system = qs.assemble(net_weights=weights, anchor_weight=0.02)
        n = qs.n_vars
        w_mm = qs.mm_w * weights[qs.mm_net]
        w_mf = qs.mf_w * weights[qs.mf_net]
        diag = np.arange(n)
        rows = np.concatenate([qs.mm_u, qs.mm_v, qs.mm_u, qs.mm_v, qs.mf_u, diag])
        cols = np.concatenate([qs.mm_u, qs.mm_v, qs.mm_v, qs.mm_u, qs.mf_u, diag])
        vals = np.concatenate([w_mm, w_mm, -w_mm, -w_mm, w_mf, np.full(n, 0.02)])
        reference = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).toarray()
        assert np.allclose(system.Ax.toarray(), reference)
        # Bit for bit against the historical bincount scatter.
        Ax, bx, _, _ = reference_assemble(
            qs, net_weights=weights, anchor_weight=0.02
        )
        assert np.array_equal(system.Ax.indptr, Ax.indptr)
        assert np.array_equal(system.Ax.indices, Ax.indices)
        assert np.array_equal(system.Ax.data.view(np.int64), Ax.data.view(np.int64))
        assert np.array_equal(system.bx.view(np.int64), bx.view(np.int64))

    def test_shifted_matches_sparse_add(self, tiny_circuit):
        system = QuadraticSystem(tiny_circuit.netlist).assemble()
        n = system.n_vars
        for shift in (0.0, 0.3, 2.0):
            expected = (system.Ax + shift * sp.identity(n, format="csr")).toarray()
            assert np.allclose(system.shifted_x(shift).toarray(), expected)
        expected_y = (system.Ay + 0.7 * sp.identity(n, format="csr")).toarray()
        assert np.allclose(system.shifted_y(0.7).toarray(), expected_y)

    def test_axes_use_independent_buffers(self, tiny_circuit):
        system = QuadraticSystem(tiny_circuit.netlist).assemble()
        sx = system.shifted_x(1.0)
        sy = system.shifted_y(2.0)
        assert np.allclose(sx.diagonal(), system.Ax.diagonal() + 1.0)
        assert np.allclose(sy.diagonal(), system.Ay.diagonal() + 2.0)


class TestPinOffsets:
    def test_offsets_shift_equilibrium(self):
        b = NetlistBuilder("off")
        b.add_fixed_cell("p", 1.0, 1.0, x=0.0, y=0.0)
        b.add_cell("a", 4.0, 4.0)
        # Pin at +3 in x from a's center: equilibrium center is -3.
        b.add_net("n", [("p", "output"), ("a", "input", 3.0, 0.0)])
        nl = b.build()
        system = QuadraticSystem(nl).assemble()
        x, _ = _solve(system)
        assert x[0] == pytest.approx(-3.0, abs=1e-9)
