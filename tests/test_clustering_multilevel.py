"""Tests for netlist clustering and the multilevel placement flow."""

import numpy as np
import pytest

from repro import Placement, hpwl_meters
from repro.core import MultilevelPlacer, PlacerConfig
from repro.netlist import cluster_netlist


class TestClustering:
    def test_coarsens(self, small_circuit):
        nl = small_circuit.netlist
        clustering = cluster_netlist(nl)
        assert clustering.coarse.num_movable < nl.num_movable
        assert clustering.ratio > 1.2

    def test_area_conserved(self, small_circuit):
        nl = small_circuit.netlist
        clustering = cluster_netlist(nl)
        assert clustering.coarse.movable_area() == pytest.approx(
            nl.movable_area(), rel=1e-9
        )

    def test_fixed_cells_preserved(self, small_circuit):
        nl = small_circuit.netlist
        clustering = cluster_netlist(nl)
        assert clustering.coarse.num_fixed == nl.num_fixed
        for cell in nl.cells:
            if cell.fixed:
                other = clustering.coarse.cell_by_name(cell.name)
                assert other.fixed and other.x == cell.x

    def test_mapping_total(self, small_circuit):
        nl = small_circuit.netlist
        clustering = cluster_netlist(nl)
        assert clustering.map_to_coarse.shape == (nl.num_cells,)
        assert clustering.map_to_coarse.min() >= 0
        assert clustering.map_to_coarse.max() < clustering.coarse.num_cells

    def test_cluster_area_cap(self, small_circuit):
        nl = small_circuit.netlist
        cap = 3.0 * nl.average_movable_area()
        clustering = cluster_netlist(nl, max_cluster_area=cap)
        for cell in clustering.coarse.cells:
            if not cell.fixed:
                assert cell.area <= cap + 1e-6

    def test_nets_have_one_driver(self, small_circuit):
        clustering = cluster_netlist(small_circuit.netlist)
        for net in clustering.coarse.nets:
            drivers = [p for p in net.pins if p.direction.value == "output"]
            assert len(drivers) <= 1

    def test_expand_places_members_at_cluster(self, small_circuit, rng):
        nl = small_circuit.netlist
        clustering = cluster_netlist(nl)
        coarse_p = Placement.random(clustering.coarse, small_circuit.region, rng)
        expanded = clustering.expand(coarse_p)
        for i in range(nl.num_cells):
            if nl.cells[i].fixed:
                continue
            j = clustering.map_to_coarse[i]
            assert expanded.x[i] == coarse_p.x[j]
            assert expanded.y[i] == coarse_p.y[j]


class TestMultilevel:
    def test_places_and_compares_to_flat(self, small_circuit, placed_small):
        result = MultilevelPlacer(
            small_circuit.netlist, small_circuit.region, levels=1
        ).place()
        assert result.levels >= 1
        assert result.placement.netlist is small_circuit.netlist
        # Quality in the same league as the flat run.
        assert result.hpwl_m < 1.6 * placed_small.hpwl_m

    def test_levels_validation(self, small_circuit):
        with pytest.raises(ValueError):
            MultilevelPlacer(small_circuit.netlist, small_circuit.region, levels=0)

    def test_two_levels(self, small_circuit):
        result = MultilevelPlacer(
            small_circuit.netlist, small_circuit.region, levels=2
        ).place()
        assert result.levels <= 2
        assert len(result.coarse_results) == result.levels


class TestVCycle:
    """The config-driven V-cycle: api routing, spans, budgets, resume."""

    def test_api_config_routes_multilevel(self, small_circuit):
        import repro
        from repro.observability import Telemetry

        tel = Telemetry()
        cfg = PlacerConfig(multilevel_levels=2)
        result = repro.place(
            small_circuit, config=cfg, seed=0, telemetry=tel, legalize=False
        )
        names = set(tel.spans.totals())
        assert "coarsen" in names
        assert "level-0" in names and "level-1" in names
        assert result.placement.netlist is small_circuit.netlist
        assert result.config["multilevel_levels"] == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlacerConfig(multilevel_levels=-1)
        with pytest.raises(ValueError):
            PlacerConfig(multilevel_refine_iterations=0)

    def test_refine_stages_respect_budget(self, small_circuit):
        result = MultilevelPlacer(
            small_circuit.netlist, small_circuit.region,
            levels=2, refine_iterations=4,
        ).place()
        # Only the coarsest level runs from scratch with the full budget;
        # every level seeded by an expanded placement refines briefly.
        for coarse in result.coarse_results[1:]:
            assert coarse.iterations <= 4
        assert result.refine_result.iterations <= 4

    def test_deterministic(self, small_circuit):
        cfg = PlacerConfig(multilevel_levels=2)
        a = MultilevelPlacer(
            small_circuit.netlist, small_circuit.region, cfg
        ).place()
        b = MultilevelPlacer(
            small_circuit.netlist, small_circuit.region, cfg
        ).place()
        assert np.array_equal(a.placement.x, b.placement.x)
        assert np.array_equal(a.placement.y, b.placement.y)

    def test_checkpoint_written_for_original_netlist_and_resumable(
        self, small_circuit, tmp_path
    ):
        ckpt = tmp_path / "ml.npz"
        cfg = PlacerConfig(
            multilevel_levels=1,
            multilevel_refine_iterations=8,
            checkpoint_path=str(ckpt),
            checkpoint_every=2,
        )
        MultilevelPlacer(
            small_circuit.netlist, small_circuit.region, cfg
        ).place()
        # Only the final full-netlist refinement checkpoints, so the
        # snapshot always describes the original netlist...
        assert ckpt.exists()
        # ...and resume skips the coarse traversal entirely.
        resumed = MultilevelPlacer(
            small_circuit.netlist, small_circuit.region, cfg
        ).place(resume_from=str(ckpt))
        assert resumed.levels == 0
        assert resumed.coarse_results == []
        assert resumed.placement.netlist is small_circuit.netlist

    def test_resume_keeps_the_refine_budget(self, small_circuit, tmp_path):
        """The snapshot's counter is the refinement's own, so a resume runs
        to the fresh run's refine budget, not the flat iteration cap."""
        ckpt = tmp_path / "ml.npz"
        cfg = PlacerConfig(
            multilevel_levels=1,
            multilevel_refine_iterations=6,
            checkpoint_path=str(ckpt),
            checkpoint_every=4,
        )
        fresh = MultilevelPlacer(
            small_circuit.netlist, small_circuit.region, cfg
        ).place()
        resumed = MultilevelPlacer(
            small_circuit.netlist, small_circuit.region, cfg
        ).place(resume_from=str(ckpt))
        assert resumed.refine_result.iterations == (
            fresh.refine_result.iterations
        )
        assert np.array_equal(resumed.placement.x, fresh.placement.x)
        assert np.array_equal(resumed.placement.y, fresh.placement.y)

    def test_cli_multilevel_flag(self, capsys):
        from repro.cli import main

        rc = main(["place", "--circuit", "fract", "--scale", "0.5",
                   "--multilevel", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "multilevel" in out
        assert "global placement" in out
