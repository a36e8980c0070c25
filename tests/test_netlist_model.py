"""Unit tests for cells, nets, pins and the netlist container."""

import numpy as np
import pytest

from repro import Cell, CellKind, NetlistBuilder, Pin, PinDirection
from repro.netlist import Net


class TestCell:
    def test_basic_properties(self):
        c = Cell("a", 10.0, 16.0)
        assert c.area == 160.0
        assert c.is_movable
        assert c.kind is CellKind.STANDARD

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Cell("a", 0.0, 10.0)

    def test_fixed_needs_coordinates(self):
        with pytest.raises(ValueError):
            Cell("a", 1.0, 1.0, fixed=True)
        c = Cell("a", 1.0, 1.0, fixed=True, x=5.0, y=5.0)
        assert not c.is_movable

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Cell("a", 1.0, 1.0, delay=-0.5)

    def test_rect_at(self):
        c = Cell("a", 10.0, 20.0)
        r = c.rect_at(50.0, 60.0)
        assert (r.xlo, r.ylo) == (45.0, 50.0)

    def test_fixed_rect(self):
        c = Cell("a", 10.0, 20.0, fixed=True, x=5.0, y=10.0)
        assert c.fixed_rect().center == (5.0, 10.0)
        with pytest.raises(ValueError):
            Cell("b", 1.0, 1.0).fixed_rect()


class TestNet:
    def test_degree_and_cells(self):
        net = Net("n", [Pin(0), Pin(1), Pin(2)])
        assert net.degree == 3
        assert net.cells() == [0, 1, 2]

    def test_no_pins_rejected(self):
        with pytest.raises(ValueError):
            Net("n", [])

    def test_multiple_drivers_rejected(self):
        with pytest.raises(ValueError):
            Net(
                "n",
                [Pin(0, PinDirection.OUTPUT), Pin(1, PinDirection.OUTPUT)],
            )

    def test_driver_and_sinks(self):
        net = Net("n", [Pin(0, PinDirection.OUTPUT), Pin(1), Pin(2)])
        assert net.driver.cell == 0
        assert [p.cell for p in net.sinks] == [1, 2]

    def test_undirected_net_has_no_driver(self):
        net = Net("n", [Pin(0), Pin(1)])
        assert net.driver is None

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Net("n", [Pin(0), Pin(1)], weight=0.0)


class TestBuilderAndNetlist:
    def test_duplicate_cell_rejected(self):
        b = NetlistBuilder("t")
        b.add_cell("a", 1.0, 1.0)
        with pytest.raises(ValueError):
            b.add_cell("a", 2.0, 2.0)

    def test_unknown_cell_in_net(self):
        b = NetlistBuilder("t")
        b.add_cell("a", 1.0, 1.0)
        with pytest.raises(KeyError):
            b.add_net("n", ["a", "ghost"])

    def test_duplicate_net_rejected(self):
        b = NetlistBuilder("t")
        b.add_cell("a", 1.0, 1.0)
        b.add_cell("b", 1.0, 1.0)
        b.add_net("n", ["a", "b"])
        with pytest.raises(ValueError):
            b.add_net("n", ["a", "b"])

    def test_pin_spec_forms(self):
        b = NetlistBuilder("t")
        b.add_cell("a", 1.0, 1.0)
        b.add_cell("b", 1.0, 1.0)
        net = b.add_net(
            "n", ["a", ("b", "output"), ("a", "input", 0.5, -0.5)]
        )
        assert net.pins[0].direction is PinDirection.INPUT
        assert net.pins[1].direction is PinDirection.OUTPUT
        assert net.pins[2].dx == 0.5 and net.pins[2].dy == -0.5

    def test_netlist_caches(self, four_cell_netlist):
        nl = four_cell_netlist
        assert nl.num_cells == 4
        assert nl.num_movable == 2
        assert nl.num_fixed == 2
        assert nl.num_nets == 3
        assert nl.num_pins == 6
        assert np.all(nl.fixed_x[nl.fixed_indices] == [0.0, 100.0])
        assert nl.movable_area() == 200.0
        assert nl.average_movable_area() == 100.0

    def test_nets_of_cell(self, four_cell_netlist):
        nl = four_cell_netlist
        a = nl.cell_by_name("a").index
        assert sorted(nl.nets_of_cell(a)) == [0, 1]

    def test_lookup_errors(self, four_cell_netlist):
        with pytest.raises(KeyError):
            four_cell_netlist.cell_by_name("ghost")
        with pytest.raises(KeyError):
            four_cell_netlist.net_by_name("ghost")

    def test_stats(self, four_cell_netlist):
        stats = four_cell_netlist.stats()
        assert stats["cells"] == 4
        assert stats["nets"] == 3
        assert stats["max_net_degree"] == 2

    def test_block_helper(self):
        b = NetlistBuilder("t")
        blk = b.add_block("big", 200.0, 300.0)
        assert blk.kind is CellKind.BLOCK
        nl_blocks = b.build().blocks()
        assert [c.name for c in nl_blocks] == ["big"]

    def test_std_cell_mask_is_lazy_and_skips_blocks_and_fixed(self):
        b = NetlistBuilder("t")
        b.add_cell("a", 4.0, 16.0)
        b.add_block("big", 200.0, 300.0)
        b.add_fixed_cell("pad", 4.0, 4.0, x=0.0, y=0.0)
        b.add_fixed_cell("macro", 50.0, 50.0, x=90.0, y=90.0,
                         kind=CellKind.BLOCK)
        b.add_cell("c", 6.0, 16.0)
        nl = b.build()
        # Building a netlist does not pay for the per-cell scan.
        assert "std_cell_mask" not in vars(nl)
        assert nl.std_cell_mask.tolist() == [True, False, False, False, True]
        assert nl.std_cell_mask is nl.std_cell_mask

    def test_indices_assigned(self, four_cell_netlist):
        for i, cell in enumerate(four_cell_netlist.cells):
            assert cell.index == i
        for j, net in enumerate(four_cell_netlist.nets):
            assert net.index == j
