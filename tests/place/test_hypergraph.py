"""Placement hypergraph adapters."""

from __future__ import annotations

import pytest

from repro.circuits.arith import ripple_carry_adder
from repro.geometry import Point, Rect
from repro.library.standard import big_library
from repro.map.mis import MisAreaMapper
from repro.network.decompose import decompose_to_subject
from repro.place.hypergraph import (
    PlacementNetlist,
    mapped_netlist,
    network_netlist,
    subject_netlist,
)
from repro.place.pads import io_affinity_order, pads_from_order

REGION = Rect(0, 0, 100, 100)


class TestPlacementNetlist:
    def test_check_duplicate_movables(self):
        netlist = PlacementNetlist(movables=["a", "a"])
        with pytest.raises(ValueError):
            netlist.check()

    def test_check_movable_and_fixed(self):
        netlist = PlacementNetlist(
            movables=["a"], fixed={"a": Point(0, 0)}
        )
        with pytest.raises(ValueError):
            netlist.check()

    def test_check_unknown_net_pin(self):
        netlist = PlacementNetlist(movables=["a"], nets=[["a", "ghost"]])
        with pytest.raises(ValueError):
            netlist.check()


class TestSubjectNetlist:
    def test_structure(self):
        net = ripple_carry_adder(2)
        subject = decompose_to_subject(net)
        pads = pads_from_order(io_affinity_order(subject), REGION)
        netlist = subject_netlist(subject, pads)
        netlist.check()
        assert netlist.num_movable == len(subject.gates)
        assert all(netlist.sizes[m] == 1.0 for m in netlist.movables)
        # Every net has >= 2 pins and references known cells.
        assert all(len(n) >= 2 for n in netlist.nets)

    def test_missing_pad_raises(self):
        net = ripple_carry_adder(2)
        subject = decompose_to_subject(net)
        with pytest.raises(KeyError):
            subject_netlist(subject, {})


class TestMappedNetlist:
    def test_sizes_are_cell_areas(self):
        net = ripple_carry_adder(2)
        lib = big_library()
        mapped = MisAreaMapper(lib).map(decompose_to_subject(net)).mapped
        pads = pads_from_order(io_affinity_order(mapped), REGION)
        netlist = mapped_netlist(mapped, pads)
        netlist.check()
        for gate in mapped.gates:
            assert netlist.sizes[gate.name] == gate.cell.area

    def test_net_count_matches(self):
        net = ripple_carry_adder(2)
        lib = big_library()
        mapped = MisAreaMapper(lib).map(decompose_to_subject(net)).mapped
        pads = pads_from_order(io_affinity_order(mapped), REGION)
        netlist = mapped_netlist(mapped, pads)
        expected = sum(
            1 for n in mapped.nets()
            if not n.driver.is_constant and n.num_pins >= 2
        )
        assert len(netlist.nets) == expected


class TestNetworkNetlist:
    def test_structure(self):
        net = ripple_carry_adder(2)
        pads = pads_from_order(io_affinity_order(net), REGION)
        netlist = network_netlist(net, pads)
        netlist.check()
        assert netlist.num_movable == len(net.internal_nodes)
        # Sized by literal count.
        for node in net.internal_nodes:
            assert netlist.sizes[node.name] == max(
                node.function.num_literals, 1
            )
