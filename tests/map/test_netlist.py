"""Mapped netlist structure."""

from __future__ import annotations

import pytest

from repro.geometry import Point
from repro.map.netlist import MappedNetwork, MappedNodeKind


def build_simple(big_lib):
    m = MappedNetwork("t")
    a = m.add_primary_input("a")
    b = m.add_primary_input("b")
    g1 = m.add_gate("g1", big_lib["nand2"], [a, b])
    g2 = m.add_gate("g2", big_lib["inv1"], [g1])
    m.add_primary_output("f", g2)
    return m, a, b, g1, g2


class TestConstruction:
    def test_basic(self, big_lib):
        m, a, b, g1, g2 = build_simple(big_lib)
        m.check()
        assert len(m.gates) == 2
        assert m.total_cell_area() == big_lib["nand2"].area + big_lib["inv1"].area
        assert g1.fanouts == [g2]

    def test_fanin_count_must_match_cell(self, big_lib):
        m = MappedNetwork()
        a = m.add_primary_input("a")
        with pytest.raises(ValueError):
            m.add_gate("g", big_lib["nand2"], [a])

    def test_duplicate_names(self, big_lib):
        m = MappedNetwork()
        m.add_primary_input("a")
        with pytest.raises(ValueError):
            m.add_primary_input("a")

    def test_constant(self):
        m = MappedNetwork()
        c = m.add_constant("const1", True)
        assert c.is_constant
        assert c.truth_table().is_constant() is True
        assert c.area == 0.0

    def test_truth_table_protocol(self, big_lib):
        m, a, b, g1, g2 = build_simple(big_lib)
        assert g1.truth_table().bits == 0b0111
        with pytest.raises(ValueError):
            a.truth_table()


class TestNets:
    def test_net_extraction(self, big_lib):
        m, a, b, g1, g2 = build_simple(big_lib)
        nets = {n.name: n for n in m.nets()}
        assert set(nets) == {"a", "b", "g1", "g2"}
        assert nets["g1"].sinks == [(g2, 0)]
        assert nets["g1"].num_pins == 2

    def test_sink_capacitance(self, big_lib):
        m, a, b, g1, g2 = build_simple(big_lib)
        nets = {n.name: n for n in m.nets()}
        def sink_capacitance(net):
            return sum(node.input_pin_cap(pin) for node, pin in net.sinks)

        assert sink_capacitance(nets["g1"]) == pytest.approx(
            big_lib["inv1"].pins[0].input_cap
        )
        # A PO sink has no input pin of its own.
        assert sink_capacitance(nets["g2"]) == 0.0

    def test_pin_positions_skips_unplaced(self, big_lib):
        m, a, b, g1, g2 = build_simple(big_lib)
        g1.position = Point(1, 2)
        nets = {n.name: n for n in m.nets()}
        assert nets["g1"].pin_positions() == [Point(1, 2)]


class TestDiagnostics:
    def test_histogram(self, big_lib):
        m, *_ = build_simple(big_lib)
        assert m.cell_histogram() == {"nand2": 1, "inv1": 1}

    def test_stats(self, big_lib):
        m, *_ = build_simple(big_lib)
        s = m.stats()
        assert s["gates"] == 2
        assert s["inputs"] == 2
        assert s["outputs"] == 1

    def test_topological_cycle_detection(self, big_lib):
        m, a, b, g1, g2 = build_simple(big_lib)
        g1.fanins[0] = g2  # manufacture a cycle
        g2.fanouts.append(g1)
        with pytest.raises(ValueError):
            m.topological_order()
