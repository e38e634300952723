"""Fanout optimization (the Section 5 future-work pass)."""

from __future__ import annotations

import random

import pytest

from repro.circuits.random_logic import random_network
from repro.circuits.suite import build_circuit
from repro.library.standard import big_library, scale_library
from repro.map.mis import MisDelayMapper
from repro.map.netlist import MappedNetwork
from repro.network.decompose import decompose_to_subject
from repro.network.simulate import networks_equivalent
from repro.geometry import Point
from repro.obs import OBS, observed
from repro.timing.fanout import _buffer_net, buffer_cell, optimize_fanout
from repro.timing.model import WireCapModel
from repro.timing.sta import analyze, slacks


def high_fanout_netlist(big_lib, n_sinks=9):
    """One inverter driving many NAND sinks."""
    m = MappedNetwork("hf")
    a = m.add_primary_input("a")
    b = m.add_primary_input("b")
    driver = m.add_gate("drv", big_lib["inv1"], [a])
    driver.position = Point(0, 0)
    for i in range(n_sinks):
        g = m.add_gate(f"s{i}", big_lib["nand2"], [driver, b])
        g.position = Point(10.0 * i, 5.0 * (i % 3))
        m.add_primary_output(f"o{i}", g)
    return m


class TestBufferCell:
    def test_found(self, big_lib):
        assert buffer_cell(big_lib).is_buffer

    def test_missing_raises(self, big_lib):
        from repro.library.cell import Library

        no_buf = Library(
            "nb", [c for c in big_lib if not c.is_buffer]
        )
        with pytest.raises(ValueError):
            buffer_cell(no_buf)


class TestOptimizeFanout:
    def test_bounds_fanout(self, big_lib):
        m = high_fanout_netlist(big_lib)
        result = optimize_fanout(m, big_lib, max_fanout=4)
        assert result.buffers_added > 0
        for node in m.nodes:
            if node.is_gate or node.is_pi:
                assert len(node.fanouts) <= 4 + 1  # direct + buffers slack
        m.check()

    def test_function_preserved(self, big_lib):
        net = random_network("fo", 7, 4, 20, seed=13)
        subject = decompose_to_subject(net)
        mapped = MisDelayMapper(big_lib).map(subject).mapped
        # Positions are required for clustering; give a trivial spread.
        for i, g in enumerate(mapped.gates):
            g.position = Point(float(i % 7), float(i // 7))
        optimize_fanout(mapped, big_lib, max_fanout=3)
        assert networks_equivalent(net, mapped)

    def test_no_change_below_threshold(self, big_lib):
        m = high_fanout_netlist(big_lib, n_sinks=3)
        result = optimize_fanout(m, big_lib, max_fanout=4)
        assert result.buffers_added == 0
        assert result.delay_before == result.delay_after

    def test_reports_delays(self, big_lib):
        m = high_fanout_netlist(big_lib)
        result = optimize_fanout(m, big_lib, max_fanout=4)
        assert result.delay_before > 0
        assert result.delay_after > 0

    def test_improves_under_heavy_load(self):
        """When the critical path runs through ONE of many sinks, shielding
        the other sinks behind buffers unloads the critical stage."""
        lib1 = scale_library(big_library(), 1.0 / 3.0, name="u1")
        m = MappedNetwork("crit")
        a = m.add_primary_input("a")
        b = m.add_primary_input("b")
        drv = m.add_gate("drv", lib1["inv1"], [a])
        drv.position = Point(0, 0)
        # The critical continuation: two more stages behind one sink.
        crit = m.add_gate("crit", lib1["nand2"], [drv, b])
        crit.position = Point(5, 0)
        tail1 = m.add_gate("tail1", lib1["inv1"], [crit])
        tail1.position = Point(10, 0)
        tail2 = m.add_gate("tail2", lib1["inv1"], [tail1])
        tail2.position = Point(15, 0)
        m.add_primary_output("f", tail2)
        # 20 non-critical sinks loading the driver.
        for i in range(20):
            g = m.add_gate(f"nc{i}", lib1["nand2"], [drv, b])
            g.position = Point(200.0 + i * 10, 100.0)
            m.add_primary_output(f"o{i}", g)
        wm = WireCapModel(4e-4, 3e-4)
        from repro.timing.sta import analyze

        before_f = analyze(m, wire_model=wm).arrivals["f"].worst
        result = optimize_fanout(m, lib1, max_fanout=4, wire_model=wm)
        after_f = analyze(m, wire_model=wm).arrivals["f"].worst
        assert result.buffers_added > 0
        # The shielded critical path through f is strictly faster...
        assert after_f < before_f
        # ...and the overall delay does not materially regress even though
        # the buffered branches gained a stage.
        assert result.delay_after <= result.delay_before * 1.03

    def test_critical_sink_stays_direct(self, big_lib):
        m = high_fanout_netlist(big_lib, n_sinks=9)
        driver = m["drv"]
        optimize_fanout(m, big_lib, max_fanout=4)
        direct_gates = [s for s in driver.fanouts if not s.cell.is_buffer]
        assert direct_gates, "at least one sink must stay direct"


def _placed_mapped(circuit, library):
    """A delay-mode MIS cover of ``circuit`` at seeded random positions."""
    if circuit == "C880":
        net = build_circuit("C880")
    else:
        net = random_network("fo-ref", 8, 4, 60, seed=5)
    mapped = MisDelayMapper(library).map(decompose_to_subject(net)).mapped
    rng = random.Random(19910611)
    for node in mapped.topological_order():
        node.position = Point(rng.uniform(0, 400), rng.uniform(0, 400))
    return mapped


def _netlist_key(mapped):
    """Everything the pass can change, node by node in insertion order."""
    return [
        (node.name, node.kind, node.cell.name if node.cell else None,
         [f.name for f in node.fanins], [s.name for s in node.fanouts],
         node.position)
        for node in mapped.nodes
    ]


def _reference_fanout(mapped, library, max_fanout, wire_model):
    """``optimize_fanout``'s steps on the reference engine: critical
    delays before and after, and buffers added."""
    before = analyze(mapped, wire_model=wire_model)
    sink_slack = slacks(mapped, before)
    buffer = buffer_cell(library)
    counter = [0]
    added = 0
    for node in list(mapped.nodes):
        if node.is_gate or node.is_pi:
            added += _buffer_net(mapped, node, buffer, max_fanout, counter,
                                 sink_slack)
    after = analyze(mapped, wire_model=wire_model)
    return before.critical_delay, after.critical_delay, added


class TestReferenceAgreement:
    """``optimize_fanout`` times with ``sta.analyze`` and ``sta.slacks``;
    its delays, slack order and so its buffer trees must be the ones the
    same steps give when run by hand on the reference engine."""

    LIBRARY = scale_library(big_library(), 1.0 / 3.0, name="big_1u")
    WIRE = WireCapModel(4.0e-4, 3.0e-4)  # Table 2's wire model

    @pytest.mark.parametrize("circuit", ["C880", "random"])
    def test_matches_reference_sta(self, circuit):
        got = _placed_mapped(circuit, self.LIBRARY)
        want = _placed_mapped(circuit, self.LIBRARY)
        result = optimize_fanout(got, self.LIBRARY, max_fanout=4,
                                 wire_model=self.WIRE)
        before, after, added = _reference_fanout(want, self.LIBRARY, 4,
                                                 self.WIRE)
        assert result.buffers_added == added > 0
        assert (result.delay_before, result.delay_after) == (before, after)
        assert _netlist_key(got) == _netlist_key(want)

    def test_traced_run_uses_reference_sta(self):
        mapped = _placed_mapped("random", self.LIBRARY)
        with observed():
            optimize_fanout(mapped, self.LIBRARY, max_fanout=4,
                            wire_model=self.WIRE)
        names = {span.name for span in OBS.tracer.all_spans()}
        assert "sta.analyze" in names
        assert "sta.analyze_array" not in names
