"""Static timing analysis."""

from __future__ import annotations

import pytest

from repro.geometry import Point
from repro.map.netlist import MappedNetwork
from repro.timing.incremental import IncrementalTiming
from repro.timing.model import PAD_CAP, WireCapModel, net_wire_capacitance
from repro.timing.sta import analyze, critical_path
from repro.verify.invariants import check_timing


@pytest.fixture()
def chain(big_lib):
    """PI -> nand2 -> inv -> PO with one extra input."""
    m = MappedNetwork("chain")
    a = m.add_primary_input("a")
    b = m.add_primary_input("b")
    g1 = m.add_gate("g1", big_lib["nand2"], [a, b])
    g2 = m.add_gate("g2", big_lib["inv1"], [g1])
    m.add_primary_output("f", g2)
    return m, g1, g2


class TestArrivalRecursion:
    def test_hand_computed(self, big_lib, chain):
        m, g1, g2 = chain
        report = analyze(m, wire_model=None)
        nand2 = big_lib["nand2"]
        inv1 = big_lib["inv1"]
        # g1 load: inv1 input cap; g1 arrival = block + R * load.
        load_g1 = inv1.pins[0].input_cap
        t_g1_rise = (nand2.pins[0].timing.rise_block
                     + nand2.pins[0].timing.rise_resistance * load_g1)
        assert report.arrivals["g1"].rise == pytest.approx(t_g1_rise)
        # g2 load: the pad.
        t_g2 = report.arrivals["g2"].worst
        expected_rise = (report.arrivals["g1"].worst
                         + inv1.pins[0].timing.rise_block
                         + inv1.pins[0].timing.rise_resistance * PAD_CAP)
        expected_fall = (report.arrivals["g1"].worst
                         + inv1.pins[0].timing.fall_block
                         + inv1.pins[0].timing.fall_resistance * PAD_CAP)
        assert t_g2 == pytest.approx(max(expected_rise, expected_fall))
        assert report.critical_delay == pytest.approx(t_g2)
        assert report.critical_po == "f"

    def test_input_arrivals(self, chain):
        m, *_ = chain
        base = analyze(m, wire_model=None)
        late = analyze(m, wire_model=None, input_arrivals={"a": 5.0})
        assert late.critical_delay == pytest.approx(
            base.critical_delay + 5.0
        )

    def test_wire_capacitance_slows(self, chain):
        m, g1, g2 = chain
        m["a"].position = Point(0, 0)
        m["b"].position = Point(0, 100)
        g1.position = Point(500, 0)
        g2.position = Point(1000, 500)
        m["f"].position = Point(1000, 1000)
        no_wire = analyze(m, wire_model=None).critical_delay
        with_wire = analyze(m, wire_model=WireCapModel()).critical_delay
        assert with_wire > no_wire

    def test_node_arrival_side_effect(self, chain):
        m, g1, g2 = chain
        report = analyze(m, wire_model=None)
        assert g2.arrival == pytest.approx(report.critical_delay)


class TestCriticalPath:
    def test_path_extraction(self, chain):
        m, g1, g2 = chain
        report = analyze(m, wire_model=None)
        path = critical_path(m, report)
        names = [n.name for n in path]
        assert names[-1] == "f"
        assert "g2" in names and "g1" in names
        assert path[0].is_pi

    def test_monotone_arrivals_along_path(self, big_lib):
        from repro.circuits.arith import ripple_carry_adder
        from repro.map.mis import MisAreaMapper
        from repro.network.decompose import decompose_to_subject

        net = ripple_carry_adder(4)
        mapped = MisAreaMapper(big_lib).map(decompose_to_subject(net)).mapped
        report = analyze(mapped, wire_model=None)
        path = critical_path(mapped, report)
        arrivals = [report.arrivals[n.name].worst for n in path]
        assert all(b >= a - 1e-9 for a, b in zip(arrivals, arrivals[1:]))

    def test_empty_network(self):
        m = MappedNetwork("empty")
        report = analyze(m)
        assert report.critical_delay == 0.0
        assert critical_path(m, report) == []

    def test_constant_arrival_zero(self, big_lib):
        m = MappedNetwork("const")
        c = m.add_constant("const1", True)
        g = m.add_gate("g", big_lib["inv1"], [c])
        m.add_primary_output("f", g)
        report = analyze(m, wire_model=None)
        assert report.arrivals["const1"].worst == 0.0
        assert report.critical_delay > 0.0


class TestRepeatedPinSink:
    """A sink that reads one driver on k pins adds each pin's cap once
    (it is listed k times in the driver's fanouts)."""

    @pytest.fixture()
    def shared(self, big_lib):
        """PI -> inv1 ``d`` -> nand2 ``s(d, d)`` -> PO."""
        m = MappedNetwork("repeated")
        a = m.add_primary_input("a")
        d = m.add_gate("d", big_lib["inv1"], [a])
        s = m.add_gate("s", big_lib["nand2"], [d, d])
        m.add_primary_output("f", s)
        return m

    def test_analyze(self, shared):
        net = next(n for n in shared.nets() if n.name == "d")
        assert sum(sink.input_pin_cap(pin) for sink, pin in net.sinks) == 0.5
        assert analyze(shared, wire_model=None).loads["d"] == 0.5

    def test_incremental(self, shared):
        wire = WireCapModel()
        for i, node in enumerate(shared.topological_order()):
            node.position = Point(10.0 * i, 5.0 * i)
        engine = IncrementalTiming(shared, wire_model=wire)
        assert engine.report.loads == analyze(shared, wire_model=wire).loads
        engine.set_position("s", Point(70.0, -20.0))
        live = engine.update()
        net = next(n for n in shared.nets() if n.name == "d")
        assert live.loads["d"] == 0.5 + net_wire_capacitance(
            net.pin_positions(), wire)
        assert engine.check_against_full() == []

    def test_check_timing(self, shared):
        wire = WireCapModel()
        report = analyze(shared, wire_model=wire)
        assert all(r.passed
                   for r in check_timing(shared, report, wire_model=wire))
        report.loads["d"] = 1.0  # both pins counted twice
        loads = next(r for r in check_timing(shared, report, wire_model=wire)
                     if r.name == "invariant.timing.loads")
        assert not loads.passed
        assert loads.details.startswith("d: load 1.000000 != recomputed "
                                        "0.500000")
