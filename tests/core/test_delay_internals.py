"""Hand-checked internals of the Lily delay mapper (Section 4)."""

from __future__ import annotations

import pytest

from repro.core.lily import LilyDelayMapper, LilyOptions
from repro.geometry import Point, Rect
from repro.library.standard import big_library
from repro.map.base import Solution
from repro.network.subject import SubjectGraph
from repro.timing.model import WireCapModel


@pytest.fixture()
def armed_mapper(big_lib):
    """A delay mapper bound to a tiny graph with controlled positions."""
    g = SubjectGraph()
    a = g.add_primary_input("a")
    b = g.add_primary_input("b")
    n1 = g.nand(a, b)
    n2 = g.inv(n1)
    g.add_primary_output("f", n2)
    region = Rect(0, 0, 1000, 1000)
    pads = {"a": Point(0, 0), "b": Point(0, 1000), "f": Point(1000, 500)}
    mapper = LilyDelayMapper(
        big_lib,
        region=region,
        pad_positions=pads,
        wire_cap=WireCapModel(1e-3, 1e-3),  # exaggerated for visibility
    )
    # Initialise the run state without running the whole map().
    mapper.subject = g
    from repro.map.lifecycle import LifecycleTracker
    from repro.map.netlist import MappedNetwork

    mapper.lifecycle = LifecycleTracker()
    mapper.mapped = MappedNetwork("t")
    mapper.instances = {}
    mapper.committed = {}
    mapper.on_begin(g)
    return g, mapper, n1, n2


class TestLoadModels:
    def test_output_load_includes_wire(self, armed_mapper):
        g, mapper, n1, n2 = armed_mapper
        from oracles.match import find_matches
        from repro.library.patterns import pattern_set_for

        match = next(
            m for m in find_matches(n1, pattern_set_for(mapper.library))
            if m.cell.name == "nand2"
        )
        covered = {n.uid for n in match.covered}
        near = mapper._output_load(n1, covered,
                                   mapper.state.place_position(n2))
        far = mapper._output_load(n1, covered, Point(0, 0))
        assert far > near  # longer wire to the fanout -> more capacitance

    def test_input_load_counts_gate_pin(self, armed_mapper):
        g, mapper, n1, n2 = armed_mapper
        from oracles.match import find_matches
        from repro.library.patterns import pattern_set_for

        match = next(
            m for m in find_matches(n2, pattern_set_for(mapper.library))
            if m.cell.name == "inv1"
        )
        load = mapper._load_at_input(
            n1, match.cell.pins[0].input_cap,
            {n.uid for n in match.covered}, Point(500, 500), Point(500, 500)
        )
        assert load >= match.cell.pins[0].input_cap

    def test_recalculated_arrival_uses_blocks(self, armed_mapper, big_lib):
        g, mapper, n1, n2 = armed_mapper
        from repro.library.patterns import pattern_set_for
        from oracles.match import find_matches

        match = next(
            m for m in find_matches(n1, pattern_set_for(big_lib))
            if m.cell.name == "nand2"
        )
        solution = Solution(
            n1, match, cost=0.0, arrival=5.0, block_arrivals=[2.0, 3.0]
        )
        r = match.cell.pins[0].timing.worst_resistance
        load = 0.5
        expected = max(2.0 + r * load, 3.0 + r * load)
        assert mapper._recalculated_arrival(solution, load) == pytest.approx(
            expected
        )

    def test_leaf_arrival_is_load_independent(self, armed_mapper):
        g, mapper, n1, n2 = armed_mapper
        a = g["a"]
        leaf = mapper.leaf_solution(a)
        assert mapper._recalculated_arrival(leaf, 0.0) == \
            mapper._recalculated_arrival(leaf, 10.0)


class TestBlockArrivalSplit:
    def test_li_ld_split(self, armed_mapper):
        """The LI/LD split of Section 4.3: changing the load re-scales only
        the R_i * C_L part; block arrivals are untouched."""
        g, mapper, n1, n2 = armed_mapper
        from repro.library.patterns import pattern_set_for
        from oracles.match import find_matches

        match = next(
            m for m in find_matches(n1, pattern_set_for(mapper.library))
            if m.cell.name == "nand2"
        )
        inputs = [mapper.solution_of(v) for v in match.inputs]
        sol = mapper.evaluate_match(n1, match, inputs)
        assert sol.block_arrivals is not None
        r0 = match.cell.pins[0].timing.worst_resistance
        # Arrival from pin 0 at double load grows by exactly r0 * delta.
        base_load = mapper._output_load(
            n1, {n.uid for n in match.covered}, sol.position)
        t1 = sol.block_arrivals[0] + r0 * base_load
        t2 = sol.block_arrivals[0] + r0 * (base_load + 1.0)
        assert t2 - t1 == pytest.approx(r0)


class TestEndToEndDelayChoices:
    def test_prefers_faster_cover_under_heavy_wire(self, big_lib):
        """With exaggerated wire capacitance, the mapper still produces a
        verified netlist with positive arrivals everywhere."""
        from repro.circuits.arith import parity_tree
        from repro.network.decompose import decompose_to_subject
        from repro.network.simulate import networks_equivalent

        net = parity_tree(5)
        subject = decompose_to_subject(net)
        mapper = LilyDelayMapper(
            big_lib, wire_cap=WireCapModel(5e-3, 5e-3)
        )
        result = mapper.map(subject)
        assert networks_equivalent(net, result.mapped)
        assert all(g.arrival > 0 for g in result.mapped.gates)
