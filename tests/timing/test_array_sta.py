"""Levelized array STA vs the per-node reference (bitwise, DAG fleet).

:class:`repro.timing.array_sta.ArraySTA` replays the reference engine's
per-node arithmetic in levelized array sweeps, so arrivals, loads,
required times, and the critical selection must match ``sta.py``
*bitwise* on any DAG.  The fleet below drives 200+ random identity-mapped
DAGs through both engines with ``==`` on every float.
"""

from __future__ import annotations

import pytest

from oracles.timing import PerNodeIncrementalTiming
from repro.circuits.random_logic import random_network
from repro.geometry import Point
from repro.library.standard import big_library
from repro.map.netlist import MappedNetwork
from repro.network.decompose import decompose_to_subject
from repro.timing import IncrementalTiming
from repro.timing.array_sta import ArraySTA, analyze_array
from repro.timing.model import WireCapModel
from repro.timing.sta import analyze, required_times

WIRE = WireCapModel()

#: Random DAGs per fleet case; 8 cases x 26 DAGs = 208 total.
FLEET_CASES = 8
DAGS_PER_CASE = 26


def _identity_mapped(rng, inputs=4, outputs=2, nodes=10):
    """A NAND2/INV identity mapping of a random network (no matching)."""
    net = random_network(f"asta{rng.randrange(10 ** 9)}", inputs, outputs,
                         nodes, seed=rng.randrange(2 ** 31))
    subject = decompose_to_subject(net)
    cells = {c.name: c for c in big_library().cells}
    mapped = MappedNetwork(subject.name)
    built = {}
    for node in subject.topological_order():
        if node.is_pi:
            built[node.uid] = mapped.add_primary_input(node.name)
        elif node.is_po:
            built[node.uid] = mapped.add_primary_output(
                node.name, built[node.fanins[0].uid])
        elif node.is_constant:
            built[node.uid] = mapped.add_constant(
                f"g{node.uid}", node.type.value == "const1")
        else:
            cell = cells["nand2" if len(node.fanins) == 2 else "inv1"]
            built[node.uid] = mapped.add_gate(
                f"g{node.uid}", cell, [built[f.uid] for f in node.fanins])
    return mapped


def _place_all(mapped, rng, skip_fraction=0.0):
    for node in mapped.topological_order():
        if skip_fraction and rng.random() < skip_fraction:
            node.position = None
        else:
            node.position = Point(rng.uniform(0, 300), rng.uniform(0, 300))


def _same_report(got, want):
    assert set(got.arrivals) == set(want.arrivals)
    for name, a in want.arrivals.items():
        b = got.arrivals[name]
        assert b.rise == a.rise and b.fall == a.fall, name
    assert got.loads == want.loads
    assert got.critical_po == want.critical_po
    assert got.critical_delay == want.critical_delay


class TestFleet:
    @pytest.mark.parametrize("case", range(FLEET_CASES))
    def test_random_dags_bitwise(self, case, seeded_rng):
        rng = seeded_rng("asta", "fleet", case)
        for _ in range(DAGS_PER_CASE):
            mapped = _identity_mapped(
                rng,
                inputs=rng.randrange(3, 7),
                outputs=rng.randrange(2, 5),
                nodes=rng.randrange(6, 26),
            )
            wire = rng.random() < 0.5
            if wire:
                # Some DAGs with holes: unplaced nodes drop out of the
                # wire-box fold exactly as in the reference engine.
                _place_all(mapped, rng,
                           skip_fraction=0.3 if rng.random() < 0.3 else 0.0)
            engine = ArraySTA(mapped, wire_model=WIRE if wire else None)
            got = engine.analyze()
            want = analyze(mapped, wire_model=WIRE if wire else None)
            _same_report(got, want)
            assert engine.required(got) == required_times(mapped, want)
            assert engine.required(got, deadline=100.0) == \
                required_times(mapped, want, deadline=100.0)


class TestEdgeCases:
    def test_input_arrivals_read_live(self, seeded_rng):
        rng = seeded_rng("asta", "arrivals")
        mapped = _identity_mapped(rng)
        arrivals = {mapped.primary_inputs[0].name: 3.25}
        engine = ArraySTA(mapped, input_arrivals=arrivals)
        _same_report(engine.analyze(),
                     analyze(mapped, input_arrivals=arrivals))
        # The dict is held by reference: later edits show in re-analysis.
        arrivals[mapped.primary_inputs[0].name] = 7.5
        _same_report(engine.analyze(),
                     analyze(mapped, input_arrivals=arrivals))

    def test_wire_cap_per_fanout_fallback(self, seeded_rng):
        mapped = _identity_mapped(seeded_rng("asta", "wcpf"))
        got = ArraySTA(mapped, wire_cap_per_fanout=0.125).analyze()
        _same_report(got, analyze(mapped, wire_cap_per_fanout=0.125))

    def test_positions_read_live(self, seeded_rng):
        rng = seeded_rng("asta", "moves")
        mapped = _identity_mapped(rng, nodes=16)
        _place_all(mapped, rng)
        engine = ArraySTA(mapped, wire_model=WIRE)
        for _ in range(5):
            gate = mapped.gates[rng.randrange(len(mapped.gates))]
            gate.position = Point(rng.uniform(0, 300), rng.uniform(0, 300))
            _same_report(engine.analyze(), analyze(mapped, wire_model=WIRE))

    def test_trivial_network(self):
        mapped = MappedNetwork("wirethru")
        pi = mapped.add_primary_input("a")
        mapped.add_primary_output("z", pi)
        _same_report(ArraySTA(mapped).analyze(), analyze(mapped))

    def test_analyze_array_convenience(self, seeded_rng):
        rng = seeded_rng("asta", "oneshot")
        mapped = _identity_mapped(rng)
        _place_all(mapped, rng)
        _same_report(analyze_array(mapped, wire_model=WIRE),
                     analyze(mapped, wire_model=WIRE))

    def test_node_arrival_side_effects(self, seeded_rng):
        mapped = _identity_mapped(seeded_rng("asta", "side"))
        report = ArraySTA(mapped).analyze()
        for node in mapped.nodes:
            if node.name in report.arrivals:
                assert node.arrival == report.arrivals[node.name].worst


class TestIncrementalIntegration:
    @pytest.mark.parametrize("seed", range(3))
    def test_vec_constructor_tracks_full(self, seed, seeded_rng):
        rng = seeded_rng("asta", "inc", seed)
        mapped = _identity_mapped(rng, nodes=18)
        _place_all(mapped, rng)
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        assert engine.check_against_full() == []
        gates = sorted(g.name for g in mapped.gates)
        for _ in range(8):
            name = gates[rng.randrange(len(gates))]
            p = mapped[name].position
            engine.set_position(name, Point(p.x + rng.uniform(-9, 9),
                                            p.y + rng.uniform(-9, 9)))
            engine.update()
            assert engine.check_against_full() == []

    def test_required_matches_naive_engine(self, seeded_rng):
        rng = seeded_rng("asta", "increq")
        mapped = _identity_mapped(rng, nodes=18)
        _place_all(mapped, rng)
        vec = IncrementalTiming(mapped, wire_model=WIRE)
        naive = PerNodeIncrementalTiming(mapped, wire_model=WIRE)
        assert vec.required() == naive.required()
        assert vec.required(deadline=42.0) == naive.required(deadline=42.0)
