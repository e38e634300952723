"""Incremental STA frontiers vs a fresh full pass, move by move.

These fleets drive ``IncrementalTiming`` through random move sequences
on a mapped Rent's-rule circuit
(:func:`repro.circuits.synth.synth_network` — wide levels, heavy-tailed
fanout) and, after every step, require bitwise agreement with a fresh
:func:`repro.timing.sta.analyze` and
:func:`repro.timing.sta.required_times` through ``check_against_full``:
arrivals, loads, critical PO and required times, under both wire models.
``TestIncrementalIntegration`` runs the same checks on small
identity-mapped random DAGs, and covers the full backward pass a new
deadline runs.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.circuits.random_logic import random_network
from repro.circuits.synth import synth_network
from repro.geometry import Point
from repro.library.standard import big_library
from repro.map.mis import MisAreaMapper
from repro.map.netlist import MappedNetwork
from repro.network.decompose import decompose_to_subject
from repro.timing import IncrementalTiming
from repro.timing.model import WireCapModel
from repro.timing.sta import analyze, required_times

#: Same session seed discipline as tests/conftest.py: set
#: ``REPRO_TEST_SEED`` to replay a fleet failure.
TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "19910611"))


@pytest.fixture(scope="module")
def synth_mapped():
    """A mapped-and-placed generated circuit, shared across the fleets
    (each test snapshots/restores positions and arrivals it perturbs)."""
    net = synth_network(200, seed=9)
    mapped = MisAreaMapper(big_library()).map(
        decompose_to_subject(net)).mapped
    rng = random.Random(TEST_SEED ^ 0x5F17)
    for node in mapped.topological_order():
        node.position = Point(rng.uniform(0, 400), rng.uniform(0, 400))
    return mapped


@pytest.fixture()
def restore_positions(synth_mapped):
    saved = {n.name: n.position
             for n in synth_mapped.topological_order()}
    yield synth_mapped
    for name, p in saved.items():
        synth_mapped[name].position = p


@pytest.mark.parametrize("wire", [True, False])
def test_random_move_fleet_bitwise(restore_positions, wire):
    """25 rounds of mixed gate moves + PI arrival edits.

    Required times are compared at the initial critical delay, so every
    step after the first reads the backward frontier; the last check
    uses the live critical delay.
    """
    mapped = restore_positions
    model = WireCapModel() if wire else None
    engine = IncrementalTiming(mapped, wire_model=model)
    deadline = engine.report.critical_delay
    rng = random.Random(TEST_SEED ^ (0x9A70 + int(wire)))
    gates = sorted(g.name for g in mapped.gates)
    pis = sorted(n.name for n in mapped.primary_inputs)
    for step in range(25):
        for _ in range(rng.randrange(1, 4)):
            name = gates[rng.randrange(len(gates))]
            p = mapped[name].position
            engine.set_position(name, Point(p.x + rng.uniform(-9, 9),
                                            p.y + rng.uniform(-9, 9)))
        if step % 7 == 3:
            name = pis[rng.randrange(len(pis))]
            engine.set_input_arrival(name, rng.uniform(0.0, 2.0))
        assert engine.check_against_full(deadline) == [], step
    assert engine.check_against_full() == []


def test_frontier_stays_partial(restore_positions):
    """One local move must not recompute anywhere near the whole image."""
    mapped = restore_positions
    engine = IncrementalTiming(mapped, wire_model=WireCapModel())
    name = sorted(g.name for g in mapped.gates)[0]
    p = mapped[name].position
    engine.set_position(name, Point(p.x + 0.5, p.y + 0.5))
    engine.update()
    total = len(list(mapped.topological_order()))
    assert 0 < engine.nodes_recomputed < total


def test_invalidate_then_update_matches(restore_positions):
    mapped = restore_positions
    engine = IncrementalTiming(mapped, wire_model=WireCapModel())
    deadline = engine.report.critical_delay
    engine.required(deadline)
    name = sorted(g.name for g in mapped.gates)[3]
    node = mapped[name]
    p = node.position
    node.position = Point(p.x + 4.0, p.y)
    # A raw position mutation needs the node *and* its fanin drivers
    # invalidated (their wire loads changed) — same set set_position marks.
    engine.invalidate(name)
    for fanin in node.fanins:
        engine.invalidate(fanin.name)
    assert engine.check_against_full(deadline) == []
    assert engine.check_against_full() == []


WIRE = WireCapModel()


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


def _place_all(mapped, rng):
    for node in mapped.topological_order():
        node.position = Point(rng.uniform(0, 300), rng.uniform(0, 300))


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
        """A new deadline reruns the whole backward pass; both deadlines
        must give the reference's required times."""
        rng = seeded_rng("asta", "increq")
        mapped = _identity_mapped(rng, nodes=18)
        _place_all(mapped, rng)
        vec = IncrementalTiming(mapped, wire_model=WIRE)
        full = analyze(mapped, wire_model=WIRE)
        assert vec.required() == required_times(mapped, full)
        assert vec.required(deadline=42.0) == required_times(
            mapped, full, 42.0)
