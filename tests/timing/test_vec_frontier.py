"""Incremental STA frontiers vs a fresh full pass, move by move.

These fleets drive ``IncrementalTiming`` through random move sequences
on a mapped Rent's-rule circuit
(:func:`repro.circuits.synth.synth_network` — wide levels, heavy-tailed
fanout) and, after every step, require bitwise agreement with a fresh
:func:`repro.timing.sta.analyze` and
:func:`repro.timing.sta.required_times` through ``check_against_full``:
arrivals, loads, critical PO and required times, under both wire models.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.circuits.synth import synth_network
from repro.geometry import Point
from repro.library.standard import big_library
from repro.map.mis import MisAreaMapper
from repro.network.decompose import decompose_to_subject
from repro.timing import IncrementalTiming
from repro.timing.model import WireCapModel

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
