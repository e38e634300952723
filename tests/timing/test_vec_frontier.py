"""Level-batched STA frontier vs the per-node heap walk.

``IncrementalTiming`` batches dirty frontiers level by level over the
ArraySTA pin tables; ``oracles.timing.PerNodeIncrementalTiming`` is the
per-node reference.  These fleets drive both engines through identical
random move sequences on a mapped Rent's-rule circuit
(:func:`repro.circuits.synth.synth_network` — wide levels, heavy-tailed
fanout) and require bitwise agreement: arrivals, loads, critical PO,
required times and the recompute counters, under both wire models and
with the batch threshold forced to 1 (everything through numpy).
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

import repro.timing.incremental as inc
from oracles.timing import PerNodeIncrementalTiming
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


def _same_report(vec_report, naive_report):
    assert vec_report.critical_delay == naive_report.critical_delay
    assert vec_report.critical_po == naive_report.critical_po
    assert set(vec_report.arrivals) == set(naive_report.arrivals)
    for name, want in naive_report.arrivals.items():
        got = vec_report.arrivals[name]
        assert got.rise == want.rise and got.fall == want.fall, name
    assert vec_report.loads == naive_report.loads


@pytest.mark.parametrize("wire", [True, False])
@pytest.mark.parametrize("threshold", [1, None])
def test_random_move_fleet_bitwise(restore_positions, wire, threshold,
                                   monkeypatch):
    """25 rounds of mixed gate moves + PI arrival edits, both engines."""
    mapped = restore_positions
    if threshold is not None:
        monkeypatch.setattr(inc, "SMALL_FRONTIER_NODES", threshold)
    model = WireCapModel() if wire else None
    ev = IncrementalTiming(mapped, wire_model=model)
    en = PerNodeIncrementalTiming(mapped, wire_model=model)
    rng = random.Random(TEST_SEED ^ (0x9A70 + int(wire)))
    gates = sorted(g.name for g in mapped.gates)
    pis = sorted(n.name for n in mapped.primary_inputs)
    for step in range(25):
        for _ in range(rng.randrange(1, 4)):
            name = gates[rng.randrange(len(gates))]
            p = mapped[name].position
            moved = Point(p.x + rng.uniform(-9, 9),
                          p.y + rng.uniform(-9, 9))
            ev.set_position(name, moved)
            en.set_position(name, moved)
        if step % 7 == 3:
            name = pis[rng.randrange(len(pis))]
            t = rng.uniform(0.0, 2.0)
            ev.set_input_arrival(name, t)
            en.set_input_arrival(name, t)
        _same_report(ev.update(), en.update())
        if step % 5 == 2:
            assert ev.required() == en.required(), step
    # Same frontiers walked: the batched engine recomputes exactly the
    # nodes the reference heap walk touches, batching changes nothing.
    assert ev.nodes_recomputed == en.nodes_recomputed
    assert ev.check_against_full() == []
    assert en.check_against_full() == []


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
    ev = IncrementalTiming(mapped, wire_model=WireCapModel())
    en = PerNodeIncrementalTiming(mapped, wire_model=WireCapModel())
    name = sorted(g.name for g in mapped.gates)[3]
    node = mapped[name]
    p = node.position
    node.position = Point(p.x + 4.0, p.y)
    # A raw position mutation needs the node *and* its fanin drivers
    # invalidated (their wire loads changed) — same set set_position marks.
    for engine in (ev, en):
        engine.invalidate(name)
        for fanin in node.fanins:
            engine.invalidate(fanin.name)
    _same_report(ev.update(), en.update())
    assert ev.check_against_full() == []
