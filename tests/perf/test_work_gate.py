"""Exact work gate for matching, covering, global placement and STA.

The matcher and the covering DPs count their work in ``repro.obs``:
``match.table_entries`` (subtree results the table matcher stored),
``match.found`` (matches it kept) and ``dp.nodes_visited`` (tree and
Lily DP solves); ``cut.functions_computed`` (cut truth tables),
``cut.nodes_visited`` (cut DP solves) and ``cut.states_expanded``
((cut, binding) candidates priced); ``lily.position_evals`` (Lily
matches priced at a tentative mapPosition).  The global placer's FM
refinement counts ``place.fm_cells`` and ``place.fm_nets`` (cells and
nets handed to FM), ``place.fm_moves`` (tentative moves) and
``place.fm_gain_updates`` (gain deltas applied to free cells).  The
incremental STA counts ``sta.node_visits`` (nodes visited by full
forward passes) and ``perf.incremental.sta_nodes`` (nodes its dirty
frontiers recomputed).  At a fixed circuit the counts are
deterministic, so a committed table of them gates work on any host,
without timing noise: a change that makes any count grow fails here.
Counts that shrink pass; re-record them with::

    PYTHONPATH=src python tests/perf/test_work_gate.py

Cases: the five ``paper_tables`` circuits and ``synth:19910611:1000``,
each mapped in area mode by the MIS mapper in cone and in tree mode and
by the cut mapper; the five ``paper_tables`` circuits mapped by Lily
in area mode and in timing mode (CM-of-Merged, as ``lily_flow`` maps
it); Lily's initial placement of the same five (``place``); and, for
the same five, a move sweep through the incremental STA (``sta``): the
MIS area cover with every node at a seeded random position (no placer,
so BLAS never runs), ``STA_MOVES`` seeded single-gate moves through
``IncrementalTiming.set_position`` and ``update()``, then
``required()``.  Lily's costs and the FM counts read a global placement
whose solves run through BLAS, and on a 4k-gate subject graph Lily's
counts move with the BLAS thread count, so the synth circuit has no
Lily or placement rows; the paper circuits' rows repeat at one and two
threads (CI runs this file at one BLAS thread as well as at the
runner's default).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper, LilyDelayMapper, LilyOptions
from repro.geometry import Point
from repro.library.standard import big_library
from repro.map.cuts import CutMapper
from repro.map.mis import MisAreaMapper
from repro.network.decompose import decompose_to_subject
from repro.obs import OBS
from repro.timing import IncrementalTiming
from repro.timing.model import WireCapModel

TABLE = Path(__file__).with_name("work_gate.json")
PAPER_CIRCUITS = ["C880", "C1908", "duke2", "e64", "apex7"]
CIRCUITS = PAPER_CIRCUITS + ["synth:19910611:1000"]
TREE_COUNTERS = ("match.table_entries", "match.found", "dp.nodes_visited")
CUT_COUNTERS = ("cut.functions_computed", "cut.nodes_visited",
                "cut.states_expanded")
LILY_COUNTERS = ("dp.nodes_visited", "lily.position_evals")
PLACE_COUNTERS = ("place.fm_cells", "place.fm_nets", "place.fm_moves",
                  "place.fm_gain_updates")
STA_COUNTERS = ("sta.node_visits", "perf.incremental.sta_nodes")
#: Single-gate moves in the ``sta`` sweep, and the seed of its positions
#: and moves.
STA_MOVES = 200
STA_SEED = 19910611


def sta_sweep(lib):
    """The ``sta`` step: map, scatter the nodes, then run a move sweep."""
    def step(subject):
        mapped = MisAreaMapper(lib).map(subject).mapped
        rng = random.Random(STA_SEED)
        for node in mapped.topological_order():
            node.position = Point(rng.uniform(0, 400), rng.uniform(0, 400))
        gates = sorted(g.name for g in mapped.gates)
        engine = IncrementalTiming(mapped, wire_model=WireCapModel())
        for _ in range(STA_MOVES):
            name = gates[rng.randrange(len(gates))]
            p = mapped[name].position
            engine.set_position(name, Point(p.x + rng.uniform(-8.0, 8.0),
                                            p.y + rng.uniform(-8.0, 8.0)))
            engine.update()
        engine.required()
    return step

#: mode -> (library -> the measured step over a subject graph, gated
#: counters, circuits).
MODES = {
    "cone": (lambda lib: MisAreaMapper(lib).map, TREE_COUNTERS, CIRCUITS),
    "tree": (lambda lib: MisAreaMapper(lib, tree_mode=True).map,
             TREE_COUNTERS, CIRCUITS),
    "cuts": (lambda lib: CutMapper(lib).map, CUT_COUNTERS, CIRCUITS),
    "lily-area": (lambda lib: LilyAreaMapper(lib).map, LILY_COUNTERS,
                  PAPER_CIRCUITS),
    "lily-timing": (
        lambda lib: LilyDelayMapper(
            lib, options=LilyOptions(position_update="cm_of_merged")).map,
        LILY_COUNTERS, PAPER_CIRCUITS),
    # Lily's first step alone: ``on_begin`` places the subject graph.
    "place": (lambda lib: LilyAreaMapper(lib).on_begin, PLACE_COUNTERS,
              PAPER_CIRCUITS),
    "sta": (sta_sweep, STA_COUNTERS, PAPER_CIRCUITS),
}
CASES = [(circuit, mode) for mode, (_, _, circuits) in MODES.items()
         for circuit in circuits]


def measure(circuit: str, mode: str) -> dict:
    """The gated counters of one mapping (or placement)."""
    make, counters, _ = MODES[mode]
    subject = decompose_to_subject(build_circuit(circuit))
    step = make(big_library())
    was_enabled = OBS.enabled
    if not was_enabled:
        OBS.enable()
    try:
        before = OBS.metrics.snapshot_counters()
        step(subject)
        after = OBS.metrics.snapshot_counters()
    finally:
        if not was_enabled:
            OBS.disable()
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in counters}


def _key(circuit: str, mode: str) -> str:
    return f"{circuit}/{mode}"


@pytest.fixture(scope="module")
def committed():
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("circuit,mode", CASES)
def test_work_never_grows(committed, circuit, mode):
    counts = measure(circuit, mode)
    recorded = committed[_key(circuit, mode)]
    grown = {name: (recorded[name], count)
             for name, count in counts.items() if count > recorded[name]}
    assert not grown, f"work grew (recorded, now): {grown}"
    assert all(counts.values()), f"a gated counter stayed at 0: {counts}"


@pytest.mark.parametrize("mode", MODES)
def test_counts_repeat_exactly(mode):
    first = measure("apex7", mode)
    assert first == measure("apex7", mode)
    assert all(first.values())


def test_table_covers_every_case(committed):
    assert sorted(committed) == sorted(_key(c, m) for c, m in CASES)


if __name__ == "__main__":
    rows = {_key(c, m): measure(c, m) for c, m in CASES}
    TABLE.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {TABLE}\n")
