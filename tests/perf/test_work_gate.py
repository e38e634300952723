"""Exact work gate for matching and covering.

The matcher and the covering DP count their work in ``repro.obs``:
``match.table_entries`` (subtree results the table matcher stored),
``match.found`` (matches it kept) and ``dp.nodes_visited`` (DP solves).
At a fixed circuit the counts are deterministic, so a committed table of
them gates work on any host, without timing noise: a change that makes
any count grow fails here.  Counts that shrink pass; re-record them
with::

    PYTHONPATH=src python tests/perf/test_work_gate.py

Cases: the five ``paper_tables`` circuits and ``synth:19910611:1000``,
each mapped by the MIS area mapper in cone and in tree mode.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.circuits.suite import build_circuit
from repro.library.standard import big_library
from repro.map.mis import MisAreaMapper
from repro.network.decompose import decompose_to_subject
from repro.obs import OBS

TABLE = Path(__file__).with_name("work_gate.json")
CIRCUITS = ["C880", "C1908", "duke2", "e64", "apex7", "synth:19910611:1000"]
MODES = {"cone": False, "tree": True}
COUNTERS = ("match.table_entries", "match.found", "dp.nodes_visited")


def measure(circuit: str, mode: str) -> dict:
    """The gated counters of one MIS area mapping."""
    subject = decompose_to_subject(build_circuit(circuit))
    mapper = MisAreaMapper(big_library(), tree_mode=MODES[mode])
    was_enabled = OBS.enabled
    if not was_enabled:
        OBS.enable()
    try:
        before = OBS.metrics.snapshot_counters()
        mapper.map(subject)
        after = OBS.metrics.snapshot_counters()
    finally:
        if not was_enabled:
            OBS.disable()
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in COUNTERS}


def _key(circuit: str, mode: str) -> str:
    return f"{circuit}/{mode}"


@pytest.fixture(scope="module")
def committed():
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_work_never_grows(committed, circuit, mode):
    counts = measure(circuit, mode)
    recorded = committed[_key(circuit, mode)]
    grown = {name: (recorded[name], counts[name]) for name in COUNTERS
             if counts[name] > recorded[name]}
    assert not grown, f"work grew (recorded, now): {grown}"
    assert counts["match.found"] > 0


@pytest.mark.parametrize("mode", MODES)
def test_counts_repeat_exactly(mode):
    first = measure("apex7", mode)
    assert first == measure("apex7", mode)
    assert all(first[name] > 0 for name in COUNTERS)


def test_table_covers_every_case(committed):
    assert sorted(committed) == sorted(
        _key(c, m) for c in CIRCUITS for m in MODES)


if __name__ == "__main__":
    rows = {_key(c, m): measure(c, m) for c in CIRCUITS for m in MODES}
    TABLE.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {TABLE}\n")
