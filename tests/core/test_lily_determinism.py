"""Lily results repeat bit for bit, in one process and across processes.

CM-of-Merged places a match at the centre of mass of the nodes it
covers.  Those arrive as a frozenset of identity-hashed subject nodes,
so summing in iteration order would follow memory addresses: float
addition is not associative, and the map positions, arrivals and even
the chosen cover would change from run to run.  The sum runs in uid
order; these tests hold every Lily mode to exact repeatability.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper, LilyOptions
from repro.map.blif_io import write_mapped_blif
from repro.network.decompose import decompose_to_subject


def _digest(result) -> str:
    gates = sorted(result.mapped.gates, key=lambda g: g.name)
    history = [(uid, a.value, b.value)
               for uid, a, b in result.lifecycle.history]
    blob = "\n".join([
        write_mapped_blif(result.mapped),
        repr([(g.name, g.position) for g in gates]),
        repr([(g.name, g.arrival) for g in gates]),
        repr(history),
    ])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cm_of_merged_repeats_in_process(big_lib):
    # A fresh subject graph per run: new node objects at new addresses.
    net = build_circuit("C1908")
    options = LilyOptions(position_update="cm_of_merged")
    digests = {
        _digest(LilyAreaMapper(big_lib, options=options).map(
            decompose_to_subject(net)))
        for _ in range(4)
    }
    assert len(digests) == 1, digests


_SCRIPT = r"""
import sys
sys.path.insert(0, sys.argv[1])
from test_lily_determinism import _digest
from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper, LilyDelayMapper, LilyOptions
from repro.library.standard import big_library
from repro.network.decompose import decompose_to_subject

library = big_library()
for circuit in ("apex7", "C880"):
    net = build_circuit(circuit)
    for label, cls, update in (
            ("area/cm_of_fans", LilyAreaMapper, "cm_of_fans"),
            ("area/cm_of_merged", LilyAreaMapper, "cm_of_merged"),
            ("timing", LilyDelayMapper, "cm_of_merged")):
        options = LilyOptions(position_update=update)
        for run in range(2):
            result = cls(library, options=options).map(
                decompose_to_subject(net))
            print(circuit, label, run, _digest(result))
"""


def test_lily_bit_stable_across_processes():
    """Two fresh interpreters with different hash seeds, two maps each,
    all give the same cover, map positions, arrivals and lifecycle
    history for Lily area (both position updates) and Lily timing."""
    procs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p) or env.get("PYTHONPATH", "")
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _SCRIPT, os.path.dirname(__file__)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env))
    runs = []
    for proc in procs:
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        runs.append(out.split("\n"))
    by_case = {}
    for lines in runs:
        for line in filter(None, lines):
            circuit, label, _run, digest = line.split()
            by_case.setdefault((circuit, label), set()).add(digest)
    assert len(by_case) == 6
    unstable = {case: d for case, d in by_case.items() if len(d) > 1}
    assert not unstable, f"Lily results vary between runs: {unstable}"
