"""Pinned mapped-BLIF digests: the covers later refactors must keep.

The sha256 of the mapped BLIF for C880 and apex7, tree and cut covering,
area and timing mode.  The digests were taken before cross-cone solution
reuse and per-graph cut functions, so they pin that those changes kept
every cover bit for bit; any later change to either covering backend that
moves a digest changes a cover and must say why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits.suite import build_circuit
from repro.map.blif_io import write_mapped_blif
from repro.map.cuts import CutMapper
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.network.decompose import decompose_to_subject

PINNED = {
    ("C880", "tree", "area"):
        "f75f1db193e0cc3a5088ef811b3a1d0e5d254f505001eb0f2948b24855e7726c",
    ("C880", "tree", "timing"):
        "05465db54bf006a760691c3ff7f7cd4631ae53523f4f4399a1fbe91efe14edcb",
    ("C880", "cuts", "area"):
        "0029f111114e8264890c9b611bc050de7017b66bac5100857511ed3980ca30cd",
    ("C880", "cuts", "timing"):
        "271db1b35cefa00e2b43cadb0592715974d09b21fc4f4357242a871fe83dc380",
    ("apex7", "tree", "area"):
        "86fdf0fc8226da148407531bf121242f148263f7952dd5fcfd5820c8fd8290ae",
    ("apex7", "tree", "timing"):
        "af6732b7bad13e2f48d6c0ef72f81f58608c27c1ea4ab9fd390d3bc457deb487",
    ("apex7", "cuts", "area"):
        "376bd7c528a072bce43496ced0cd3294b2f75c4a801dd00a13254c3758d25504",
    ("apex7", "cuts", "timing"):
        "211241cb532c0e985d8bf89974b8ae35a3be4347448109d13b8d211e630911ec",
}


def _mapper(kind, mode, library):
    if kind == "cuts":
        return CutMapper(library, mode=mode)
    return MisAreaMapper(library) if mode == "area" else MisDelayMapper(library)


@pytest.mark.parametrize("circuit,kind,mode", sorted(PINNED))
def test_mapped_blif_digest_is_pinned(circuit, kind, mode, big_lib):
    result = _mapper(kind, mode, big_lib).map(
        decompose_to_subject(build_circuit(circuit)))
    digest = hashlib.sha256(
        write_mapped_blif(result.mapped).encode()).hexdigest()
    assert digest == PINNED[(circuit, kind, mode)], (
        f"{circuit} {kind} {mode}: the cover changed")
