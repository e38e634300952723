"""Pinned mapped-BLIF digests: the covers later refactors must keep.

The sha256 of the mapped BLIF for C880 and apex7: tree and cut covering
in area and timing mode, LUT-4 covering in area mode and fusion in both
modes.  The tree and cut digests were taken before cross-cone solution
reuse and per-graph cut functions, so they pin that those changes kept
every cover bit for bit; any later change to a covering backend that
moves a digest changes a cover and must say why.  Area-mode fusion
returns the cut cover of C880 and the tree cover of apex7 (each smaller
in total area than its per-cone assembly), so those rows repeat their
digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits.suite import build_circuit
from repro.map.blif_io import write_mapped_blif
from repro.map.cuts import CutMapper, FusionMapper
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
    ("C880", "lut:4", "area"):
        "ff4adc1a286e109dbe9a45abdc122460d12dad87e1f6a4d03b7f8583bd9cf8f1",
    ("apex7", "lut:4", "area"):
        "97297aed4c6ba625b1f77827675ef658bbd413d148a0791a308c8f6e9bdecce9",
    ("C880", "fusion", "area"):
        "0029f111114e8264890c9b611bc050de7017b66bac5100857511ed3980ca30cd",
    ("C880", "fusion", "timing"):
        "1285fb4fe285c6accbd79fca6d02377a62439f3a4d32dd81a6cda6d7a0666726",
    ("apex7", "fusion", "area"):
        "86fdf0fc8226da148407531bf121242f148263f7952dd5fcfd5820c8fd8290ae",
    ("apex7", "fusion", "timing"):
        "d1b11383cc6401f7d1d06b8ebdd642ce5df4fb27f6edbed0166e106646545048",
}


def _mapper(kind, mode, library):
    if kind == "cuts":
        return CutMapper(library, mode=mode)
    if kind == "lut:4":
        return CutMapper(library, mode=mode, lut_k=4)
    if kind == "fusion":
        return FusionMapper(library, mode=mode)
    return MisAreaMapper(library) if mode == "area" else MisDelayMapper(library)


@pytest.mark.parametrize("circuit,kind,mode", sorted(PINNED))
def test_mapped_blif_digest_is_pinned(circuit, kind, mode, big_lib):
    result = _mapper(kind, mode, big_lib).map(
        decompose_to_subject(build_circuit(circuit)))
    digest = hashlib.sha256(
        write_mapped_blif(result.mapped).encode()).hexdigest()
    assert digest == PINNED[(circuit, kind, mode)], (
        f"{circuit} {kind} {mode}: the cover changed")
