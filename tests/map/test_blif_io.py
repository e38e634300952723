"""Mapped-netlist BLIF I/O."""

from __future__ import annotations

import pytest

from repro.map.blif_io import (
    MappedBlifError,
    parse_mapped_blif,
    write_mapped_blif,
)
from repro.map.mis import MisAreaMapper
from repro.network.blif import parse_blif
from repro.network.decompose import decompose_to_subject
from repro.network.simulate import networks_equivalent


@pytest.fixture()
def mapped_small(big_lib, small_network):
    subject = decompose_to_subject(small_network)
    return MisAreaMapper(big_lib).map(subject).mapped


class TestWrite:
    def test_gate_lines(self, mapped_small):
        text = write_mapped_blif(mapped_small)
        assert ".gate" in text
        assert ".model" in text and ".end" in text


class TestRoundTrip:
    def test_gate_roundtrip(self, big_lib, mapped_small):
        text = write_mapped_blif(mapped_small)
        back = parse_mapped_blif(text, big_lib)
        assert networks_equivalent(mapped_small, back)
        # Cells preserved exactly.
        assert back.cell_histogram() == mapped_small.cell_histogram()

    def test_roundtrip_with_constants(self, big_lib):
        net = parse_blif(""".model c
.inputs a
.outputs f
.names one
1
.names a one f
11 1
.end
""")
        mapped = MisAreaMapper(big_lib).map(decompose_to_subject(net)).mapped
        back = parse_mapped_blif(write_mapped_blif(mapped), big_lib)
        assert networks_equivalent(mapped, back)


class TestErrors:
    def test_unknown_cell(self, big_lib):
        text = """.model m
.inputs a b
.outputs f
.gate quantum_gate a=a b=b O=f
.end
"""
        with pytest.raises(MappedBlifError):
            parse_mapped_blif(text, big_lib)

    def test_missing_output_binding(self, big_lib):
        text = """.model m
.inputs a b
.outputs f
.gate nand2 a=a b=b
.end
"""
        with pytest.raises(MappedBlifError):
            parse_mapped_blif(text, big_lib)

    def test_undriven_output(self, big_lib):
        text = """.model m
.inputs a
.outputs f
.end
"""
        with pytest.raises(MappedBlifError):
            parse_mapped_blif(text, big_lib)

    def test_general_names_rejected(self, big_lib):
        text = """.model m
.inputs a b
.outputs f
.names a b f
11 1
.end
"""
        with pytest.raises(MappedBlifError):
            parse_mapped_blif(text, big_lib)
