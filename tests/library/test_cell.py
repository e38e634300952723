"""Cells, pins and libraries."""

from __future__ import annotations

import pytest

from repro.library.cell import Cell, Library, Pin, PinTiming
from repro.library.standard import big_library, scale_library, tiny_library
from repro.network.logic import TruthTable


def make_pin(name, cap=0.25):
    return Pin(name, cap, PinTiming.uniform(1.0, 0.5))


def make_cell(name, expr, pins, area=1000.0):
    return Cell(name, area, expr, [make_pin(p) for p in pins])


class TestCell:
    def test_basic(self):
        cell = make_cell("nand2", "!(a*b)", ["a", "b"])
        assert cell.num_inputs == 2
        assert cell.is_nand2
        assert not cell.is_inverter
        assert cell.truth_table == TruthTable(2, 0b0111)

    def test_inverter_and_buffer(self):
        assert make_cell("inv", "!a", ["a"]).is_inverter
        assert make_cell("buf", "a", ["a"]).is_buffer

    def test_missing_pin(self):
        with pytest.raises(ValueError):
            make_cell("bad", "a*b", ["a"])

    def test_unused_pin(self):
        with pytest.raises(ValueError):
            make_cell("bad", "a", ["a", "b"])

    def test_duplicate_pins(self):
        with pytest.raises(ValueError):
            make_cell("bad", "a*b", ["a", "a"])

    def test_pin_lookup(self):
        cell = make_cell("and2", "a*b", ["a", "b"])
        assert cell.pin("a").name == "a"
        with pytest.raises(KeyError):
            cell.pin("z")

    def test_automorphisms_symmetric(self):
        cell = make_cell("nand3", "!(a*b*c)", ["a", "b", "c"])
        assert len(cell.input_automorphisms()) == 6

    def test_automorphisms_partial(self):
        cell = make_cell("aoi21", "!(a*b+c)", ["a", "b", "c"])
        autos = cell.input_automorphisms()
        assert len(autos) == 2  # identity and a<->b

    def test_sop(self):
        cell = make_cell("or2", "a+b", ["a", "b"])
        assert cell.sop().evaluate([True, False])


class TestPinTiming:
    def test_uniform(self):
        t = PinTiming.uniform(2.0, 0.3)
        assert t.rise_block == t.fall_block == 2.0
        assert t.worst_block == 2.0
        assert t.worst_resistance == 0.3

    def test_worst(self):
        t = PinTiming(1.0, 0.5, 2.0, 0.1)
        assert t.worst_block == 2.0
        assert t.worst_resistance == 0.5

    def test_worst_values_are_not_fields(self):
        """Computed once, the worst values stay out of equality, hash,
        repr and the dataclass fields."""
        from dataclasses import fields, replace

        t = PinTiming(1.0, 0.5, 2.0, 0.1)
        assert [f.name for f in fields(t)] == [
            "rise_block", "rise_resistance", "fall_block", "fall_resistance"]
        assert repr(t) == ("PinTiming(rise_block=1.0, rise_resistance=0.5, "
                           "fall_block=2.0, fall_resistance=0.1)")
        assert t == PinTiming(1.0, 0.5, 2.0, 0.1)
        assert hash(t) == hash(PinTiming(1.0, 0.5, 2.0, 0.1))
        assert replace(t, fall_block=0.5).worst_block == 1.0
        with pytest.raises(AttributeError):
            t.worst_block = 3.0


class TestMaxInputCap:
    def test_largest_pin_cap(self):
        cell = Cell("nand2", 1.0, "!(a*b)",
                    [make_pin("a", cap=0.25), make_pin("b", cap=0.5)])
        assert cell.max_input_cap == 0.5


class TestLibrary:
    def test_requires_inverter(self):
        with pytest.raises(ValueError):
            Library("no_inv", [make_cell("nand2", "!(a*b)", ["a", "b"])])

    def test_requires_nand2(self):
        with pytest.raises(ValueError):
            Library("no_nand", [make_cell("inv", "!a", ["a"])])

    def test_duplicate_cell(self):
        cells = [
            make_cell("inv", "!a", ["a"]),
            make_cell("nand2", "!(a*b)", ["a", "b"]),
            make_cell("inv", "!a", ["a"]),
        ]
        with pytest.raises(ValueError):
            Library("dup", cells)

    def test_smallest_inverter(self):
        cells = [
            Cell("inv_big", 2000, "!a", [make_pin("a")]),
            Cell("inv_small", 900, "!a", [make_pin("a")]),
            make_cell("nand2", "!(a*b)", ["a", "b"]),
        ]
        lib = Library("l", cells)
        assert lib.inverter().name == "inv_small"

    def test_restricted(self):
        big = big_library()
        small = big.restricted("le3", 3)
        assert small.max_fanin() == 3
        assert "nand6" not in small


class TestStandardLibraries:
    def test_big_has_expected_cells(self):
        lib = big_library()
        for name in ["inv1", "nand2", "nand6", "aoi22", "xor2", "mux21"]:
            assert name in lib

    def test_tiny_max_fanin(self):
        assert tiny_library().max_fanin() <= 3

    def test_tiny_subset_of_big(self):
        big, tiny = big_library(), tiny_library()
        for cell in tiny:
            assert cell.name in big

    def test_areas_monotone_in_fanin(self):
        lib = big_library()
        assert lib["nand2"].area < lib["nand3"].area < lib["nand4"].area

    def test_scale_library_timing_only(self):
        lib = big_library()
        scaled = scale_library(lib, 1.0 / 3.0)
        assert scaled["nand2"].area == lib["nand2"].area  # 3µ geometry kept
        assert scaled["nand2"].pins[0].input_cap == pytest.approx(0.25 / 3)
        assert scaled["nand2"].pins[0].timing.rise_block == pytest.approx(
            lib["nand2"].pins[0].timing.rise_block / 3
        )

    def test_scale_library_full_shrink(self):
        lib = big_library()
        scaled = scale_library(lib, 0.5, scale_area=True)
        assert scaled["nand2"].area == pytest.approx(lib["nand2"].area / 4)
