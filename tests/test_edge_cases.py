"""Edge-case sweep across public APIs (determinism, degenerate inputs)."""

from __future__ import annotations

import pytest

from repro.geometry import Point, Rect, bounding_rect, optimal_point_manhattan
from repro.map.base import Solution
from repro.network.logic import Cube, SopCover, TruthTable
from repro.network.subject import SubjectGraph


class TestSolutionOrdering:
    def test_key_orders_by_cost_then_area(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        n = g.nand(a, b)
        g.add_primary_output("f", n)
        cheap = Solution(n, None, cost=1.0, area=5.0)
        pricier = Solution(n, None, cost=2.0, area=1.0)
        assert cheap.key() < pricier.key()
        tie_small = Solution(n, None, cost=1.0, area=1.0)
        assert tie_small.key() < cheap.key()

    def test_key_is_deterministic_on_exact_ties(self, big_lib):
        from repro.library.patterns import pattern_set_for
        from oracles.match import find_matches

        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        n = g.nand(a, b)
        g.add_primary_output("f", n)
        match = find_matches(n, pattern_set_for(big_lib))[0]
        s1 = Solution(n, match, cost=1.0, area=1.0)
        s2 = Solution(n, match, cost=1.0, area=1.0)
        assert s1.key() == s2.key()


class TestZeroInputCovers:
    def test_constant_true_zero_width(self):
        cover = SopCover.constant(True, 0)
        assert cover.evaluate([]) is True
        assert cover.to_truth_table().is_constant() is True

    def test_constant_false_zero_width(self):
        cover = SopCover.constant(False, 0)
        assert cover.evaluate([]) is False

    def test_empty_cube(self):
        cube = Cube("")
        assert cube.num_inputs == 0
        assert cube.num_literals == 0
        assert cube.evaluate([]) is True

    def test_zero_input_truth_table(self):
        tt = TruthTable.constant(True, 0)
        assert tt.num_inputs == 0
        assert tt.evaluate([]) is True
        assert tt.to_sop().evaluate([]) is True


class TestGeometryEdges:
    def test_median_point_even_count(self):
        """An even count takes the midpoint of the two middle values."""
        pts = [Point(0, 0), Point(10, 0), Point(0, 10), Point(10, 10)]
        rs = [bounding_rect([p]) for p in pts]
        assert optimal_point_manhattan(rs) == Point(5, 5)

    def test_degenerate_rect_half_perimeter(self):
        r = Rect(3, 3, 3, 3)
        assert r.half_perimeter == 0
        assert r.center == Point(3, 3)


class TestSubjectGraphEdges:
    def test_constant_shared_instance(self):
        g = SubjectGraph()
        assert g.constant(True) is g.constant(True)
        assert g.constant(False) is not g.constant(True)

    def test_po_of_constant(self, big_lib):
        from repro.map.mis import MisAreaMapper

        g = SubjectGraph()
        a = g.add_primary_input("a")
        one = g.constant(True)
        g.add_primary_output("f", one)
        n = g.nand(a, a)  # = INV(a), keeps 'a' used
        g.add_primary_output("g", n)
        result = MisAreaMapper(big_lib).map(g)
        assert result.mapped["f"].fanins[0].is_constant

    def test_duplicate_po_names_rejected(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        g.add_primary_output("f", a)
        with pytest.raises(ValueError):
            g.add_primary_output("f", a)


class TestMappedNetworkEdges:
    def test_constant_only_circuit_timing(self, big_lib):
        """A network whose only logic is a constant still analyses."""
        from repro.map.netlist import MappedNetwork
        from repro.timing.sta import analyze

        m = MappedNetwork("konst")
        c = m.add_constant("const0", False)
        m.add_primary_output("f", c)
        report = analyze(m)
        assert report.critical_delay == 0.0

    def test_empty_histogram(self):
        from repro.map.netlist import MappedNetwork

        m = MappedNetwork("empty")
        assert m.cell_histogram() == {}
        assert m.total_cell_area() == 0.0
        assert m.nets() == []
