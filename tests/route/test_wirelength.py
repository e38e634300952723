"""Half-perimeter wire length and the Chung–Hwang Steiner correction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.route.wirelength import chung_hwang_factor, hpwl
from repro.timing.model import WireCapModel, net_wire_capacitance

coords = st.floats(min_value=0, max_value=1000, allow_nan=False)
points = st.lists(st.builds(Point, coords, coords), min_size=2, max_size=12)


class TestHpwl:
    def test_two_pins(self):
        assert hpwl([Point(0, 0), Point(3, 4)]) == 7

    def test_degenerate(self):
        assert hpwl([Point(5, 5)]) == 0
        assert hpwl([]) == 0

    @given(points)
    def test_lower_bounds_any_rectilinear_tree(self, pts):
        """HPWL never exceeds the MST length."""
        from repro.route.spanning import rectilinear_mst_length

        assert hpwl(pts) <= rectilinear_mst_length(pts) + 1e-9


class TestChungHwang:
    def test_small_nets_exact(self):
        assert chung_hwang_factor(2) == 1.0
        assert chung_hwang_factor(3) == 1.0

    def test_monotone(self):
        values = [chung_hwang_factor(n) for n in range(2, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_four_pins(self):
        assert chung_hwang_factor(4) == pytest.approx(1.5)

    def test_steiner_estimate_scales_hpwl(self):
        """The wire capacitance of Section 4.2 is the Steiner estimate:
        half-perimeter times the Chung–Hwang factor (unit capacitance
        per micron on both layers reads it back as a length)."""
        pts = [Point(0, 0), Point(10, 0), Point(0, 10), Point(10, 10)]
        unit = WireCapModel(1.0, 1.0)
        assert net_wire_capacitance(pts, unit) == pytest.approx(
            hpwl(pts) * 1.5)
