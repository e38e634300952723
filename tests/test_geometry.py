"""Geometry primitives: points, rectangles, norms, optimal-point solutions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.geometry import contains, rect_distance_x, rect_manhattan_distance
from repro.geometry import (
    Point,
    Rect,
    bounding_rect,
    center_of_mass,
    manhattan,
    optimal_point_euclidean,
    optimal_point_manhattan,
)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False)
points = st.builds(Point, coords, coords)


def rects():
    return st.builds(
        lambda x1, y1, dx, dy: Rect(x1, y1, x1 + abs(dx), y1 + abs(dy)),
        coords, coords, coords, coords,
    )


class TestPoint:
    def test_iter_and_tuple(self):
        p = Point(1.5, 2.5)
        assert tuple(p) == (1.5, 2.5)
        x, y = p
        assert (x, y) == (1.5, 2.5)

    def test_distances(self):
        a, b = Point(0, 0), Point(3, 4)
        assert manhattan(a, b) == 7
        assert manhattan(b, a) == 7


class TestRect:
    def test_properties(self):
        r = Rect(0, 0, 4, 3)
        assert r.width == 4
        assert r.height == 3
        assert r.half_perimeter == 7
        assert r.area == 12
        assert r.center == Point(2, 1.5)

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_expand_and_union(self):
        u = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
        assert u == Rect(0, 0, 3, 3)
        assert Rect(0, 0, 5, 5).union(Rect(1, 1, 2, 2)) == Rect(0, 0, 5, 5)

    def test_from_point_degenerate(self):
        """A rectangle may collapse to a point (a one-pin net's box)."""
        r = bounding_rect([Point(2, 3)])
        assert r == Rect(2, 3, 2, 3)
        assert r.area == 0
        assert r.center == Point(2, 3)

    @given(st.lists(points, min_size=1, max_size=20))
    def test_bounding_rect_contains_all(self, pts):
        r = bounding_rect(pts)
        assert all(contains(r, p) for p in pts)

    def test_bounding_rect_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_rect([])


class TestRectDistance:
    def test_inside_is_zero(self):
        r = Rect(0, 0, 4, 4)
        assert rect_manhattan_distance(Point(2, 2), r) == 0

    def test_outside_axis(self):
        r = Rect(0, 0, 4, 4)
        assert rect_manhattan_distance(Point(6, 2), r) == 2
        assert rect_manhattan_distance(Point(6, 6), r) == 4

    @given(points, rects())
    def test_nonnegative(self, p, r):
        assert rect_manhattan_distance(p, r) >= 0

    @given(coords, rects())
    def test_x_distance_formula(self, x, r):
        expected = max(r.lx - x, 0.0, x - r.ux)
        assert rect_distance_x(x, r) == pytest.approx(expected, abs=1e-9)


class TestCenters:
    def test_center_of_mass(self):
        pts = [Point(0, 0), Point(2, 0), Point(1, 3)]
        assert center_of_mass(pts) == Point(1, 1)

    def test_median_point_odd(self):
        """Over point-sized rectangles the Manhattan optimum is the
        coordinate-wise median of the points."""
        pts = [Point(0, 0), Point(10, 1), Point(2, 5)]
        rs = [bounding_rect([p]) for p in pts]
        assert optimal_point_manhattan(rs) == Point(2, 1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            center_of_mass([])


class TestOptimalPoint:
    def _total_cost(self, p, rs):
        return sum(rect_manhattan_distance(p, r) for r in rs)

    @given(st.lists(rects(), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_manhattan_beats_grid(self, rs):
        """The separable-median point is no worse than any grid candidate."""
        best = optimal_point_manhattan(rs)
        best_cost = self._total_cost(best, rs)
        candidate_xs = sorted({r.lx for r in rs} | {r.ux for r in rs})
        candidate_ys = sorted({r.ly for r in rs} | {r.uy for r in rs})
        for x in candidate_xs:
            for y in candidate_ys:
                assert best_cost <= self._total_cost(Point(x, y), rs) + 1e-6

    def test_manhattan_single_rect_inside(self):
        r = Rect(1, 1, 5, 5)
        p = optimal_point_manhattan([r])
        assert rect_manhattan_distance(p, r) == 0

    def test_euclidean_is_center_of_centers(self):
        rs = [Rect(0, 0, 2, 2), Rect(4, 4, 6, 6)]
        assert optimal_point_euclidean(rs) == Point(3, 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            optimal_point_manhattan([])
        with pytest.raises(ValueError):
            optimal_point_euclidean([])
