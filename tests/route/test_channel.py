"""Left-edge channel routing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.route.channel import ChannelResult, channel_density, left_edge_route


class TestDensity:
    def test_disjoint(self):
        assert channel_density([(0, 1), (2, 3)]) == 1

    def test_nested(self):
        assert channel_density([(0, 10), (1, 9), (2, 8)]) == 3

    def test_touching_do_not_overlap(self):
        assert channel_density([(0, 5), (5, 10)]) == 1

    def test_reversed_interval(self):
        assert channel_density([(5, 0), (1, 4)]) == 2


class TestLeftEdge:
    def test_no_overlap(self):
        result = left_edge_route({"a": (0, 4), "b": (5, 9)})
        assert result.num_tracks == 1
        assert result.track_of["a"] == result.track_of["b"] == 0

    def test_overlap_two_tracks(self):
        result = left_edge_route({"a": (0, 6), "b": (3, 9)})
        assert result.num_tracks == 2
        assert result.track_of["a"] != result.track_of["b"]

    def test_track_count_equals_density(self):
        """Without vertical constraints the left-edge result is optimal."""
        intervals = {
            f"n{i}": (i * 2.0, i * 2.0 + 5.0) for i in range(10)
        }
        result = left_edge_route(intervals)
        assert result.num_tracks == result.density

    @given(st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False),
                  st.floats(0, 100, allow_nan=False)),
        min_size=1, max_size=30,
    ))
    @settings(max_examples=60)
    def test_property_valid_and_optimal(self, raw):
        intervals = {f"n{i}": iv for i, iv in enumerate(raw)}
        result = left_edge_route(intervals)
        # Validity: same-track intervals never overlap.
        by_track = {}
        for name, track in result.track_of.items():
            lo, hi = sorted(intervals[name])
            by_track.setdefault(track, []).append((lo, hi))
        for spans in by_track.values():
            spans.sort()
            for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
                assert r1 <= l2 + 1e-9
        # Optimality: track count equals density.
        assert result.num_tracks == result.density

    def test_empty(self):
        result = left_edge_route({})
        assert result.num_tracks == 0
        assert result.density == 0
