"""Placement state."""

from __future__ import annotations

import pytest

from repro.core.state import PlacementState
from repro.geometry import Point, Rect
from repro.network.subject import SubjectGraph


@pytest.fixture()
def graph_and_state():
    g = SubjectGraph()
    a = g.add_primary_input("a")
    b = g.add_primary_input("b")
    n = g.nand(a, b)
    g.add_primary_output("f", n)
    state = PlacementState(
        Rect(0, 0, 100, 100),
        place_positions={n.name: Point(40, 40)},
        pad_positions={"a": Point(0, 0), "b": Point(0, 100),
                       "f": Point(100, 50)},
    )
    state.bind(g)
    return g, n, state


class TestPlacementState:
    def test_place_positions(self, graph_and_state):
        g, n, state = graph_and_state
        assert state.place_position(n) == Point(40, 40)
        assert state.place_position(g["a"]) == Point(0, 0)
        assert state.place_position(g["f"]) == Point(100, 50)

    def test_missing_gate_defaults_to_center(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        n = g.nand(a, b)
        g.add_primary_output("f", n)
        state = PlacementState(
            Rect(0, 0, 10, 10), {}, {"a": Point(0, 0), "b": Point(0, 10),
                                     "f": Point(10, 5)}
        )
        state.bind(g)
        assert state.place_position(n) == Point(5, 5)

    def test_map_positions(self, graph_and_state):
        _g, n, state = graph_and_state
        assert state.map_position(n) is None
        assert state.best_position(n) == Point(40, 40)
        state.set_map_position(n, Point(60, 60))
        assert state.map_position(n) == Point(60, 60)
        assert state.best_position(n) == Point(60, 60)

    def test_set_place_position(self, graph_and_state):
        _g, n, state = graph_and_state
        state.set_place_position(n, Point(1, 2))
        assert state.place_position(n) == Point(1, 2)
