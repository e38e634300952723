"""Wire-cost estimation for candidate matches (Section 3.4).

The estimator is the Lily oracle's (``oracles.lily``); the golden tests
hold production's cached pricing to it.
"""

from __future__ import annotations

import pytest

from oracles.lily import fanin_net_cost, match_wire_cost, true_fanouts
from oracles.match import find_matches
from repro.core.state import PlacementState
from repro.geometry import Point, Rect
from repro.library.patterns import pattern_set_for
from repro.map.lifecycle import LifecycleTracker
from repro.network.subject import SubjectGraph


@pytest.fixture()
def match_case(big_lib):
    """NAND2 match at the root of a 2-gate graph with pads far apart."""
    g = SubjectGraph()
    a = g.add_primary_input("a")
    b = g.add_primary_input("b")
    n = g.nand(a, b)
    g.add_primary_output("f", n)
    state = PlacementState(
        Rect(0, 0, 100, 100),
        {n.name: Point(50, 50)},
        {"a": Point(0, 0), "b": Point(0, 100), "f": Point(100, 50)},
    )
    state.bind(g)
    matches = find_matches(n, pattern_set_for(big_lib))
    nand_match = next(m for m in matches if m.cell.name == "nand2")
    return g, n, nand_match, state


class TestFaninNetCost:
    def test_position_sensitivity(self, match_case):
        """Placing the gate near its fanin is cheaper than far away."""
        g, n, match, state = match_case
        lifecycle = LifecycleTracker()
        a = g["a"]
        near = fanin_net_cost(
            a, match, Point(1, 1), Point(0, 0), state, lifecycle
        )
        far = fanin_net_cost(
            a, match, Point(99, 99), Point(0, 0), state, lifecycle
        )
        assert near < far

    def test_spanning_model(self, match_case):
        g, n, match, state = match_case
        lifecycle = LifecycleTracker()
        a = g["a"]
        cost = fanin_net_cost(
            a, match, Point(10, 10), Point(0, 0), state, lifecycle,
            model="spanning",
        )
        assert cost == pytest.approx(20.0)  # MST of (0,0)-(10,10) / 1 fanout

    def test_unknown_model(self, match_case):
        g, n, match, state = match_case
        with pytest.raises(ValueError):
            fanin_net_cost(
                g["a"], match, Point(0, 0), Point(0, 0), state,
                LifecycleTracker(), model="telepathy",
            )

    def test_fanout_division(self, big_lib):
        """A net shared by more consumers charges this match less."""
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        c = g.add_primary_input("c")
        stem = g.nand(a, b)
        u1 = g.nand(stem, c)
        u2 = g.inv(stem)
        g.add_primary_output("f", u1)
        g.add_primary_output("h", u2)
        state = PlacementState(
            Rect(0, 0, 100, 100),
            {stem.name: Point(50, 50), u1.name: Point(60, 50),
             u2.name: Point(40, 50)},
            {"a": Point(0, 0), "b": Point(0, 100), "c": Point(100, 0),
             "f": Point(100, 50), "h": Point(100, 100)},
        )
        state.bind(g)
        lifecycle = LifecycleTracker()
        match = next(
            m for m in find_matches(u1, pattern_set_for(big_lib))
            if m.cell.name == "nand2"
        )
        shared = fanin_net_cost(
            stem, match, Point(60, 50), Point(50, 50), state, lifecycle
        )
        # Same geometry but imagine stem had only this consumer: simulate by
        # marking u2 covered (excluded), leaving fanout count lower.
        exclusive = fanin_net_cost(
            stem,
            match,
            Point(60, 50),
            Point(50, 50),
            state,
            lifecycle,
            consumers=[u1],
        )
        assert shared <= exclusive + 1e-9


class TestMatchWireCost:
    def test_sums_over_inputs(self, match_case):
        g, n, match, state = match_case
        lifecycle = LifecycleTracker()
        total = match_wire_cost(
            match,
            Point(50, 50),
            [Point(0, 0), Point(0, 100)],
            state,
            lifecycle,
        )
        parts = sum(
            fanin_net_cost(
                v, match, Point(50, 50), [Point(0, 0), Point(0, 100)][i],
                state, lifecycle,
            )
            for i, v in enumerate(match.inputs)
        )
        assert total == pytest.approx(parts)

    def test_consumers_cache_consistent(self, match_case):
        """Supplying precomputed true-fanout lists changes nothing."""
        g, n, match, state = match_case
        lifecycle = LifecycleTracker()
        inputs = [Point(0, 0), Point(0, 100)]
        plain = match_wire_cost(
            match, Point(50, 50), inputs, state, lifecycle
        )
        cached = match_wire_cost(
            match,
            Point(50, 50),
            inputs,
            state,
            lifecycle,
            consumers_of=lambda v: true_fanouts(v, lifecycle),
        )
        assert cached == pytest.approx(plain)
