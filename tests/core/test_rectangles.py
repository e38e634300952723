"""True fanouts and fanin/fanout rectangles (Section 3.3).

The primitives are the Lily oracle's (``oracles.lily``); the golden
tests hold production's cached boxes to them.
"""

from __future__ import annotations

import pytest

from oracles.lily import fanin_rectangle, fanout_rectangle, true_fanouts
from repro.core.state import PlacementState
from repro.geometry import Point, Rect
from repro.map.lifecycle import LifecycleTracker
from repro.network.subject import SubjectGraph


@pytest.fixture()
def stem_case():
    """A stem with three consumers: n1 -> {i1, n2, n3}."""
    g = SubjectGraph()
    a = g.add_primary_input("a")
    b = g.add_primary_input("b")
    c = g.add_primary_input("c")
    n1 = g.nand(a, b)              # the stem
    i1 = g.inv(n1)
    n2 = g.nand(n1, c)
    n3 = g.nand(i1, c)
    g.add_primary_output("f", n2)
    g.add_primary_output("h", n3)
    positions = {
        n1.name: Point(10, 10),
        i1.name: Point(20, 10),
        n2.name: Point(10, 30),
        n3.name: Point(40, 40),
    }
    pads = {"a": Point(0, 0), "b": Point(0, 20), "c": Point(0, 40),
            "f": Point(50, 30), "h": Point(50, 50)}
    state = PlacementState(Rect(0, 0, 50, 50), positions, pads)
    state.bind(g)
    return g, n1, i1, n2, n3, state


class TestTrueFanouts:
    def test_plain_fanouts(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        consumers = true_fanouts(n1, lifecycle)
        assert set(consumers) == {i1, n2}

    def test_dove_looked_through(self, stem_case):
        """If i1 became a dove (merged into n3's match), the walk continues
        to n3 — the hawk consuming the merged logic."""
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        lifecycle.make_dove(i1)
        consumers = true_fanouts(n1, lifecycle)
        assert set(consumers) == {n2, n3}

    def test_po_is_terminal(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        consumers = true_fanouts(n2, lifecycle)
        assert [c.name for c in consumers] == ["f"]

    def test_duplication_multiple_true_fanouts(self):
        """A dove whose fanouts are two nodes yields both."""
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        n1 = g.nand(a, b)
        mid = g.inv(n1)
        c1 = g.nand(mid, a)
        c2 = g.nand(mid, b)
        g.add_primary_output("f", c1)
        g.add_primary_output("h", c2)
        lifecycle = LifecycleTracker()
        lifecycle.make_dove(mid)
        consumers = true_fanouts(n1, lifecycle)
        assert set(consumers) == {c1, c2}


class TestFaninRectangle:
    def test_contains_consumers_and_fanin(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        rect = fanin_rectangle(n1, [], state, lifecycle)
        # Consumers i1 (20,10) and n2 (10,30) plus n1 itself (10,10).
        assert rect == Rect(10, 10, 20, 30)

    def test_covered_excluded(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        rect = fanin_rectangle(n1, [n2], state, lifecycle)
        assert rect == Rect(10, 10, 20, 10)  # only i1 and n1 remain

    def test_fanin_position_override(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        rect = fanin_rectangle(
            n1, [], state, lifecycle, fanin_position=Point(0, 0)
        )
        assert rect.lx == 0 and rect.ly == 0

    def test_extra_point_included(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        rect = fanin_rectangle(
            n1, [], state, lifecycle, extra_point=Point(45, 5)
        )
        assert rect.ux == 45 and rect.ly == 5

    def test_hawk_uses_map_position(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        lifecycle.make_hawk(n2)
        state.set_map_position(n2, Point(49, 49))
        rect = fanin_rectangle(n1, [], state, lifecycle)
        assert rect.ux == 49 and rect.uy == 49


class TestFanoutRectangle:
    def test_basic(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        rect = fanout_rectangle(n1, [], state, lifecycle)
        assert rect == Rect(10, 10, 20, 30)  # i1 and n2 placements

    def test_all_covered_returns_none(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        assert fanout_rectangle(n1, [i1, n2], state, lifecycle) is None

    def test_po_fanout_uses_pad(self, stem_case):
        g, n1, i1, n2, n3, state = stem_case
        lifecycle = LifecycleTracker()
        rect = fanout_rectangle(n2, [], state, lifecycle)
        assert rect == Rect(50, 30, 50, 30)  # the pad of f
