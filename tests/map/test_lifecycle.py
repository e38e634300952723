"""Node life cycle (Figures 2.1 and 2.2)."""

from __future__ import annotations

import pytest

from repro.map.lifecycle import LifecycleError, LifecycleTracker, NodeState
from repro.network.subject import SubjectGraph


@pytest.fixture()
def nodes():
    g = SubjectGraph()
    a = g.add_primary_input("a")
    b = g.add_primary_input("b")
    n1 = g.nand(a, b)
    n2 = g.nand(g.inv(a), b)
    g.add_primary_output("f", n1)
    g.add_primary_output("g", n2)
    return g, n1, n2


class TestTransitions:
    def test_default_is_egg(self, nodes):
        _g, n1, _n2 = nodes
        tracker = LifecycleTracker()
        assert tracker.state(n1) is NodeState.EGG

    def test_visit_makes_nestling(self, nodes):
        _g, n1, _ = nodes
        tracker = LifecycleTracker()
        tracker.visit(n1)
        assert tracker.state(n1) is NodeState.NESTLING

    def test_visit_idempotent(self, nodes):
        _g, n1, _ = nodes
        tracker = LifecycleTracker()
        tracker.visit(n1)
        tracker.visit(n1)
        assert tracker.state(n1) is NodeState.NESTLING

    def test_nestling_to_hawk(self, nodes):
        _g, n1, _ = nodes
        tracker = LifecycleTracker()
        tracker.visit(n1)
        tracker.make_hawk(n1)
        assert tracker.is_hawk(n1)

    def test_nestling_to_dove(self, nodes):
        _g, n1, _ = nodes
        tracker = LifecycleTracker()
        tracker.visit(n1)
        tracker.make_dove(n1)
        assert tracker.state(n1) is NodeState.DOVE

    def test_egg_straight_to_hawk_via_nestling(self, nodes):
        """make_hawk on an egg passes through nestling implicitly."""
        _g, n1, _ = nodes
        tracker = LifecycleTracker()
        tracker.make_hawk(n1)
        assert tracker.is_hawk(n1)
        states = [t for t in tracker.history if t[0] == n1.uid]
        assert [s[2] for s in states] == [
            NodeState.NESTLING, NodeState.HAWK
        ]

    def test_dove_reincarnation(self, nodes):
        """Figure 2.2: dove -> egg -> nestling -> hawk, counted."""
        _g, n1, _ = nodes
        tracker = LifecycleTracker()
        tracker.make_dove(n1)
        tracker.make_hawk(n1)
        assert tracker.is_hawk(n1)
        assert tracker.reincarnations == 1

    def test_hawk_is_final(self, nodes):
        _g, n1, _ = nodes
        tracker = LifecycleTracker()
        tracker.make_hawk(n1)
        tracker.make_dove(n1)  # no-op: hawks stay hawks
        assert tracker.is_hawk(n1)

    def test_dove_stays_dove_on_make_dove(self, nodes):
        _g, n1, _ = nodes
        tracker = LifecycleTracker()
        tracker.make_dove(n1)
        tracker.make_dove(n1)
        assert tracker.state(n1) is NodeState.DOVE
        assert tracker.reincarnations == 0

    def test_illegal_transition_raises(self, nodes):
        _g, n1, _ = nodes
        tracker = LifecycleTracker()
        with pytest.raises(LifecycleError):
            tracker._transition(n1, NodeState.HAWK)  # egg -> hawk directly


class TestBookkeeping:
    def test_counts(self, nodes):
        _g, n1, n2 = nodes
        tracker = LifecycleTracker()
        tracker.make_hawk(n1)
        tracker.make_dove(n2)
        counts = tracker.counts()
        assert counts[NodeState.HAWK] == 1
        assert counts[NodeState.DOVE] == 1

    def test_finished(self, nodes):
        _g, n1, n2 = nodes
        tracker = LifecycleTracker()
        tracker.make_hawk(n1)
        assert not tracker.finished([n1, n2])
        tracker.make_dove(n2)
        assert tracker.finished([n1, n2])


class TestMappingLifecycleIntegration:
    def test_only_hawks_and_doves_remain(self, big_lib, small_network):
        """Section 2: at the end of mapping only hawks and doves remain."""
        from repro.map.mis import MisAreaMapper
        from repro.network.decompose import decompose_to_subject

        subject = decompose_to_subject(small_network)
        result = MisAreaMapper(big_lib).map(subject)
        live = [
            n for n in subject.transitive_fanin(subject.primary_outputs)
            if n.is_gate
        ]
        for node in live:
            assert result.lifecycle.state(node) in (
                NodeState.HAWK, NodeState.DOVE
            )

    def test_every_dove_has_a_hawk_consumer(self, big_lib, small_network):
        """Every dove was merged into (fell prey to) at least one hawk."""
        from repro.map.mis import MisAreaMapper
        from repro.network.decompose import decompose_to_subject

        subject = decompose_to_subject(small_network)
        result = MisAreaMapper(big_lib).map(subject)
        hawks = {
            n.uid
            for n in subject.nodes
            if n.is_gate and result.lifecycle.is_hawk(n)
        }
        assert hawks, "some gates must be hawks"
