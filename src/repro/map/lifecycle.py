"""The node life cycle of Section 2 (Figures 2.1 and 2.2).

During cone-by-cone mapping every subject node is in one of four states:

* **egg** — not yet visited by the mapper;
* **nestling** — visited, in the cone currently being processed; whether it
  survives into ``N_mapped`` is not yet known;
* **hawk** — the sink (root) node of a chosen match: it *will* appear in the
  final network, carries a gate instance and a ``map_position``;
* **dove** — a non-sink element of a chosen match: merged into a hawk, it
  disappears from the final network.

Logic duplication across cones lets a dove *reincarnate*: a later cone that
needs the dove's signal restarts it as an egg, and it may then become a hawk
(Figure 2.2).  The tracker enforces exactly the transitions of that figure.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Tuple

from repro.network.subject import SubjectNode
from repro.obs import OBS

__all__ = ["NodeState", "LifecycleTracker", "LifecycleError"]


class NodeState(enum.Enum):
    """A subject node's life-cycle state (Figure 2.2)."""

    EGG = "egg"
    NESTLING = "nestling"
    HAWK = "hawk"
    DOVE = "dove"


#: Legal transitions, per Figure 2.2: egg -> nestling; nestling -> hawk/dove;
#: dove -> egg (reincarnation).  Hawks are final.  A dove may also be chosen
#: as a match sink directly in a later cone, which is modelled as the
#: two-step reincarnation dove -> egg -> nestling -> hawk.
_LEGAL = {
    (NodeState.EGG, NodeState.NESTLING),
    (NodeState.NESTLING, NodeState.HAWK),
    (NodeState.NESTLING, NodeState.DOVE),
    (NodeState.DOVE, NodeState.EGG),
}


class LifecycleError(RuntimeError):
    """Raised on a transition Figure 2.2 does not permit."""


class LifecycleTracker:
    """Tracks every subject node's life-cycle state during mapping."""

    def __init__(self) -> None:
        self._state: Dict[int, NodeState] = {}
        #: (node uid, from-state, to-state) history, for tests and reports.
        self.history: List[Tuple[int, NodeState, NodeState]] = []
        #: Number of dove -> egg reincarnations (logic-duplication events).
        self.reincarnations = 0

    def state(self, node: SubjectNode) -> NodeState:
        """The node's current state (egg until first touched)."""
        return self._state.get(node.uid, NodeState.EGG)

    def is_hawk(self, node: SubjectNode) -> bool:
        """Whether the node is the output of a committed gate."""
        return self.state(node) is NodeState.HAWK

    def _transition(self, node: SubjectNode, to: NodeState) -> None:
        frm = self.state(node)
        if frm is to:
            return
        if (frm, to) not in _LEGAL:
            raise LifecycleError(
                f"{node.name}: illegal transition {frm.value} -> {to.value}"
            )
        self._state[node.uid] = to
        self.history.append((node.uid, frm, to))
        if frm is NodeState.DOVE and to is NodeState.EGG:
            self.reincarnations += 1
        if OBS.enabled:
            OBS.metrics.counter(
                f"lifecycle.{frm.value}_to_{to.value}"
            ).inc()

    def visit(self, node: SubjectNode) -> None:
        """Mark an egg as a nestling (the DP pass has reached it)."""
        if self.state(node) is NodeState.EGG:
            self._transition(node, NodeState.NESTLING)

    def make_hawk(self, node: SubjectNode) -> None:
        """The node is the sink of a committed match."""
        frm = self.state(node)
        if frm is NodeState.HAWK:
            return
        if frm is NodeState.DOVE:
            # Reincarnation: the dove's logic is duplicated for a new cone.
            self._transition(node, NodeState.EGG)
            frm = NodeState.EGG
        if frm is NodeState.EGG:
            self._transition(node, NodeState.NESTLING)
        self._transition(node, NodeState.HAWK)

    def make_dove(self, node: SubjectNode) -> None:
        """The node is a non-sink element of a committed match.

        A node that is already a hawk stays a hawk: its gate exists for the
        earlier cone and the new match simply duplicates its logic.
        """
        frm = self.state(node)
        if frm in (NodeState.HAWK, NodeState.DOVE):
            return
        if frm is NodeState.EGG:
            self._transition(node, NodeState.NESTLING)
        self._transition(node, NodeState.DOVE)

    def counts(self) -> Dict[NodeState, int]:
        """Number of touched nodes in each state."""
        out = {state: 0 for state in NodeState}
        for state in self._state.values():
            out[state] += 1
        return out

    def finished(self, gates: Iterable[SubjectNode]) -> bool:
        """At the end of mapping only hawks and doves remain (Section 2)."""
        return all(
            self.state(g) in (NodeState.HAWK, NodeState.DOVE) for g in gates
        )
