"""The Boolean network data structure (MIS-style multi-level logic).

A :class:`Network` is a DAG of named :class:`Node` objects.  Internal nodes
carry a sum-of-products function (:class:`~repro.network.logic.SopCover`)
over their ordered fanin list, exactly as in MIS/BLIF.  Primary outputs are
modelled as explicit zero-logic nodes with a single fanin; this keeps the
"one logic cone per primary output" view of Section 2 simple and gives the
pad placer concrete objects to position on the chip boundary.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.network.logic import SopCover, TruthTable

__all__ = ["NodeKind", "Node", "Network"]


class NodeKind(enum.Enum):
    """Role of a node in the network."""

    PRIMARY_INPUT = "pi"
    PRIMARY_OUTPUT = "po"
    INTERNAL = "internal"


class Node:
    """One vertex of the Boolean network.

    Attributes:
        name: unique name within the owning network.
        kind: PI / PO / internal.
        fanins: ordered fanin nodes (function input order for internal nodes;
            a single driver for POs; empty for PIs).
        function: the node's local function over its fanins (internal only;
            constants are internal nodes with an empty fanin list).
    """

    __slots__ = ("name", "kind", "fanins", "fanouts", "function")

    def __init__(
        self,
        name: str,
        kind: NodeKind,
        fanins: Optional[List["Node"]] = None,
        function: Optional[SopCover] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.fanins: List[Node] = fanins or []
        self.fanouts: List[Node] = []
        self.function = function

    @property
    def is_pi(self) -> bool:
        return self.kind is NodeKind.PRIMARY_INPUT

    @property
    def is_po(self) -> bool:
        return self.kind is NodeKind.PRIMARY_OUTPUT

    @property
    def is_internal(self) -> bool:
        return self.kind is NodeKind.INTERNAL

    @property
    def num_fanins(self) -> int:
        return len(self.fanins)

    @property
    def num_fanouts(self) -> int:
        return len(self.fanouts)

    @property
    def is_constant(self) -> bool:
        return self.is_internal and not self.fanins

    def truth_table(self) -> TruthTable:
        """Local function as a truth table over the ordered fanins."""
        if self.function is None:
            raise ValueError(f"node {self.name!r} has no local function")
        return self.function.to_truth_table()

    def __repr__(self) -> str:
        return f"Node({self.name!r}, {self.kind.value}, fanins={len(self.fanins)})"


class Network:
    """A combinational multi-level Boolean network.

    Construction is incremental: add primary inputs, internal nodes (with
    their covers), then primary outputs pointing at drivers.  The class
    maintains fanout lists and provides topological traversal, structural
    statistics and consistency checking.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self.primary_inputs: List[Node] = []
        self.primary_outputs: List[Node] = []

    # -- construction --------------------------------------------------------

    def _register(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name: {node.name!r}")
        self._nodes[node.name] = node
        return node

    def add_primary_input(self, name: str) -> Node:
        node = self._register(Node(name, NodeKind.PRIMARY_INPUT))
        self.primary_inputs.append(node)
        return node

    def add_node(
        self,
        name: str,
        fanins: Sequence[Node],
        function: SopCover,
    ) -> Node:
        """Add an internal node computing ``function`` over ``fanins``."""
        if function.num_inputs != len(fanins):
            raise ValueError(
                f"node {name!r}: cover width {function.num_inputs} != "
                f"{len(fanins)} fanins"
            )
        for f in fanins:
            if f.name not in self._nodes or self._nodes[f.name] is not f:
                raise ValueError(f"fanin {f.name!r} is not in this network")
            if f.is_po:
                raise ValueError(f"primary output {f.name!r} cannot drive logic")
        node = self._register(Node(name, NodeKind.INTERNAL, list(fanins), function))
        for f in fanins:
            f.fanouts.append(node)
        return node

    def add_constant(self, name: str, value: bool) -> Node:
        """Add a constant-0 or constant-1 internal node."""
        return self.add_node(name, [], SopCover.constant(value, 0))

    def add_primary_output(self, name: str, driver: Node) -> Node:
        if driver.name not in self._nodes or self._nodes[driver.name] is not driver:
            raise ValueError(f"driver {driver.name!r} is not in this network")
        if driver.is_po:
            raise ValueError(f"primary output cannot drive {name!r}")
        node = self._register(Node(name, NodeKind.PRIMARY_OUTPUT, [driver]))
        driver.fanouts.append(node)
        self.primary_outputs.append(node)
        return node

    # -- lookup / iteration ----------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __getitem__(self, name: str) -> Node:
        return self._nodes[name]

    def get(self, name: str) -> Optional[Node]:
        return self._nodes.get(name)

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    @property
    def internal_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.is_internal]

    def __len__(self) -> int:
        return len(self._nodes)

    def topological_order(self) -> List[Node]:
        """All nodes in topological (fanin-before-fanout) order.

        Raises ``ValueError`` on a combinational cycle.
        """
        order: List[Node] = []
        state: Dict[str, int] = {}  # 0 unseen, 1 on stack, 2 done

        for root in self._nodes.values():
            if state.get(root.name, 0) == 2:
                continue
            stack: List[tuple] = [(root, iter(root.fanins))]
            state[root.name] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for child in it:
                    s = state.get(child.name, 0)
                    if s == 1:
                        raise ValueError(
                            f"combinational cycle through {child.name!r}"
                        )
                    if s == 0:
                        state[child.name] = 1
                        stack.append((child, iter(child.fanins)))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    state[node.name] = 2
                    order.append(node)
        return order

    def transitive_fanin(self, roots: Iterable[Node]) -> Set[Node]:
        """All nodes in the transitive fanin of ``roots`` (roots included)."""
        seen: Set[Node] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(node.fanins)
        return seen

    # -- statistics / maintenance ------------------------------------------------

    def num_literals(self) -> int:
        """Total factored-literal count over all internal nodes."""
        return sum(n.function.num_literals for n in self.internal_nodes)

    def depth(self) -> int:
        """Longest PI-to-PO path length counted in internal nodes."""
        level: Dict[str, int] = {}
        for node in self.topological_order():
            if node.is_pi or node.is_constant:
                level[node.name] = 0
            elif node.is_po:
                level[node.name] = level[node.fanins[0].name]
            else:
                level[node.name] = 1 + max(level[f.name] for f in node.fanins)
        if not self.primary_outputs:
            return 0
        return max(level[po.name] for po in self.primary_outputs)

    def sweep_dangling(self) -> int:
        """Remove internal nodes with no path to any primary output.

        Returns the number of removed nodes.
        """
        live = self.transitive_fanin(self.primary_outputs)
        dead = [
            n for n in self._nodes.values() if n.is_internal and n not in live
        ]
        for node in dead:
            for f in node.fanins:
                f.fanouts.remove(node)
            del self._nodes[node.name]
        return len(dead)

    def check(self) -> None:
        """Validate structural invariants; raises ``ValueError`` on breakage."""
        for node in self._nodes.values():
            for f in node.fanins:
                if self._nodes.get(f.name) is not f:
                    raise ValueError(f"{node.name}: foreign fanin {f.name}")
                if node not in f.fanouts:
                    raise ValueError(f"{node.name}: missing fanout backlink on {f.name}")
            for g in node.fanouts:
                if self._nodes.get(g.name) is not g:
                    raise ValueError(f"{node.name}: foreign fanout {g.name}")
                if node not in g.fanins:
                    raise ValueError(f"{node.name}: fanout {g.name} lacks fanin link")
            if node.is_internal and node.function is None:
                raise ValueError(f"internal node {node.name} lacks a function")
            if node.is_po and len(node.fanins) != 1:
                raise ValueError(f"PO {node.name} must have exactly one driver")
            if node.is_pi and node.fanins:
                raise ValueError(f"PI {node.name} must have no fanins")
        self.topological_order()  # raises on cycles

    def stats(self) -> Dict[str, int]:
        """Summary counts used in reports and tests."""
        return {
            "inputs": len(self.primary_inputs),
            "outputs": len(self.primary_outputs),
            "nodes": len(self.internal_nodes),
            "literals": self.num_literals(),
            "depth": self.depth(),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Network({self.name!r}, pi={s['inputs']}, po={s['outputs']}, "
            f"nodes={s['nodes']}, lits={s['literals']})"
        )
