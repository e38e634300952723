"""The subject graph: the network re-expressed in base functions.

Following DAGON/MIS (Section 2), the optimized Boolean network is converted
into a DAG whose internal nodes are only 2-input NAND gates and inverters.
This is the network "in its unmapped form ... the *inchoate* network,
N_inchoate".  Technology mapping covers this graph with library pattern
graphs.

The graph is structurally hashed: NAND2 nodes are commutatively unique and
inverter chains are shared, which creates the multi-fanout *stems* whose
*branches* and *true fanouts* drive Lily's fanin-rectangle construction.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.network.logic import TruthTable

__all__ = ["SubjectNodeType", "SubjectNode", "SubjectGraph"]

_TT_NAND2 = TruthTable(2, 0b0111)
_TT_INV = TruthTable(1, 0b01)


class SubjectNodeType(enum.Enum):
    """Node species in the subject graph."""

    PRIMARY_INPUT = "pi"
    PRIMARY_OUTPUT = "po"
    NAND2 = "nand2"
    INV = "inv"
    CONST0 = "const0"
    CONST1 = "const1"


class SubjectNode:
    """One base-function node of the inchoate network."""

    __slots__ = ("uid", "name", "type", "fanins", "fanouts", "source")

    def __init__(
        self,
        uid: int,
        name: str,
        node_type: SubjectNodeType,
        fanins: Sequence["SubjectNode"] = (),
    ) -> None:
        self.uid = uid
        self.name = name
        self.type = node_type
        self.fanins: List[SubjectNode] = list(fanins)
        self.fanouts: List[SubjectNode] = []
        #: Name of the source-network node this subject node realises
        #: (set for decomposition roots, ``None`` for interior tree nodes).
        self.source: Optional[str] = None

    @property
    def is_pi(self) -> bool:
        return self.type is SubjectNodeType.PRIMARY_INPUT

    @property
    def is_po(self) -> bool:
        return self.type is SubjectNodeType.PRIMARY_OUTPUT

    @property
    def is_gate(self) -> bool:
        return self.type in (SubjectNodeType.NAND2, SubjectNodeType.INV)

    @property
    def is_constant(self) -> bool:
        return self.type in (SubjectNodeType.CONST0, SubjectNodeType.CONST1)

    @property
    def num_fanouts(self) -> int:
        return len(self.fanouts)

    @property
    def is_stem(self) -> bool:
        """A *stem* is a multiple-fanout node of N_inchoate (Section 2)."""
        return len(self.fanouts) > 1

    def truth_table(self) -> TruthTable:
        """Local function over the ordered fanins (simulation protocol)."""
        if self.type is SubjectNodeType.NAND2:
            return _TT_NAND2
        if self.type is SubjectNodeType.INV:
            return _TT_INV
        if self.type is SubjectNodeType.CONST0:
            return TruthTable.constant(False)
        if self.type is SubjectNodeType.CONST1:
            return TruthTable.constant(True)
        raise ValueError(f"{self.type} node has no local function")

    def __repr__(self) -> str:
        return f"SubjectNode({self.name!r}, {self.type.value})"


class SubjectGraph:
    """A structurally-hashed DAG of NAND2/INV nodes plus PI/PO terminals."""

    def __init__(self, name: str = "subject") -> None:
        self.name = name
        self._nodes: List[SubjectNode] = []
        self.primary_inputs: List[SubjectNode] = []
        self.primary_outputs: List[SubjectNode] = []
        self._by_name: Dict[str, SubjectNode] = {}
        # Structural-hash tables.
        self._nand_cache: Dict[Tuple[int, int], SubjectNode] = {}
        self._inv_cache: Dict[int, SubjectNode] = {}
        self._const: Dict[bool, SubjectNode] = {}
        self._counter = 0

    # -- construction -----------------------------------------------------------

    def _new_node(
        self,
        name: Optional[str],
        node_type: SubjectNodeType,
        fanins: Sequence[SubjectNode] = (),
    ) -> SubjectNode:
        uid = self._counter
        self._counter += 1
        if name is None:
            name = f"{node_type.value}_{uid}"
        if name in self._by_name:
            raise ValueError(f"duplicate subject node name: {name!r}")
        node = SubjectNode(uid, name, node_type, fanins)
        for f in fanins:
            f.fanouts.append(node)
        self._nodes.append(node)
        self._by_name[name] = node
        return node

    def add_primary_input(self, name: str) -> SubjectNode:
        node = self._new_node(name, SubjectNodeType.PRIMARY_INPUT)
        self.primary_inputs.append(node)
        return node

    def add_primary_output(self, name: str, driver: SubjectNode) -> SubjectNode:
        if driver.is_po:
            raise ValueError("primary output cannot drive another output")
        node = self._new_node(name, SubjectNodeType.PRIMARY_OUTPUT, [driver])
        self.primary_outputs.append(node)
        return node

    def constant(self, value: bool) -> SubjectNode:
        """The shared constant node (created on first use)."""
        if value not in self._const:
            node_type = SubjectNodeType.CONST1 if value else SubjectNodeType.CONST0
            self._const[value] = self._new_node(None, node_type)
        return self._const[value]

    def nand(self, a: SubjectNode, b: SubjectNode) -> SubjectNode:
        """Structurally-hashed 2-input NAND (commutative).

        Degenerate forms are simplified on the fly: ``NAND(x, x) = !x``,
        ``NAND(x, 1) = !x``, ``NAND(x, 0) = 1``.
        """
        for n in (a, b):
            if n.is_po:
                raise ValueError("primary output cannot drive logic")
        if a is b:
            return self.inv(a)
        if a.type is SubjectNodeType.CONST0 or b.type is SubjectNodeType.CONST0:
            return self.constant(True)
        if a.type is SubjectNodeType.CONST1:
            return self.inv(b)
        if b.type is SubjectNodeType.CONST1:
            return self.inv(a)
        key = (min(a.uid, b.uid), max(a.uid, b.uid))
        node = self._nand_cache.get(key)
        if node is None:
            node = self._new_node(None, SubjectNodeType.NAND2, [a, b])
            self._nand_cache[key] = node
        return node

    def inv(self, a: SubjectNode) -> SubjectNode:
        """Structurally-hashed inverter; collapses inverter pairs and
        complements constants."""
        if a.is_po:
            raise ValueError("primary output cannot drive logic")
        if a.type is SubjectNodeType.INV:
            return a.fanins[0]
        if a.type is SubjectNodeType.CONST0:
            return self.constant(True)
        if a.type is SubjectNodeType.CONST1:
            return self.constant(False)
        node = self._inv_cache.get(a.uid)
        if node is None:
            node = self._new_node(None, SubjectNodeType.INV, [a])
            self._inv_cache[a.uid] = node
        return node

    # -- lookup / iteration -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> SubjectNode:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[SubjectNode]:
        return list(self._nodes)

    @property
    def gates(self) -> List[SubjectNode]:
        """All NAND2/INV nodes (the placeable base-function gates)."""
        return [n for n in self._nodes if n.is_gate]

    def topological_order(self) -> List[SubjectNode]:
        """Nodes in fanin-before-fanout order (graph is acyclic by build)."""
        order: List[SubjectNode] = []
        done: Set[int] = set()
        for root in self._nodes:
            if root.uid in done:
                continue
            stack: List[Tuple[SubjectNode, int]] = [(root, 0)]
            while stack:
                node, idx = stack[-1]
                if idx < len(node.fanins):
                    stack[-1] = (node, idx + 1)
                    child = node.fanins[idx]
                    if child.uid not in done and all(
                        s[0] is not child for s in stack
                    ):
                        stack.append((child, 0))
                else:
                    stack.pop()
                    if node.uid not in done:
                        done.add(node.uid)
                        order.append(node)
        return order

    def transitive_fanin(self, roots: Iterable[SubjectNode]) -> Set[SubjectNode]:
        """All nodes in the transitive fanin of ``roots`` (roots included)."""
        seen: Set[SubjectNode] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(node.fanins)
        return seen

    def sweep_dangling(self) -> int:
        """Remove gates with no path to a primary output; returns count removed."""
        live = self.transitive_fanin(self.primary_outputs)
        dead = [n for n in self._nodes if (n.is_gate or n.is_constant) and n not in live]
        dead_set = set(dead)
        for node in dead:
            for f in node.fanins:
                f.fanouts.remove(node)
            del self._by_name[node.name]
        self._nodes = [n for n in self._nodes if n not in dead_set]
        self._nand_cache = {
            k: v for k, v in self._nand_cache.items() if v not in dead_set
        }
        self._inv_cache = {
            k: v for k, v in self._inv_cache.items() if v not in dead_set
        }
        self._const = {k: v for k, v in self._const.items() if v not in dead_set}
        return len(dead)

    # -- structure queries used by the mappers ------------------------------------

    def cone_nodes(self, po: SubjectNode) -> Set[SubjectNode]:
        """The logic cone K_i of a primary output: its transitive fanin gates."""
        cone = self.transitive_fanin([po])
        return {n for n in cone if n.is_gate}

    def check(self) -> None:
        """Validate structural invariants; raises ``ValueError`` on breakage."""
        for node in self._nodes:
            expected = {
                SubjectNodeType.PRIMARY_INPUT: 0,
                SubjectNodeType.PRIMARY_OUTPUT: 1,
                SubjectNodeType.NAND2: 2,
                SubjectNodeType.INV: 1,
                SubjectNodeType.CONST0: 0,
                SubjectNodeType.CONST1: 0,
            }[node.type]
            if len(node.fanins) != expected:
                raise ValueError(
                    f"{node.name}: {node.type.value} with {len(node.fanins)} fanins"
                )
            for f in node.fanins:
                if node not in f.fanouts:
                    raise ValueError(f"{node.name}: missing fanout backlink on {f.name}")
            for g in node.fanouts:
                if node not in g.fanins:
                    raise ValueError(f"{node.name}: fanout {g.name} lacks fanin link")

    def stats(self) -> Dict[str, int]:
        counts = {t: 0 for t in SubjectNodeType}
        for n in self._nodes:
            counts[n.type] += 1
        return {
            "inputs": counts[SubjectNodeType.PRIMARY_INPUT],
            "outputs": counts[SubjectNodeType.PRIMARY_OUTPUT],
            "nand2": counts[SubjectNodeType.NAND2],
            "inv": counts[SubjectNodeType.INV],
            "gates": counts[SubjectNodeType.NAND2] + counts[SubjectNodeType.INV],
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SubjectGraph({self.name!r}, pi={s['inputs']}, po={s['outputs']}, "
            f"nand2={s['nand2']}, inv={s['inv']})"
        )
