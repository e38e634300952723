"""The mapped netlist: library-gate instances produced by technology mapping.

``N_mapped`` mirrors the protocol of the source network (``is_pi``/``is_po``,
``fanins``, ``truth_table()``) so the same simulator verifies equivalence,
and adds what the physical-design substrates need: gate cells, positions and
net extraction (one net per driver, with sink pins and their capacitances).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.geometry import Point
from repro.library.cell import Cell
from repro.network.logic import TruthTable

__all__ = ["MappedNodeKind", "MappedNode", "Net", "MappedNetwork"]


class MappedNodeKind(enum.Enum):
    """What a :class:`MappedNode` is: port, gate instance or constant."""

    PRIMARY_INPUT = "pi"
    PRIMARY_OUTPUT = "po"
    GATE = "gate"
    CONSTANT = "const"


class MappedNode:
    """A gate instance, I/O port or constant source in the mapped netlist."""

    __slots__ = ("name", "kind", "cell", "fanins", "fanouts", "position",
                 "const_value", "arrival")

    def __init__(
        self,
        name: str,
        kind: MappedNodeKind,
        cell: Optional[Cell] = None,
        fanins: Sequence["MappedNode"] = (),
        const_value: Optional[bool] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.cell = cell
        self.fanins: List[MappedNode] = list(fanins)
        self.fanouts: List[MappedNode] = []
        #: Physical location (pads and placed gates); ``None`` until placed.
        self.position: Optional[Point] = None
        self.const_value = const_value
        #: Worst-case output arrival time, filled in by the STA.
        self.arrival: Optional[float] = None

    @property
    def is_pi(self) -> bool:
        """Whether the node is a primary input port."""
        return self.kind is MappedNodeKind.PRIMARY_INPUT

    @property
    def is_po(self) -> bool:
        """Whether the node is a primary output port."""
        return self.kind is MappedNodeKind.PRIMARY_OUTPUT

    @property
    def is_gate(self) -> bool:
        """Whether the node is a library-gate instance."""
        return self.kind is MappedNodeKind.GATE

    @property
    def is_constant(self) -> bool:
        """Whether the node is a constant source."""
        return self.kind is MappedNodeKind.CONSTANT

    @property
    def area(self) -> float:
        """Cell area of a gate instance; 0 for ports and constants."""
        return self.cell.area if self.cell is not None else 0.0

    def truth_table(self) -> TruthTable:
        """Local function over ordered fanins (simulation protocol)."""
        if self.is_gate:
            return self.cell.truth_table
        if self.is_constant:
            return TruthTable.constant(bool(self.const_value))
        raise ValueError(f"{self.kind} node has no local function")

    def input_pin_cap(self, fanin_index: int) -> float:
        """Capacitance the pin fed by ``fanins[fanin_index]`` presents."""
        if self.is_gate:
            return self.cell.pins[fanin_index].input_cap
        return 0.0  # output pads are treated as capacitance-free

    def __repr__(self) -> str:
        cell = f", {self.cell.name}" if self.cell else ""
        return f"MappedNode({self.name!r}, {self.kind.value}{cell})"


@dataclass
class Net:
    """One electrical net: a driver and its sink (node, pin-index) pairs."""

    driver: MappedNode
    sinks: List[Tuple[MappedNode, int]] = field(default_factory=list)

    @property
    def name(self) -> str:
        """A net is named after its driver."""
        return self.driver.name

    @property
    def num_pins(self) -> int:
        """Driver plus sink pins."""
        return 1 + len(self.sinks)

    def pin_positions(self) -> List[Point]:
        """Positions of all placed pins on the net (point gate model)."""
        positions = []
        if self.driver.position is not None:
            positions.append(self.driver.position)
        for node, _pin in self.sinks:
            if node.position is not None:
                positions.append(node.position)
        return positions


class MappedNetwork:
    """A technology-mapped circuit: DAG of library-gate instances."""

    def __init__(self, name: str = "mapped") -> None:
        self.name = name
        self._nodes: Dict[str, MappedNode] = {}
        self.primary_inputs: List[MappedNode] = []
        self.primary_outputs: List[MappedNode] = []

    # -- construction -----------------------------------------------------

    def _register(self, node: MappedNode) -> MappedNode:
        if node.name in self._nodes:
            raise ValueError(f"duplicate mapped node name: {node.name!r}")
        self._nodes[node.name] = node
        for f in node.fanins:
            f.fanouts.append(node)
        return node

    def add_primary_input(self, name: str) -> MappedNode:
        """Add an input port; raises ``ValueError`` on a duplicate name."""
        node = self._register(MappedNode(name, MappedNodeKind.PRIMARY_INPUT))
        self.primary_inputs.append(node)
        return node

    def add_gate(
        self, name: str, cell: Cell, fanins: Sequence[MappedNode]
    ) -> MappedNode:
        """Add an instance of ``cell`` whose pin ``i`` reads ``fanins[i]``."""
        if len(fanins) != cell.num_inputs:
            raise ValueError(
                f"gate {name!r}: {len(fanins)} fanins for "
                f"{cell.num_inputs}-input cell {cell.name!r}"
            )
        return self._register(
            MappedNode(name, MappedNodeKind.GATE, cell=cell, fanins=fanins)
        )

    def add_constant(self, name: str, value: bool) -> MappedNode:
        """Add a constant-``value`` source."""
        return self._register(
            MappedNode(name, MappedNodeKind.CONSTANT, const_value=value)
        )

    def add_primary_output(self, name: str, driver: MappedNode) -> MappedNode:
        """Add an output port driven by ``driver``."""
        node = self._register(
            MappedNode(name, MappedNodeKind.PRIMARY_OUTPUT, fanins=[driver])
        )
        self.primary_outputs.append(node)
        return node

    # -- lookup / traversal ---------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __getitem__(self, name: str) -> MappedNode:
        return self._nodes[name]

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[MappedNode]:
        """Every node, in insertion order."""
        return list(self._nodes.values())

    @property
    def gates(self) -> List[MappedNode]:
        """The gate instances, in insertion order."""
        return [n for n in self._nodes.values() if n.is_gate]

    def topological_order(self) -> List[MappedNode]:
        """Every node, fanins first; raises ``ValueError`` on a cycle."""
        order: List[MappedNode] = []
        done: Set[str] = set()
        for root in self._nodes.values():
            if root.name in done:
                continue
            stack: List[Tuple[MappedNode, int]] = [(root, 0)]
            on_stack = {root.name}
            while stack:
                node, idx = stack[-1]
                if idx < len(node.fanins):
                    stack[-1] = (node, idx + 1)
                    child = node.fanins[idx]
                    if child.name not in done:
                        if child.name in on_stack:
                            raise ValueError(
                                f"cycle in mapped netlist at {child.name!r}"
                            )
                        stack.append((child, 0))
                        on_stack.add(child.name)
                else:
                    stack.pop()
                    on_stack.discard(node.name)
                    if node.name not in done:
                        done.add(node.name)
                        order.append(node)
        return order

    def transitive_fanin(self, roots: Iterable[MappedNode]) -> Set[MappedNode]:
        """All nodes in the transitive fanin of ``roots`` (roots included)."""
        seen: Set[MappedNode] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(node.fanins)
        return seen

    # -- physical views ----------------------------------------------------------

    def nets(self) -> List[Net]:
        """One net per driver that has at least one sink."""
        nets: Dict[str, Net] = {}
        for node in self._nodes.values():
            for pin_index, fanin in enumerate(node.fanins):
                net = nets.get(fanin.name)
                if net is None:
                    net = Net(fanin)
                    nets[fanin.name] = net
                net.sinks.append((node, pin_index))
        return list(nets.values())

    def total_cell_area(self) -> float:
        """Total instance (active cell) area — Table 1's first metric."""
        return sum(g.area for g in self.gates)

    def cell_histogram(self) -> Dict[str, int]:
        """Instance count per cell name."""
        hist: Dict[str, int] = {}
        for g in self.gates:
            hist[g.cell.name] = hist.get(g.cell.name, 0) + 1
        return hist

    def check(self) -> None:
        """Validate structural invariants; raises ``ValueError`` on breakage."""
        for node in self._nodes.values():
            if node.is_gate and len(node.fanins) != node.cell.num_inputs:
                raise ValueError(f"gate {node.name}: fanin/pin count mismatch")
            if node.is_po and len(node.fanins) != 1:
                raise ValueError(f"PO {node.name}: needs exactly one driver")
            if node.is_pi and node.fanins:
                raise ValueError(f"PI {node.name}: must have no fanins")
            for f in node.fanins:
                if self._nodes.get(f.name) is not f:
                    raise ValueError(f"{node.name}: foreign fanin {f.name}")
                if node not in f.fanouts:
                    raise ValueError(
                        f"{node.name}: missing fanout backlink on {f.name}"
                    )
        self.topological_order()

    def stats(self) -> Dict[str, float]:
        """Port and gate counts and total cell area."""
        return {
            "inputs": len(self.primary_inputs),
            "outputs": len(self.primary_outputs),
            "gates": len(self.gates),
            "area": self.total_cell_area(),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"MappedNetwork({self.name!r}, gates={s['gates']}, "
            f"area={s['area']:.0f})"
        )
