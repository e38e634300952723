"""A placement-neutral netlist view.

Both the inchoate subject graph (placed before mapping, Section 3.1) and
the mapped netlist (placed by the detailed placer) are reduced to the same
hypergraph form: movable cells with sizes, fixed terminals with positions,
and multi-pin nets over both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.geometry import Point

__all__ = ["PlacementNetlist", "subject_netlist", "mapped_netlist"]


@dataclass
class PlacementNetlist:
    """Hypergraph input to the placers.

    Attributes:
        movables: cell names, in a stable order.
        sizes: cell name -> area (used by the detailed placer's rows).
        nets: each net is a list of cell/terminal names (2+ pins).
        fixed: terminal name -> position (pads, pre-placed gates).
    """

    movables: List[str] = field(default_factory=list)
    sizes: Dict[str, float] = field(default_factory=dict)
    nets: List[List[str]] = field(default_factory=list)
    fixed: Dict[str, Point] = field(default_factory=dict)

    def check(self) -> None:
        """Validate the netlist; raises ``ValueError`` on breakage.

        Movable names must be unique and disjoint from the fixed
        terminals, and every net pin must name one of the two.
        """
        movable_set = set(self.movables)
        if len(movable_set) != len(self.movables):
            raise ValueError("duplicate movable names")
        overlap = movable_set & set(self.fixed)
        if overlap:
            raise ValueError(f"cells both movable and fixed: {sorted(overlap)[:5]}")
        known = movable_set | set(self.fixed)
        for net in self.nets:
            for name in net:
                if name not in known:
                    raise ValueError(f"net references unknown cell {name!r}")

    @property
    def num_movable(self) -> int:
        """Number of movable cells."""
        return len(self.movables)


def subject_netlist(graph, pad_positions: Dict[str, Point]) -> PlacementNetlist:
    """Hypergraph of the inchoate network: base gates movable, pads fixed.

    Every NAND2/INV gate is movable with unit size; primary inputs and
    outputs are fixed at their pad positions.  One net per driver (gate or
    PI) collecting all its sinks.
    """
    netlist = PlacementNetlist()
    for node in graph.nodes:
        if node.is_gate:
            netlist.movables.append(node.name)
            netlist.sizes[node.name] = 1.0
        elif node.is_pi or node.is_po:
            position = pad_positions.get(node.name)
            if position is None:
                raise KeyError(f"no pad position for {node.name!r}")
            netlist.fixed[node.name] = position
    for node in graph.nodes:
        if node.is_po or node.is_constant:
            continue
        sinks = [s.name for s in node.fanouts if not s.is_constant]
        if node.is_pi and not sinks:
            continue
        if sinks:
            netlist.nets.append([node.name] + sinks)
    netlist.check()
    return netlist


def network_netlist(net, pad_positions: Dict[str, Point]) -> PlacementNetlist:
    """Hypergraph of a *source* Boolean network (pre-decomposition).

    Used by the layout-driven decomposition extension: SOP nodes are
    movable (sized by literal count), terminals fixed at their pads.
    """
    netlist = PlacementNetlist()
    for node in net.nodes:
        if node.is_internal:
            netlist.movables.append(node.name)
            netlist.sizes[node.name] = max(node.function.num_literals, 1)
        elif node.is_pi or node.is_po:
            position = pad_positions.get(node.name)
            if position is None:
                raise KeyError(f"no pad position for {node.name!r}")
            netlist.fixed[node.name] = position
    for node in net.nodes:
        if node.is_po:
            continue
        sinks = [s.name for s in node.fanouts]
        if sinks:
            netlist.nets.append([node.name] + sinks)
    netlist.check()
    return netlist


def mapped_netlist(mapped, pad_positions: Dict[str, Point]) -> PlacementNetlist:
    """Hypergraph of a mapped netlist: gate instances movable, pads fixed."""
    netlist = PlacementNetlist()
    for node in mapped.nodes:
        if node.is_gate:
            netlist.movables.append(node.name)
            netlist.sizes[node.name] = node.cell.area
        elif node.is_pi or node.is_po:
            position = pad_positions.get(node.name)
            if position is None:
                raise KeyError(f"no pad position for {node.name!r}")
            netlist.fixed[node.name] = position
    for net in mapped.nets():
        if net.driver.is_constant:
            continue
        names = [net.driver.name] + [node.name for node, _pin in net.sinks
                                     if not node.is_constant]
        if len(names) >= 2:
            netlist.nets.append(names)
    netlist.check()
    return netlist
