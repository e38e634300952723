"""Placement state shared by Lily's cost hooks.

Keeps, for every subject node, the *placePosition* (from the balanced
global placement of the inchoate network, Section 3.1) and — once known —
the *mapPosition* of the gate implementing it (committed hawks, or the
tentative constructive position stored with a DP solution).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.geometry import Point, Rect
from repro.network.subject import SubjectGraph, SubjectNode

__all__ = ["PlacementState"]


class PlacementState:
    """Positions of subject nodes during mapping.

    Args:
        region: the layout image.
        place_positions: subject node name -> global-placement position
            (gates) — PIs and POs come from ``pad_positions``.
        pad_positions: terminal name -> pad position.
    """

    def __init__(
        self,
        region: Rect,
        place_positions: Dict[str, Point],
        pad_positions: Dict[str, Point],
    ) -> None:
        self.region = region
        self._place: Dict[int, Point] = {}
        self._place_by_name = dict(place_positions)
        self._pads = dict(pad_positions)
        self._map: Dict[int, Point] = {}

    def bind(self, graph: SubjectGraph) -> None:
        """Resolve name-keyed positions to node uids for fast lookup."""
        center = self.region.center
        for node in graph.nodes:
            if node.is_gate or node.is_constant:
                p = self._place_by_name.get(node.name, center)
                self._place[node.uid] = p
            elif node.is_pi or node.is_po:
                self._place[node.uid] = self._pads.get(node.name, center)

    # -- placePositions ------------------------------------------------------

    def place_position(self, node: SubjectNode) -> Point:
        """The node's global-placement position (pads for terminals)."""
        return self._place[node.uid]

    def set_place_position(self, node: SubjectNode, p: Point) -> None:
        """Move the node's placePosition (a re-place of the network)."""
        self._place[node.uid] = p

    # -- mapPositions ---------------------------------------------------------

    def map_position(self, node: SubjectNode) -> Optional[Point]:
        """The committed gate's mapPosition, or ``None`` before commit."""
        return self._map.get(node.uid)

    def set_map_position(self, node: SubjectNode, p: Point) -> None:
        """Record the mapPosition of the gate committed at ``node``."""
        self._map[node.uid] = p

    def best_position(self, node: SubjectNode) -> Point:
        """mapPosition when the node has one, otherwise placePosition."""
        return self._map.get(node.uid, self._place[node.uid])
