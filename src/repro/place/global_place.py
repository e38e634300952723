"""GORDIAN-style global placement (Section 3.1).

Alternates quadratic optimisation with recursive bi-partitioning: the
unconstrained quadratic solution captures the connectivity structure, then
cells are recursively split into regions (area-weighted median on the
coordinate, optionally refined by FM min-cut) and re-solved with springs
anchoring every cell to its region centre.  Partitioning stops when each
region holds at most ``min_cells_per_region`` cells — the paper's
"user-specified parameter" (a limit of one would be a detailed placement).

The result is the *balanced point placement* Lily needs: gates uniformly
distributed over the image, no over- or under-subscribed subregions, pads
fixed on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry import Point, Rect
from repro.obs import OBS
from repro.place.fm import fm_bipartition
from repro.place.hypergraph import PlacementNetlist
from repro.place.quadratic import QuadraticSystem

__all__ = ["GlobalPlacement", "GlobalPlacer"]


@dataclass
class GlobalPlacement:
    """Result of global placement."""

    positions: Dict[str, Point]
    region: Rect
    leaf_regions: List[Rect] = field(default_factory=list)
    assignment: Dict[str, int] = field(default_factory=dict)

    def occupancies(self, sizes: Dict[str, float]) -> List[float]:
        """Total cell area per leaf region (balance diagnostics)."""
        occupancy = [0.0] * len(self.leaf_regions)
        for name, region_index in self.assignment.items():
            occupancy[region_index] += sizes.get(name, 1.0)
        return occupancy


class GlobalPlacer:
    """Quadratic placement + recursive bi-partitioning.

    Args:
        min_cells_per_region: stop splitting below this occupancy.
        use_fm: refine each geometric split with an FM min-cut pass.
        anchor_base: spring weight pulling cells to region centres; doubled
            every partitioning level so regions consolidate.
        max_levels: hard bound on partitioning depth.
        vec: assemble the quadratic system with the struct-of-arrays
            kernels (bitwise-identical matrix; ``PerfOptions.vec_place``).
    """

    def __init__(
        self,
        min_cells_per_region: int = 8,
        use_fm: bool = True,
        anchor_base: float = 0.05,
        max_levels: int = 10,
        vec: bool = True,
    ) -> None:
        self.min_cells_per_region = min_cells_per_region
        self.use_fm = use_fm
        self.anchor_base = anchor_base
        self.max_levels = max_levels
        self.vec = vec

    def place(self, netlist: PlacementNetlist, region: Rect) -> GlobalPlacement:
        """Produce a balanced point placement of all movable cells."""
        netlist.check()
        if not netlist.movables:
            return GlobalPlacement({}, region, [region], {})
        cell_nets = _cell_net_ids(netlist)
        # One cached assembly serves every partitioning level: anchors
        # only touch the diagonal/rhs, so each level's re-solve skips the
        # net traversal while building a bitwise-identical system.
        with OBS.span("place.quadratic", cells=len(netlist.movables)):
            system = QuadraticSystem(netlist, region, vec=self.vec)
            positions = system.solve()
        if OBS.enabled:
            OBS.metrics.counter("place.quadratic_solves").inc()
        partitions: List[Tuple[Rect, List[str]]] = [
            (region, list(netlist.movables))
        ]
        levels_run = 0
        for level in range(self.max_levels):
            if all(
                len(cells) <= self.min_cells_per_region
                for _rect, cells in partitions
            ):
                break
            partitions = self._split_level(partitions, netlist, cell_nets,
                                           positions, level)
            levels_run = level + 1
            anchor_weight = self.anchor_base * (2.0 ** level)
            anchors = {}
            for rect, cells in partitions:
                center = rect.center
                for cell in cells:
                    anchors[cell] = (center, anchor_weight)
            with OBS.span("place.quadratic", level=level,
                          partitions=len(partitions)):
                positions = system.solve(anchors=anchors)
            if OBS.enabled:
                OBS.metrics.counter("place.quadratic_solves").inc()
        if OBS.enabled:
            OBS.metrics.counter("place.partitions").inc(len(partitions))
            OBS.metrics.gauge("place.levels").set(levels_run)

        final: Dict[str, Point] = {}
        assignment: Dict[str, int] = {}
        leaf_regions: List[Rect] = []
        for region_index, (rect, cells) in enumerate(partitions):
            leaf_regions.append(rect)
            for cell in cells:
                p = positions[cell]
                final[cell] = Point(
                    min(max(p.x, rect.lx), rect.ux),
                    min(max(p.y, rect.ly), rect.uy),
                )
                assignment[cell] = region_index
        return GlobalPlacement(final, region, leaf_regions, assignment)

    # -- partitioning -------------------------------------------------------

    def _split_level(
        self,
        partitions: List[Tuple[Rect, List[str]]],
        netlist: PlacementNetlist,
        cell_nets: Dict[str, List[int]],
        positions: Dict[str, Point],
        level: int,
    ) -> List[Tuple[Rect, List[str]]]:
        out: List[Tuple[Rect, List[str]]] = []
        for rect, cells in partitions:
            if len(cells) <= self.min_cells_per_region:
                out.append((rect, cells))
                continue
            out.extend(self._split_region(rect, cells, netlist, cell_nets,
                                          positions))
        return out

    def _split_region(
        self,
        rect: Rect,
        cells: List[str],
        netlist: PlacementNetlist,
        cell_nets: Dict[str, List[int]],
        positions: Dict[str, Point],
    ) -> List[Tuple[Rect, List[str]]]:
        """Split one region in two along its longer dimension."""
        vertical_cut = rect.width >= rect.height  # cut x if wide
        coordinate = (
            (lambda c: positions[c].x) if vertical_cut else (lambda c: positions[c].y)
        )
        ordered = sorted(cells, key=lambda c: (coordinate(c), c))
        sizes = netlist.sizes
        total = sum(sizes.get(c, 1.0) for c in cells)
        # Area-weighted median split.
        acc = 0.0
        split_at = len(ordered) // 2
        for i, cell in enumerate(ordered):
            acc += sizes.get(cell, 1.0)
            if acc >= total / 2.0:
                split_at = min(max(i + 1, 1), len(ordered) - 1)
                break
        low_cells = ordered[:split_at]
        high_cells = ordered[split_at:]

        if self.use_fm and len(cells) >= 8:
            with OBS.span("place.fm", cells=len(cells)):
                low_cells, high_cells = self._refine_split(
                    low_cells, high_cells, netlist, cell_nets, positions,
                    vertical_cut,
                )
            if not low_cells or not high_cells:
                low_cells, high_cells = ordered[:split_at], ordered[split_at:]

        low_area = sum(sizes.get(c, 1.0) for c in low_cells)
        ratio = low_area / total if total > 0 else 0.5
        ratio = min(max(ratio, 0.2), 0.8)
        if vertical_cut:
            cut = rect.lx + rect.width * ratio
            low_rect = Rect(rect.lx, rect.ly, cut, rect.uy)
            high_rect = Rect(cut, rect.ly, rect.ux, rect.uy)
        else:
            cut = rect.ly + rect.height * ratio
            low_rect = Rect(rect.lx, rect.ly, rect.ux, cut)
            high_rect = Rect(rect.lx, cut, rect.ux, rect.uy)
        return [(low_rect, low_cells), (high_rect, high_cells)]

    def _refine_split(
        self,
        low_cells: List[str],
        high_cells: List[str],
        netlist: PlacementNetlist,
        cell_nets: Dict[str, List[int]],
        positions: Dict[str, Point],
        vertical_cut: bool,
    ) -> Tuple[List[str], List[str]]:
        """FM refinement of a geometric split.

        The region's nets are those holding one of its cells, found from
        ``cell_nets`` and visited in netlist order.  Pins outside the
        region (other cells and pads) are fixed on the side their current
        position suggests.
        """
        cells = sorted(low_cells + high_cells)
        cut_coord = _mean_boundary(positions, low_cells, high_cells, vertical_cut)
        initial: Dict[str, int] = {}
        for c in low_cells:
            initial[c] = 0
        for c in high_cells:
            initial[c] = 1

        net_ids = set()
        for c in cells:
            net_ids.update(cell_nets[c])
        nets = netlist.nets
        relevant_nets: List[List[str]] = []
        for net_id in sorted(net_ids):
            net = nets[net_id]
            relevant_nets.append(net)
            for pin in net:
                if pin in initial:
                    continue
                p = netlist.fixed.get(pin) or positions.get(pin)
                if p is None:
                    continue
                value = p.x if vertical_cut else p.y
                initial[pin] = 0 if value <= cut_coord else 1
        if OBS.enabled:
            OBS.metrics.counter("place.fm_refinements").inc()
            OBS.metrics.counter("place.fm_nets").inc(len(relevant_nets))
            OBS.metrics.counter("place.fm_cells").inc(len(cells))

        refined = fm_bipartition(
            cells,
            relevant_nets,
            initial,
            sizes=netlist.sizes,
            balance_tolerance=0.1,
            max_passes=2,
        )
        new_low = [c for c in cells if refined[c] == 0]
        new_high = [c for c in cells if refined[c] == 1]
        return new_low, new_high


def _cell_net_ids(netlist: PlacementNetlist) -> Dict[str, List[int]]:
    """Movable cell -> ids of the nets it is a pin of, ascending."""
    cell_nets: Dict[str, List[int]] = {c: [] for c in netlist.movables}
    for net_id, net in enumerate(netlist.nets):
        for pin in net:
            ids = cell_nets.get(pin)
            if ids is not None and (not ids or ids[-1] != net_id):
                ids.append(net_id)
    return cell_nets


def _mean_boundary(positions, low_cells, high_cells, vertical_cut) -> float:
    """Coordinate of the split line between the two cell groups."""
    def value(cell: str) -> float:
        p = positions[cell]
        return p.x if vertical_cut else p.y

    low_max = max(value(c) for c in low_cells)
    high_min = min(value(c) for c in high_cells)
    return (low_max + high_min) / 2.0
