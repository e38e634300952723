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

The placer indexes the netlist once and then works on integer ids:
movables ``0..n-1`` in ``netlist.movables`` order (the quadratic system's
index order), fixed terminals after them, nets as id lists.  Positions
stay in coordinate arrays between levels, each level's anchors go into
the solve as arrays, and the name-keyed :class:`GlobalPlacement` is
built once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from repro.geometry import Point, Rect
from repro.obs import OBS
from repro.place.fm import fm_refine
from repro.place.hypergraph import PlacementNetlist
from repro.place.quadratic import QuadraticSystem

__all__ = ["GlobalPlacement", "GlobalPlacer"]

#: Spring weight pulling cells to their region centres at the first
#: partitioning level; it doubles every level so regions consolidate.
ANCHOR_BASE = 0.05

#: Hard bound on partitioning depth.
MAX_LEVELS = 10


@dataclass
class GlobalPlacement:
    """Result of global placement."""

    positions: Dict[str, Point]
    region: Rect
    leaf_regions: List[Rect] = field(default_factory=list)
    assignment: Dict[str, int] = field(default_factory=dict)


class GlobalPlacer:
    """Quadratic placement + recursive bi-partitioning.

    Args:
        min_cells_per_region: stop splitting below this occupancy.

    Each geometric split of a region of eight or more cells is refined
    by an FM min-cut pass.  Splitting stops after :data:`MAX_LEVELS`
    levels even if a region still holds more than
    ``min_cells_per_region`` cells.
    """

    def __init__(self, min_cells_per_region: int = 8) -> None:
        self.min_cells_per_region = min_cells_per_region

    def place(self, netlist: PlacementNetlist, region: Rect) -> GlobalPlacement:
        """Produce a balanced point placement of all movable cells."""
        netlist.check()
        if not netlist.movables:
            return GlobalPlacement({}, region, [region], {})
        index = _NetlistIndex(netlist)
        n = len(netlist.movables)
        # One cached assembly serves every partitioning level: anchors
        # only touch the diagonal/rhs, so each level's re-solve skips the
        # net traversal while building a bitwise-identical system.
        with OBS.span("place.quadratic", cells=n):
            system = QuadraticSystem(netlist, region)
            xs, ys = system.solve_arrays()
        if OBS.enabled:
            OBS.metrics.counter("place.quadratic_solves").inc()
        partitions: List[Tuple[Rect, List[int]]] = [(region, list(range(n)))]
        levels_run = 0
        for level in range(MAX_LEVELS):
            if all(
                len(cells) <= self.min_cells_per_region
                for _rect, cells in partitions
            ):
                break
            partitions = self._split_level(partitions, index,
                                           index.axes(xs, ys, region))
            levels_run = level + 1
            anchor_weight = ANCHOR_BASE * (2.0 ** level)
            anchor_x, anchor_y = _region_centers(partitions, n)
            with OBS.span("place.quadratic", level=level,
                          partitions=len(partitions)):
                xs, ys = system.solve_arrays(anchor_weight, anchor_x,
                                             anchor_y)
            if OBS.enabled:
                OBS.metrics.counter("place.quadratic_solves").inc()
        if OBS.enabled:
            OBS.metrics.counter("place.partitions").inc(len(partitions))
            OBS.metrics.gauge("place.levels").set(levels_run)
            # One sample per leaf: a leaf over min_cells_per_region
            # means MAX_LEVELS stopped the splitting, not occupancy.
            leaf_cells = OBS.metrics.histogram("place.leaf_cells")
            for _rect, cells in partitions:
                leaf_cells.observe(len(cells))

        # The result outlives the index and the system: free them first,
        # so its objects can fill their memory (a second placement in the
        # same process then peaks lower).
        del index, system
        # Clip into the image, then into the leaf, one cell at a time:
        # Python's min/max keep each bound's type and each zero's sign.
        xs = xs.tolist()
        ys = ys.tolist()
        names = netlist.movables
        final: Dict[str, Point] = {}
        assignment: Dict[str, int] = {}
        leaf_regions: List[Rect] = []
        for region_index, (rect, cells) in enumerate(partitions):
            leaf_regions.append(rect)
            for cell in cells:
                x = float(min(max(xs[cell], region.lx), region.ux))
                y = float(min(max(ys[cell], region.ly), region.uy))
                name = names[cell]
                final[name] = Point(
                    min(max(x, rect.lx), rect.ux),
                    min(max(y, rect.ly), rect.uy),
                )
                assignment[name] = region_index
        return GlobalPlacement(final, region, leaf_regions, assignment)

    # -- partitioning -------------------------------------------------------

    def _split_level(
        self,
        partitions: List[Tuple[Rect, List[int]]],
        index: "_NetlistIndex",
        axes,
    ) -> List[Tuple[Rect, List[int]]]:
        out: List[Tuple[Rect, List[int]]] = []
        for rect, cells in partitions:
            if len(cells) <= self.min_cells_per_region:
                out.append((rect, cells))
                continue
            out.extend(self._split_region(rect, cells, index, axes))
        return out

    def _split_region(
        self,
        rect: Rect,
        cells: List[int],
        index: "_NetlistIndex",
        axes,
    ) -> List[Tuple[Rect, List[int]]]:
        """Split one region in two along its longer dimension."""
        vertical_cut = rect.width >= rect.height  # cut x if wide
        coordinate, order = axes[0] if vertical_cut else axes[1]
        ordered = sorted(cells, key=order.__getitem__)
        size = index.size
        total = sum([size[c] for c in cells])
        # Area-weighted median split.
        acc = 0.0
        split_at = len(ordered) // 2
        for i, cell in enumerate(ordered):
            acc += size[cell]
            if acc >= total / 2.0:
                split_at = min(max(i + 1, 1), len(ordered) - 1)
                break
        low_cells = ordered[:split_at]
        high_cells = ordered[split_at:]

        if len(cells) >= 8:
            with OBS.span("place.fm", cells=len(cells)):
                low_cells, high_cells = self._refine_split(
                    low_cells, high_cells, index, coordinate)
            if not low_cells or not high_cells:
                low_cells, high_cells = ordered[:split_at], ordered[split_at:]

        low_area = sum([size[c] for c in low_cells])
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
        low_cells: List[int],
        high_cells: List[int],
        index: "_NetlistIndex",
        coordinate: List[float],
    ) -> Tuple[List[int], List[int]]:
        """FM refinement of a geometric split.

        Both halves arrive sorted by ``coordinate``, so the split line
        lies midway between the last low cell and the first high one.
        FM sees the region's cells as local ids in name order and each
        net holding one of them once.  Pins outside the region (other
        cells and pads) are fixed on the side their current position
        suggests.
        """
        cells = sorted(low_cells + high_cells, key=index.rank.__getitem__)
        cut_coord = (coordinate[low_cells[-1]]
                     + coordinate[high_cells[0]]) / 2.0
        local = index.local
        for i, cell in enumerate(cells):
            local[cell] = i
        side = [0] * len(cells)
        for cell in high_cells:
            side[local[cell]] = 1

        index.refinements += 1
        stamp = index.refinements
        seen = index.net_seen
        net_pins = index.nets
        cell_nets = index.cell_nets
        nets: List[List[int]] = []
        count0: List[int] = []
        count1: List[int] = []
        for cell in cells:
            for net in cell_nets[cell]:
                if seen[net] == stamp:
                    continue
                seen[net] = stamp
                pins: List[int] = []
                low = high = 0
                for pin in net_pins[net]:
                    i = local[pin]
                    if i >= 0:
                        pins.append(i)
                    elif coordinate[pin] <= cut_coord:
                        low += 1
                    else:
                        high += 1
                nets.append(pins)
                count0.append(low)
                count1.append(high)
        size = index.size
        moves, updates = fm_refine(
            side, [size[c] for c in cells], nets, count0, count1,
            balance_tolerance=0.1, max_passes=2,
        )
        for cell in cells:
            local[cell] = -1
        if OBS.enabled:
            metrics = OBS.metrics
            metrics.counter("place.fm_refinements").inc()
            metrics.counter("place.fm_nets").inc(len(nets))
            metrics.counter("place.fm_cells").inc(len(cells))
            metrics.counter("place.fm_moves").inc(moves)
            metrics.counter("place.fm_gain_updates").inc(updates)
        new_low = [c for c, s in zip(cells, side) if s == 0]
        new_high = [c for c, s in zip(cells, side) if s == 1]
        return new_low, new_high


class _NetlistIndex:
    """Integer view of a placement netlist, built once per placement.

    Movables are ids ``0..n-1`` in ``netlist.movables`` order; fixed
    terminals follow in ``netlist.fixed`` order.

    Attributes:
        rank: per movable, its position in name order, so sorting by
            rank is sorting by name.
        size: per movable, its area (``sizes.get(name, 1.0)``).
        nets: each net as a list of pin ids, repeats kept.
        cell_nets: per movable, the ids of the nets it is a pin of,
            ascending, each once.
        local: FM scratch, movable id -> id within the region being
            refined; -1 outside it (always for fixed terminals).
        net_seen: FM scratch, net -> the number of the last refinement
            that took it (``refinements`` counts them).
    """

    def __init__(self, netlist: PlacementNetlist) -> None:
        movables = netlist.movables
        n = len(movables)
        ids = {name: i for i, name in enumerate(movables)}
        for name in netlist.fixed:
            ids[name] = len(ids)
        self.rank = [0] * n
        for r, cell in enumerate(sorted(range(n), key=movables.__getitem__)):
            self.rank[cell] = r
        sizes = netlist.sizes
        self.size = [sizes.get(name, 1.0) for name in movables]
        self.nets = [[ids[pin] for pin in net] for net in netlist.nets]
        self.cell_nets: List[List[int]] = [[] for _ in range(n)]
        for net_id, pins in enumerate(self.nets):
            for pin in pins:
                if pin < n:
                    nets_of_cell = self.cell_nets[pin]
                    if not nets_of_cell or nets_of_cell[-1] != net_id:
                        nets_of_cell.append(net_id)
        fixed = netlist.fixed.values()
        self._fixed_x = [p.x for p in fixed]
        self._fixed_y = [p.y for p in fixed]
        self.local = [-1] * len(ids)
        self.net_seen = [0] * len(self.nets)
        self.refinements = 0

    def axes(self, xs: np.ndarray, ys: np.ndarray, region: Rect):
        """Per axis, ``(coordinate, order)`` for one partitioning level.

        ``coordinate`` holds every pin's coordinate: the solution clipped
        into the region for movables, then the fixed terminals.
        ``order`` is each movable's position when all are sorted by
        (coordinate, name), so sorting a region's cells by it sorts them
        by (coordinate, name).
        """
        out = []
        for values, lo, hi, fixed in (
            (xs, region.lx, region.ux, self._fixed_x),
            (ys, region.ly, region.uy, self._fixed_y),
        ):
            clipped = np.minimum(np.maximum(values, lo), hi)
            order = np.empty(len(clipped), dtype=np.int64)
            order[np.lexsort((self.rank, clipped))] = np.arange(len(clipped))
            out.append((clipped.tolist() + fixed, order.tolist()))
        return out


def _region_centers(
    partitions: List[Tuple[Rect, List[int]]], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per movable, the centre of its region: the level's anchor points."""
    centers = [rect.center for rect, _cells in partitions]
    counts = [len(cells) for _rect, cells in partitions]
    cells = list(chain.from_iterable(cells for _rect, cells in partitions))
    anchor_x = np.empty(n)
    anchor_y = np.empty(n)
    anchor_x[cells] = np.repeat([p.x for p in centers], counts)
    anchor_y[cells] = np.repeat([p.y for p in centers], counts)
    return anchor_x, anchor_y
