"""Reference placement engines: the oracles of the production kernels.

:func:`anneal_reference` drives the production annealing loop with an
engine that re-folds every scored net from live positions and repacks
whole rows per swap; :func:`detailed_place_reference` runs the greedy
adjacent-swap pass the same way.  The cached engines of
``repro.place.anneal`` / ``repro.place.detailed`` must reproduce both
bit for bit: the same accept/reject sequence, the same placement.

:func:`fm_bipartition` and :class:`ReferencePlacer` are the string-keyed
FM and global placer that ``repro.place.fm`` and
``repro.place.global_place`` replaced: cells and nets by name, every
gain recomputed from the side counts after each move, one dict of
points per partitioning level, and each region's nets found by a scan
of every net.  The integer-id kernels must give the same sides, and the
same positions, assignment and leaf regions.

:func:`clique_edges` is the per-net edge expansion that
``repro.perf.vec.assemble_quadratic`` vectorizes, and
:func:`quadratic_objective` the wirelength the quadratic system
minimises, both in the production clique model.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry import Point, Rect
from repro.place.anneal import AnnealStats, _anneal
from repro.place.detailed import (
    DetailedPlacement,
    Row,
    _swap_in_row,
    detailed_place,
)
from repro.place.global_place import ANCHOR_BASE, MAX_LEVELS, GlobalPlacement
from repro.place.hypergraph import PlacementNetlist
from repro.place.quadratic import CLIQUE_STAR_LIMIT, QuadraticSystem, _solve_spd


def _net_hpwl(
    net: List[str], positions: Dict[str, Point], fixed: Dict[str, Point]
) -> float:
    """HPWL of one net from live positions (0.0 below two located pins)."""
    xs: List[float] = []
    ys: List[float] = []
    for pin in net:
        p = positions.get(pin) or fixed.get(pin)
        if p is None:
            continue
        xs.append(p.x)
        ys.append(p.y)
    if len(xs) < 2:
        return 0.0
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _repack_row(placement: DetailedPlacement, row: Row) -> None:
    x = 0.0
    for cell in row.cells:
        lo, hi = row.x_spans[cell]
        width = hi - lo
        row.x_spans[cell] = (x, x + width)
        placement.positions[cell] = Point(x + width / 2.0, row.y_center)
        x += width


class FullRecomputeAnneal:
    """The annealing-state protocol of ``_anneal`` with no caches.

    Every refreshed net is re-folded from live positions, every swap
    repacks its rows in full and row widths are re-derived per capacity
    check.
    """

    def __init__(
        self, placement: DetailedPlacement, netlist: PlacementNetlist
    ) -> None:
        self.placement = placement
        self.netlist = netlist
        self.cell_nets: Dict[str, List[int]] = {}
        for net_id, net in enumerate(netlist.nets):
            for pin in net:
                self.cell_nets.setdefault(pin, []).append(net_id)
        self.net_hpwl: List[float] = [
            _net_hpwl(net, placement.positions, netlist.fixed)
            for net in netlist.nets
        ]
        self.total = sum(self.net_hpwl)
        self.row_of: Dict[str, Row] = {}
        for row in placement.rows:
            for cell in row.cells:
                self.row_of[cell] = row
        self.widths = {
            cell: row.x_spans[cell][1] - row.x_spans[cell][0]
            for row in placement.rows
            for cell in row.cells
        }
        self.capacity = max(
            (row.width for row in placement.rows), default=0.0
        ) * 1.05

    def affected(self, cells: Tuple[str, ...]) -> List[int]:
        net_ids: List[int] = []
        for cell in cells:
            net_ids.extend(self.cell_nets.get(cell, []))
        return sorted(set(net_ids))

    def refresh(self, net_ids: List[int]) -> float:
        delta = 0.0
        for net_id in net_ids:
            new = _net_hpwl(self.netlist.nets[net_id],
                            self.placement.positions, self.netlist.fixed)
            delta += new - self.net_hpwl[net_id]
            self.net_hpwl[net_id] = new
        self.total += delta
        return delta

    def row_width(self, row: Row) -> float:
        return row.width

    def swap(self, a: str, b: str) -> None:
        row_a, row_b = self.row_of[a], self.row_of[b]
        ia = row_a.cells.index(a)
        ib = row_b.cells.index(b)
        row_a.cells[ia], row_b.cells[ib] = b, a
        wa, wb = self.widths[a], self.widths[b]
        span_a = row_a.x_spans.pop(a)
        span_b = row_b.x_spans.pop(b)
        row_a.x_spans[b] = (span_a[0], span_a[0] + wb)
        row_b.x_spans[a] = (span_b[0], span_b[0] + wa)
        self.row_of[a], self.row_of[b] = row_b, row_a
        _repack_row(self.placement, row_a)
        if row_b is not row_a:
            _repack_row(self.placement, row_b)


def anneal_reference(
    placement: DetailedPlacement,
    netlist: PlacementNetlist,
    seed: int = 0,
    moves_per_cell: int = 40,
    cooling: float = 0.92,
    min_acceptance: float = 0.015,
) -> AnnealStats:
    """``simulated_annealing`` scored by :class:`FullRecomputeAnneal`."""
    cells = [c for row in placement.rows for c in row.cells]
    stats = AnnealStats()
    if len(cells) < 2:
        return stats
    state = FullRecomputeAnneal(placement, netlist)
    _anneal(state, seed, moves_per_cell, cooling, min_acceptance, cells,
            stats)
    return stats


def swap_pass_reference(
    placement: DetailedPlacement, netlist: PlacementNetlist
) -> bool:
    """Greedy adjacent swaps, each scored by re-folding its nets."""
    cell_nets: Dict[str, List[int]] = {}
    for net_id, net in enumerate(netlist.nets):
        for pin in net:
            cell_nets.setdefault(pin, []).append(net_id)

    def cost(net_ids: List[int]) -> float:
        return sum(
            _net_hpwl(netlist.nets[i], placement.positions, netlist.fixed)
            for i in net_ids
        )

    improved = False
    for row in placement.rows:
        for k in range(len(row.cells) - 1):
            a, b = row.cells[k], row.cells[k + 1]
            affected = sorted(set(cell_nets.get(a, []) + cell_nets.get(b, [])))
            before = cost(affected)
            _swap_in_row(placement, row, k)
            if cost(affected) >= before:
                _swap_in_row(placement, row, k)  # undo
            else:
                improved = True
    return improved


def detailed_place_reference(
    netlist: PlacementNetlist,
    global_positions: Dict[str, Point],
    improvement_passes: int = 1,
) -> DetailedPlacement:
    """``detailed_place`` with :func:`swap_pass_reference` passes."""
    placement = detailed_place(netlist, global_positions,
                               improvement_passes=0)
    for _ in range(improvement_passes):
        if not swap_pass_reference(placement, netlist):
            break
    return placement


# -- FM and global placement by name ---------------------------------------


def cut_size(nets: Sequence[Sequence[str]], side: Dict[str, int]) -> int:
    """Number of nets with pins on both sides (free pins are ignored)."""
    cut = 0
    for net in nets:
        sides = {side[p] for p in net if p in side}
        if len(sides) > 1:
            cut += 1
    return cut


def fm_bipartition(
    cells: Sequence[str],
    nets: Sequence[Sequence[str]],
    initial_side: Dict[str, int],
    sizes: Optional[Dict[str, float]] = None,
    balance_tolerance: float = 0.1,
    max_passes: int = 4,
) -> Dict[str, int]:
    """Improve a bipartition's cut without violating area balance.

    Args:
        cells: movable cell names (pins in nets not listed here are fixed
            and simply contribute to net side counts).
        nets: hypergraph nets over cell names (and fixed terminal names).
        initial_side: starting side (0/1) for every cell *and* every fixed
            terminal appearing in the nets.
        sizes: cell areas (default 1.0 each).
        balance_tolerance: allowed deviation of either side's area from
            half the total, as a fraction of the total.
        max_passes: FM passes (each pass moves every cell at most once).

    Returns:
        The improved side assignment for the movable cells (fixed terminals
        keep their initial sides).
    """
    sizes = sizes or {}
    cell_set = set(cells)
    side = dict(initial_side)
    total_area = sum(sizes.get(c, 1.0) for c in cells)
    if total_area <= 0:
        return {c: side[c] for c in cells}
    # Classic FM feasibility: a side may hold half the area plus the
    # tolerance, but never less than half plus one largest cell (otherwise
    # no single move is ever legal on small instances).
    max_cell = max((sizes.get(c, 1.0) for c in cells), default=1.0)
    max_side_area = max(
        total_area * (0.5 + balance_tolerance),
        total_area / 2.0 + max_cell,
    )

    cell_nets: Dict[str, List[int]] = defaultdict(list)
    net_cells: List[List[str]] = [[] for _ in nets]
    for net_id, net in enumerate(nets):
        for pin in net:
            if pin in cell_set:
                cell_nets[pin].append(net_id)
                net_cells[net_id].append(pin)

    # Per-net side pin counts, maintained incrementally across passes: a
    # pass's tentative moves and its best-prefix rollback are balanced
    # integer updates, so after every pass the counts equal what a fresh
    # scan of ``side`` would rebuild.
    counts: List[List[int]] = []
    for net in nets:
        c = [0, 0]
        for pin in net:
            if pin in side:
                c[side[pin]] += 1
        counts.append(c)

    for _ in range(max_passes):
        improved = _fm_pass(
            cells, nets, cell_nets, net_cells, side, sizes, max_side_area,
            counts,
        )
        if not improved:
            break
    return {c: side[c] for c in cells}


def _gain(cell: str, nets, cell_nets, side, counts) -> int:
    """FM gain: nets uncut minus nets newly cut if the cell moves."""
    s = side[cell]
    gain = 0
    for net_id in cell_nets[cell]:
        same, other = counts[net_id][s], counts[net_id][1 - s]
        if same == 1:
            gain += 1  # moving removes this net from the cut
        if other == 0:
            gain -= 1  # moving puts this net into the cut
    return gain


def _fm_pass(
    cells, nets, cell_nets, net_cells, side, sizes, max_side_area, counts
) -> bool:
    """One FM pass; mutates ``side`` and ``counts``; returns True if the
    cut improved.

    Gains are computed once up front and refreshed incrementally: a
    cell's gain depends only on the pin counts of its own nets, so a
    move can change the gains of cells sharing a net with the moved
    cell and of no one else.  Selection pops a lazy max-heap keyed by
    ``(-gain, cell index)`` — the same winner as a linear scan with a
    strict ``>`` comparison (highest gain, earliest cell breaking
    ties), so every tie-break matches the naive implementation.  Stale
    heap entries (superseded gain, locked cell) are discarded on pop;
    feasible-balance checks happen at pop time, and cells that fail
    them are re-pushed for later steps once a winner is found.
    """
    side_area = [0.0, 0.0]
    for c in cells:
        side_area[side[c]] += sizes.get(c, 1.0)

    locked: Set[str] = set()
    moves: List[Tuple[str, int]] = []
    gain_total = 0
    best_prefix = 0
    best_gain = 0

    free = list(cells)
    rank = {c: i for i, c in enumerate(free)}
    gains: Dict[str, int] = {
        c: _gain(c, nets, cell_nets, side, counts) for c in free
    }
    heap: List[Tuple[int, int, str]] = [
        (-gains[c], i, c) for i, c in enumerate(free)
    ]
    heapq.heapify(heap)
    for _step in range(len(cells)):
        best_cell = None
        best_cell_gain = None
        deferred: List[Tuple[int, int, str]] = []
        while heap:
            neg_g, i, cell = heapq.heappop(heap)
            if cell in locked or -neg_g != gains[cell]:
                continue  # stale entry
            target = 1 - side[cell]
            if side_area[target] + sizes.get(cell, 1.0) > max_side_area:
                deferred.append((neg_g, i, cell))
                continue  # infeasible now; may become movable later
            best_cell = cell
            best_cell_gain = -neg_g
            break
        for entry in deferred:
            heapq.heappush(heap, entry)
        if best_cell is None:
            break
        # Apply the tentative move.
        s = side[best_cell]
        for net_id in cell_nets[best_cell]:
            counts[net_id][s] -= 1
            counts[net_id][1 - s] += 1
        side_area[s] -= sizes.get(best_cell, 1.0)
        side_area[1 - s] += sizes.get(best_cell, 1.0)
        side[best_cell] = 1 - s
        locked.add(best_cell)
        moves.append((best_cell, s))
        gain_total += best_cell_gain
        if gain_total > best_gain:
            best_gain = gain_total
            best_prefix = len(moves)
        # Refresh the gains invalidated by the move.
        touched: Set[str] = set()
        for net_id in cell_nets[best_cell]:
            touched.update(net_cells[net_id])
        for other in touched:
            if other not in locked:
                g = _gain(other, nets, cell_nets, side, counts)
                if g != gains[other]:
                    gains[other] = g
                    heapq.heappush(heap, (-g, rank[other], other))

    # Roll back past the best prefix.
    for cell, original in reversed(moves[best_prefix:]):
        current = side[cell]
        for net_id in cell_nets[cell]:
            counts[net_id][current] -= 1
            counts[net_id][original] += 1
        side[cell] = original
    return best_gain > 0


def clique_edges(net: Sequence[str]) -> List[Tuple[str, str, float]]:
    """Pairwise edges for one net, each of weight ``2 / |net|``.

    Every net contributes total weight ~2 regardless of pin count.  Nets
    wider than :data:`~repro.place.quadratic.CLIQUE_STAR_LIMIT` pins fall
    back to star edges (driver to each sink, same weight), capping the
    expansion at O(k) edges.
    """
    k = len(net)
    if k < 2:
        return []
    w = 2.0 / k
    if k > CLIQUE_STAR_LIMIT:
        driver = net[0]
        return [(driver, sink, w) for sink in net[1:]]
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((net[i], net[j], w))
    return edges


def quadratic_objective(netlist: PlacementNetlist,
                        positions: Dict[str, Point]) -> float:
    """The squared-Euclidean wirelength a placement achieves."""
    total = 0.0
    lookup = dict(netlist.fixed)
    lookup.update(positions)
    for net in netlist.nets:
        for a, b, w in clique_edges(net):
            pa, pb = lookup[a], lookup[b]
            total += w * ((pa.x - pb.x) ** 2 + (pa.y - pb.y) ** 2)
    return total


def reference_solve(
    system: QuadraticSystem,
    anchors: Optional[Dict[str, Tuple[Point, float]]] = None,
) -> Dict[str, Point]:
    """A cold solve of ``system`` with one Python update per anchor.

    The same cached assembly as :meth:`QuadraticSystem.solve`, but the
    anchors land on the diagonal and right-hand sides one cell at a
    time and the solution is clipped into the region cell by cell.
    """
    import numpy as np
    import scipy.sparse as sp

    n = system.n
    if n == 0:
        return {}
    region = system.region
    center = region.center
    index = system.index
    diag = system._diag.copy()
    bx = system._bx.copy()
    by = system._by.copy()
    for name, (point, weight) in (anchors or {}).items():
        i = index.get(name)
        if i is None:
            continue
        diag[i] += weight
        bx[i] += weight * point.x
        by[i] += weight * point.y
    arange = np.arange(n)
    rows = np.concatenate([system._rows, arange])
    cols = np.concatenate([system._cols, arange])
    vals = np.concatenate([system._vals, diag])
    laplacian = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    xs = _solve_spd(laplacian, bx, center.x)
    ys = _solve_spd(laplacian, by, center.y)
    out: Dict[str, Point] = {}
    for name, i in index.items():
        x = min(max(xs[i], region.lx), region.ux)
        y = min(max(ys[i], region.ly), region.uy)
        out[name] = Point(float(x), float(y))
    return out


def _mean_boundary(positions, low_cells, high_cells, vertical_cut) -> float:
    """Coordinate of the split line between the two cell groups."""
    def value(cell: str) -> float:
        p = positions[cell]
        return p.x if vertical_cut else p.y

    low_max = max(value(c) for c in low_cells)
    high_min = min(value(c) for c in high_cells)
    return (low_max + high_min) / 2.0


class ReferencePlacer:
    """Quadratic placement + recursive bi-partitioning, by name.

    Takes the argument of ``repro.place.global_place.GlobalPlacer`` and
    reads its ``ANCHOR_BASE`` and ``MAX_LEVELS``.  ``relevant_nets`` and
    ``relevant_cells`` sum the nets and cells handed to FM over all
    refinements.
    """

    def __init__(self, min_cells_per_region: int = 8) -> None:
        self.min_cells_per_region = min_cells_per_region
        self.relevant_nets = 0
        self.relevant_cells = 0

    def place(self, netlist: PlacementNetlist, region: Rect) -> GlobalPlacement:
        """Produce a balanced point placement of all movable cells."""
        netlist.check()
        if not netlist.movables:
            return GlobalPlacement({}, region, [region], {})
        system = QuadraticSystem(netlist, region)
        positions = reference_solve(system)
        partitions: List[Tuple[Rect, List[str]]] = [
            (region, list(netlist.movables))
        ]
        for level in range(MAX_LEVELS):
            if all(
                len(cells) <= self.min_cells_per_region
                for _rect, cells in partitions
            ):
                break
            partitions = self._split_level(partitions, netlist, positions)
            anchor_weight = ANCHOR_BASE * (2.0 ** level)
            anchors = {}
            for rect, cells in partitions:
                center = rect.center
                for cell in cells:
                    anchors[cell] = (center, anchor_weight)
            positions = reference_solve(system, anchors)

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

    def _split_level(self, partitions, netlist, positions):
        out: List[Tuple[Rect, List[str]]] = []
        for rect, cells in partitions:
            if len(cells) <= self.min_cells_per_region:
                out.append((rect, cells))
                continue
            out.extend(self._split_region(rect, cells, netlist, positions))
        return out

    def _split_region(self, rect, cells, netlist, positions):
        """Split one region in two along its longer dimension."""
        vertical_cut = rect.width >= rect.height  # cut x if wide
        coordinate = (
            (lambda c: positions[c].x) if vertical_cut
            else (lambda c: positions[c].y)
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

        if len(cells) >= 8:
            low_cells, high_cells = self._refine_split(
                low_cells, high_cells, netlist, positions, vertical_cut)
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

    def _refine_split(self, low_cells, high_cells, netlist, positions,
                      vertical_cut):
        """FM refinement of a geometric split.

        The region's nets are those with a pin in it, in netlist order.
        Pins outside the region (other cells and pads) are fixed on the
        side their current position suggests.
        """
        local = set(low_cells) | set(high_cells)
        cells = sorted(local)
        cut_coord = _mean_boundary(positions, low_cells, high_cells,
                                   vertical_cut)
        initial: Dict[str, int] = {}
        for c in low_cells:
            initial[c] = 0
        for c in high_cells:
            initial[c] = 1
        relevant_nets: List[List[str]] = []
        for net in netlist.nets:
            if not any(pin in local for pin in net):
                continue
            relevant_nets.append(net)
            for pin in net:
                if pin in initial:
                    continue
                p = netlist.fixed.get(pin) or positions.get(pin)
                if p is None:
                    continue
                value = p.x if vertical_cut else p.y
                initial[pin] = 0 if value <= cut_coord else 1
        self.relevant_nets += len(relevant_nets)
        self.relevant_cells += len(cells)
        refined = fm_bipartition(
            cells, relevant_nets, initial, sizes=netlist.sizes,
            balance_tolerance=0.1, max_passes=2,
        )
        new_low = [c for c in cells if refined[c] == 0]
        new_high = [c for c in cells if refined[c] == 1]
        return new_low, new_high
