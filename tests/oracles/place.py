"""Full-recompute placement scoring: the oracles of the cached engines.

:func:`anneal_reference` drives the production annealing loop with an
engine that re-folds every scored net from live positions and repacks
whole rows per swap; :func:`detailed_place_reference` runs the greedy
adjacent-swap pass the same way.  The cached engines of
``repro.place.anneal`` / ``repro.place.detailed`` must reproduce both
bit for bit: the same accept/reject sequence, the same placement.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.geometry import Point
from repro.place.anneal import AnnealStats, _anneal
from repro.place.detailed import (
    DetailedPlacement,
    Row,
    _swap_in_row,
    detailed_place,
)
from repro.place.hypergraph import PlacementNetlist


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
