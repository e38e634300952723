"""Simulated-annealing detailed-placement improvement (TimberWolf style).

The paper's back-end used TimberWolf 4.2, a simulated-annealing placer.
This module refines a row-legalised placement with the classic SA loop:
random pairwise cell swaps (within and across rows, with row repacking and
capacity control), Metropolis acceptance on half-perimeter wirelength, and
geometric cooling from an automatically calibrated starting temperature.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.geometry import Point
from repro.obs import OBS
from repro.place.detailed import DetailedPlacement, Row
from repro.place.hypergraph import PlacementNetlist

__all__ = ["AnnealStats", "simulated_annealing"]


@dataclass
class AnnealStats:
    """Outcome of one annealing run."""

    initial_hpwl: float = 0.0
    final_hpwl: float = 0.0
    moves_tried: int = 0
    moves_accepted: int = 0
    initial_temperature: float = 0.0

    @property
    def improvement(self) -> float:
        """Fraction of the initial HPWL removed (0 when it was zero)."""
        if self.initial_hpwl <= 0:
            return 0.0
        return 1.0 - self.final_hpwl / self.initial_hpwl


class _AnnealState:
    """Bounding-box HPWL bookkeeping over a mutable placement.

    Per-net HPWL lives in :attr:`net_hpwl` (summed into :attr:`total`);
    :meth:`refresh` re-folds the scored nets into the boxes of
    :class:`repro.perf.incremental.NetBoxCache`, swaps repack only the
    row suffix that actually shifts, rejected moves need no restore work
    beyond the undoing swap and its re-fold, and row widths are
    maintained instead of re-derived per capacity check.  ``net_hpwl``
    is deliberately stale for nets that row repacking shifts without
    them being scored, exactly as a full-recompute engine that refreshes
    only the scored nets would leave it.  Every delta is bitwise-equal to
    that engine's (min/max folds are exact), so the accept/reject
    sequence and the final placement are the same; the placement tests
    assert it against a full-recompute oracle.
    """

    def __init__(
        self, placement: DetailedPlacement, netlist: PlacementNetlist
    ) -> None:
        from repro.perf.incremental import NetBoxCache

        self.placement = placement
        self.netlist = netlist
        self.cache = NetBoxCache(
            netlist.nets, placement.positions, netlist.fixed)
        # The freshly built boxes are exact folds, so their HPWLs equal a
        # per-net full fold (0.0 for nets under two located pins).
        self.net_hpwl: List[float] = [
            0.0 if box is None else (box[2] - box[0]) + (box[3] - box[1])
            for box in self.cache._box
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
        self._row_width: Dict[int, float] = {
            row.index: row.width for row in placement.rows
        }

    def affected(self, cells: Tuple[str, ...]) -> List[int]:
        """Sorted ids of the nets any of ``cells`` sits on."""
        cell_nets = self.cache.cell_nets
        net_ids: List[int] = []
        for cell in cells:
            net_ids.extend(cell_nets.get(cell, ()))
        return sorted(set(net_ids))

    def refresh(self, net_ids: List[int]) -> float:
        """Re-fold the given nets; returns the delta applied to total."""
        # Scored nets always contain a just-swapped cell, so each one is
        # re-folded outright.
        cache = self.cache
        boxes = cache._box
        fold = cache._fold
        hpwl = self.net_hpwl
        delta = 0.0
        folded = 0
        for net_id in net_ids:
            box = boxes[net_id]
            if box is None:
                new = 0.0
            else:
                box = boxes[net_id] = fold(net_id)
                folded += 1
                new = (box[2] - box[0]) + (box[3] - box[1])
            delta += new - hpwl[net_id]
            hpwl[net_id] = new
        cache.refolds += folded
        self.total += delta
        return delta

    def row_width(self, row: Row) -> float:
        """Current packed width of a row (for the capacity check)."""
        return self._row_width[row.index]

    def swap(self, a: str, b: str) -> None:
        """Exchange two cells' slots (possibly across rows) and repack."""
        row_a, row_b = self.row_of[a], self.row_of[b]
        ia = row_a.cells.index(a)
        ib = row_b.cells.index(b)
        row_a.cells[ia], row_b.cells[ib] = b, a
        # Move span widths with the cells.
        wa, wb = self.widths[a], self.widths[b]
        span_a = row_a.x_spans.pop(a)
        span_b = row_b.x_spans.pop(b)
        row_a.x_spans[b] = (span_a[0], span_a[0] + wb)
        row_b.x_spans[a] = (span_b[0], span_b[0] + wa)
        self.row_of[a], self.row_of[b] = row_b, row_a
        if row_b is row_a:
            self._repack_suffix(row_a, min(ia, ib), max(ia, ib))
        else:
            self._repack_suffix(row_a, ia, ia)
            self._repack_suffix(row_b, ib, ib)

    def _repack_suffix(self, row: Row, start: int, last_swapped: int) -> None:
        """Repack a row from ``start``, moving every cell whose slot shifts.

        Bit-identical to a full left-to-right repack of the row: spans
        before ``start`` already hold the exact running-sum values a full
        repack recomputes (their widths are untouched since the last
        repack), and the loop stops early once — past the swapped slot —
        a cell's stored span matches the running sum, because from there
        on a full repack rewrites only identical values.
        """
        positions = self.placement.positions
        spans = row.x_spans
        cells = row.cells
        x = spans[cells[start]][0]
        y = row.y_center
        n = len(cells)
        # Through the swapped slot: these cells always need their spans
        # redone.
        for k in range(start, min(last_swapped + 1, n)):
            cell = cells[k]
            lo, hi = spans[cell]
            width = hi - lo
            spans[cell] = (x, x + width)
            nx = x + width / 2.0
            old = positions[cell]
            if old.x != nx or old.y != y:
                positions[cell] = Point(nx, y)
            x += width
        # Past it: stop at the first cell whose stored span matches the
        # running sum — everything after is provably unchanged.
        for k in range(last_swapped + 1, n):
            cell = cells[k]
            lo, hi = spans[cell]
            if lo == x:
                return
            width = hi - lo
            spans[cell] = (x, x + width)
            positions[cell] = Point(x + width / 2.0, y)
            x += width
        self._row_width[row.index] = x


def simulated_annealing(
    placement: DetailedPlacement,
    netlist: PlacementNetlist,
    seed: int = 0,
    moves_per_cell: int = 40,
    cooling: float = 0.92,
    min_acceptance: float = 0.015,
) -> AnnealStats:
    """Refine a detailed placement in place; returns run statistics.

    Args:
        placement: the row placement to improve (mutated).
        netlist: its hypergraph (for wirelength and fixed pads).
        seed: RNG seed (runs are deterministic).
        moves_per_cell: swap attempts per cell per temperature step.
        cooling: geometric temperature decay per step.
        min_acceptance: stop when the acceptance rate falls below this.

    Moves are scored with the per-net bounding-box cache of
    :class:`_AnnealState`, bit-identical to re-folding every scored net
    from scratch.
    """
    cells = [c for row in placement.rows for c in row.cells]
    stats = AnnealStats()
    if len(cells) < 2:
        return stats
    with OBS.span("place.anneal", cells=len(cells)):
        state = _AnnealState(placement, netlist)
        _anneal(state, seed, moves_per_cell, cooling,
                min_acceptance, cells, stats)
    if OBS.enabled:
        OBS.metrics.counter("anneal.moves_tried").inc(stats.moves_tried)
        OBS.metrics.counter("anneal.moves_accepted").inc(stats.moves_accepted)
        OBS.metrics.histogram("anneal.improvement").observe(stats.improvement)
        OBS.metrics.counter(
            "perf.incremental.bbox_refolds").inc(state.cache.refolds)
    return stats


def _anneal(
    state: _AnnealState,
    seed: int,
    moves_per_cell: int,
    cooling: float,
    min_acceptance: float,
    cells: List[str],
    stats: AnnealStats,
) -> None:
    rng = random.Random(seed)
    stats.initial_hpwl = state.total

    # Calibrate T0 from the spread of random-move deltas.
    samples: List[float] = []
    for _ in range(min(60, len(cells) * 2)):
        a, b = rng.sample(cells, 2)
        nets = state.affected((a, b))
        state.swap(a, b)
        delta = state.refresh(nets)
        samples.append(abs(delta))
        state.swap(a, b)  # undo
        state.refresh(nets)
    mean_delta = sum(samples) / len(samples) if samples else 1.0
    temperature = max(mean_delta * 10.0, 1e-6)
    stats.initial_temperature = temperature

    moves_per_step = moves_per_cell * len(cells) // 8
    while True:
        accepted = 0
        for _ in range(max(moves_per_step, 1)):
            a, b = rng.sample(cells, 2)
            if state.row_of[a] is not state.row_of[b]:
                # Capacity control for unequal widths across rows.
                row_b = state.row_of[b]
                row_a = state.row_of[a]
                delta_w = state.widths[a] - state.widths[b]
                if state.row_width(row_b) + delta_w > state.capacity:
                    continue
                if state.row_width(row_a) - delta_w > state.capacity:
                    continue
            nets = state.affected((a, b))
            state.swap(a, b)
            delta = state.refresh(nets)
            stats.moves_tried += 1
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                accepted += 1
                stats.moves_accepted += 1
            else:
                state.swap(a, b)
                state.refresh(nets)
        temperature *= cooling
        if accepted / max(moves_per_step, 1) < min_acceptance:
            break
        if temperature < stats.initial_temperature * 1e-4:
            break

    stats.final_hpwl = state.total
