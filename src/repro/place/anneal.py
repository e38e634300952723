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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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


class _Incremental:
    """Full-recompute HPWL bookkeeping over a mutable placement.

    The reference engine: every refreshed net is re-folded from live
    positions and every swap repacks its rows in full.
    :class:`_IncrementalBBox` layers the stamped bounding-box cache of
    :class:`repro.perf.incremental.StampedNetBoxCache` on top and must
    stay bit-identical to this class (asserted by the randomized
    incremental-vs-full tests).
    """

    #: Whether ``_swap_cells`` should use the stamp-tracking fast repack.
    incremental = False

    def __init__(
        self, placement: DetailedPlacement, netlist: PlacementNetlist
    ) -> None:
        self.placement = placement
        self.netlist = netlist
        self.cell_nets: Dict[str, List[int]] = {}
        for net_id, net in enumerate(netlist.nets):
            for pin in net:
                self.cell_nets.setdefault(pin, []).append(net_id)
        self.net_hpwl: List[float] = self._initial_hpwl()
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

    def _initial_hpwl(self) -> List[float]:
        """Per-net HPWL at engine construction (hook for the vec engine)."""
        return [self._compute(net) for net in self.netlist.nets]

    def _position(self, pin: str) -> Optional[Point]:
        p = self.placement.positions.get(pin)
        if p is not None:
            return p
        return self.netlist.fixed.get(pin)

    def _compute(self, net: List[str]) -> float:
        xs: List[float] = []
        ys: List[float] = []
        for pin in net:
            p = self._position(pin)
            if p is None:
                continue
            xs.append(p.x)
            ys.append(p.y)
        if len(xs) < 2:
            return 0.0
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def affected(self, cells: Tuple[str, ...]) -> List[int]:
        net_ids: List[int] = []
        for cell in cells:
            net_ids.extend(self.cell_nets.get(cell, []))
        return sorted(set(net_ids))

    def refresh(self, net_ids: List[int]) -> float:
        """Recompute the given nets; returns the delta applied to total."""
        delta = 0.0
        for net_id in net_ids:
            new = self._compute(self.netlist.nets[net_id])
            delta += new - self.net_hpwl[net_id]
            self.net_hpwl[net_id] = new
        self.total += delta
        return delta

    def row_width(self, row: Row) -> float:
        """Current packed width of a row (for the capacity check)."""
        return row.width


class _IncrementalBBox(_Incremental):
    """Stamp-validated bounding-box HPWL bookkeeping (the fast engine).

    Same external behaviour as :class:`_Incremental` — including the
    deliberate staleness of ``net_hpwl`` for nets that row repacking
    shifts without them being scored — but each refreshed net costs a
    stamp check against its cached box instead of a full fold, swaps
    repack only the row suffix that actually shifts, rejected moves need
    no restore work beyond the undoing swap's own stamps, and row widths
    are maintained instead of re-derived per capacity check.
    """

    incremental = True

    #: Whether the stamped cache bulk-builds its boxes through the
    #: struct-of-arrays kernels (bitwise-identical; the vec engine's
    #: construction fast path).
    vec_cache = False

    def __init__(
        self, placement: DetailedPlacement, netlist: PlacementNetlist
    ) -> None:
        super().__init__(placement, netlist)
        from repro.perf.incremental import StampedNetBoxCache

        self.cache = StampedNetBoxCache(
            netlist.nets, placement.positions, netlist.fixed,
            vec=self.vec_cache,
        )
        self._row_width: Dict[int, float] = {
            row.index: row.width for row in placement.rows
        }

    def refresh(self, net_ids: List[int]) -> float:
        # Scored nets always contain a just-swapped cell, so skip the
        # stamp scan and re-fold outright (same value, fewer checks).
        cache = self.cache
        boxes = cache._box
        stamps = cache._net_stamp
        clock = cache.clock
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
                stamps[net_id] = clock
                folded += 1
                new = (box[2] - box[0]) + (box[3] - box[1])
            delta += new - hpwl[net_id]
            hpwl[net_id] = new
        cache.refolds += folded
        self.total += delta
        return delta

    def row_width(self, row: Row) -> float:
        return self._row_width[row.index]


class _VecBBox(_IncrementalBBox):
    """Struct-of-arrays *construction* for the incremental engine.

    Everything built once per run is vectorized: the initial per-net
    boxes bulk-build through :func:`repro.perf.vec.fold_box_arrays`
    (``vec_cache``) and the initial per-net HPWL list comes from one
    flat :class:`repro.perf.vec.PinTable` fold instead of ``len(nets)``
    Python folds.  Move *scoring* stays per-net dict reads, inherited
    from :class:`_IncrementalBBox`: a probe touches 2–6 small nets, and
    at that batch size per-pin dict lookups beat any SoA fold once the
    cost of keeping coordinate arrays current against row-repack
    position writes is charged (a write-through-mirror variant measured
    2–3x *slower* end to end — repack writes outnumber scored pins by
    two orders of magnitude).  Min/max folds are exact in either
    representation, so results stay bitwise-identical throughout.
    """

    vec_cache = True

    def _initial_hpwl(self) -> List[float]:
        from repro.perf.vec import PinTable

        table = PinTable(
            self.netlist.nets, self.placement.positions,
            self.netlist.fixed,
        )
        return table.hpwl().tolist()

    @property
    def refreshes(self) -> int:
        """Net re-folds performed (feeds ``perf.vec.anneal_refreshes``).

        A plain property over the inherited cache counter: the scoring
        hot path must not carry a per-call override just to count.
        """
        return self.cache.refolds


def _repack_row(placement: DetailedPlacement, row: Row) -> None:
    x = 0.0
    for cell in row.cells:
        lo, hi = row.x_spans[cell]
        width = hi - lo
        row.x_spans[cell] = (x, x + width)
        placement.positions[cell] = Point(x + width / 2.0, row.y_center)
        x += width


def _repack_row_suffix(
    state: "_IncrementalBBox", row: Row, start: int, last_swapped: int
) -> None:
    """Repack a row from ``start``, stamping every cell that moves.

    Bit-identical to :func:`_repack_row`: spans before ``start`` already
    hold the exact running-sum values a full repack recomputes (their
    widths are untouched since the last repack), and the loop stops early
    once — past the swapped slot — a cell's stored span matches the
    running sum, because from there on a full repack rewrites only
    identical values.
    """
    cache = state.cache
    positions = state.placement.positions
    spans = row.x_spans
    cells = row.cells
    stamps = cache.cell_stamp
    clock = cache.clock
    x = spans[cells[start]][0]
    y = row.y_center
    n = len(cells)
    # Through the swapped slot: these cells always need their spans redone.
    for k in range(start, min(last_swapped + 1, n)):
        cell = cells[k]
        lo, hi = spans[cell]
        width = hi - lo
        spans[cell] = (x, x + width)
        nx = x + width / 2.0
        old = positions[cell]
        if old.x != nx or old.y != y:
            positions[cell] = Point(nx, y)
            stamps[cell] = clock
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
        stamps[cell] = clock
        x += width
    state._row_width[row.index] = x


def _swap_cells(state: _Incremental, a: str, b: str) -> None:
    """Exchange two cells' slots (possibly across rows) and repack."""
    row_a, row_b = state.row_of[a], state.row_of[b]
    ia = row_a.cells.index(a)
    ib = row_b.cells.index(b)
    row_a.cells[ia], row_b.cells[ib] = b, a
    # Move span widths with the cells.
    wa, wb = state.widths[a], state.widths[b]
    span_a = row_a.x_spans.pop(a)
    span_b = row_b.x_spans.pop(b)
    row_a.x_spans[b] = (span_a[0], span_a[0] + wb)
    row_b.x_spans[a] = (span_b[0], span_b[0] + wa)
    state.row_of[a], state.row_of[b] = row_b, row_a
    if state.incremental:
        state.cache.tick()
        if row_b is row_a:
            _repack_row_suffix(state, row_a, min(ia, ib), max(ia, ib))
        else:
            _repack_row_suffix(state, row_a, ia, ia)
            _repack_row_suffix(state, row_b, ib, ib)
    else:
        _repack_row(state.placement, row_a)
        if row_b is not row_a:
            _repack_row(state.placement, row_b)


def simulated_annealing(
    placement: DetailedPlacement,
    netlist: PlacementNetlist,
    seed: int = 0,
    moves_per_cell: int = 40,
    cooling: float = 0.92,
    min_acceptance: float = 0.015,
    incremental: bool = True,
    vec: bool = True,
) -> AnnealStats:
    """Refine a detailed placement in place; returns run statistics.

    Args:
        placement: the row placement to improve (mutated).
        netlist: its hypergraph (for wirelength and fixed pads).
        seed: RNG seed (runs are deterministic).
        moves_per_cell: swap attempts per cell per temperature step.
        cooling: geometric temperature decay per step.
        min_acceptance: stop when the acceptance rate falls below this.
        incremental: score moves with the per-net bounding-box cache
            (bit-identical results, much faster); off uses the
            full-recompute reference engine.
        vec: with ``incremental``, bulk-build the engine's initial
            boxes/HPWL through the struct-of-arrays kernels
            (:class:`_VecBBox`); bit-identical to both other engines,
            so the accept/reject sequence and the final placement are
            exactly the same.
    """
    cells = [c for row in placement.rows for c in row.cells]
    stats = AnnealStats()
    if len(cells) < 2:
        return stats
    if incremental:
        state_class = _VecBBox if vec else _IncrementalBBox
    else:
        state_class = _Incremental
    with OBS.span("place.anneal", cells=len(cells)):
        state = state_class(placement, netlist)
        _anneal(state, seed, moves_per_cell, cooling,
                min_acceptance, cells, stats)
    if OBS.enabled:
        OBS.metrics.counter("anneal.moves_tried").inc(stats.moves_tried)
        OBS.metrics.counter("anneal.moves_accepted").inc(stats.moves_accepted)
        OBS.metrics.histogram("anneal.improvement").observe(stats.improvement)
        if isinstance(state, _VecBBox):
            OBS.metrics.counter(
                "perf.vec.anneal_refreshes").inc(state.refreshes)
        elif incremental:
            cache = state.cache
            OBS.metrics.counter(
                "perf.incremental.bbox_hits").inc(cache.hits)
            OBS.metrics.counter(
                "perf.incremental.bbox_refolds").inc(cache.refolds)
    return stats


def _anneal(
    state: _Incremental,
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
        _swap_cells(state, a, b)
        delta = state.refresh(nets)
        samples.append(abs(delta))
        _swap_cells(state, a, b)  # undo
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
            _swap_cells(state, a, b)
            delta = state.refresh(nets)
            stats.moves_tried += 1
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                accepted += 1
                stats.moves_accepted += 1
            else:
                _swap_cells(state, a, b)
                state.refresh(nets)
        temperature *= cooling
        if accepted / max(moves_per_step, 1) < min_acceptance:
            break
        if temperature < stats.initial_temperature * 1e-4:
            break

    stats.final_hpwl = state.total
