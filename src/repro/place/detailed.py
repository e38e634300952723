"""Row-based detailed placement for standard cells.

Takes the balanced global placement of a mapped netlist and legalises it
into standard-cell rows (the final placement step of both Section 5
pipelines): cells are binned into rows by their global ``y`` (respecting
row capacity), packed left-to-right by global ``x``, and optionally
improved by a greedy adjacent-swap pass on half-perimeter wirelength.

Row geometry follows the classic double-back standard-cell image: fixed
cell height, rows separated by routing channels whose heights the channel
router determines afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry import Point, Rect
from repro.place.hypergraph import PlacementNetlist

__all__ = ["Row", "DetailedPlacement", "detailed_place"]

#: Standard cell height, µm (3µ-era double-row image).
DEFAULT_CELL_HEIGHT = 64.0


@dataclass
class Row:
    """One standard-cell row: ordered cells with packed x spans."""

    index: int
    y_center: float
    cells: List[str] = field(default_factory=list)
    x_spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def width(self) -> float:
        """Right edge of the row's rightmost cell (0 for an empty row)."""
        if not self.x_spans:
            return 0.0
        return max(hi for _lo, hi in self.x_spans.values())


@dataclass
class DetailedPlacement:
    """Legalised row placement of a mapped netlist."""

    rows: List[Row]
    positions: Dict[str, Point]
    cell_height: float
    channel_height_guess: float

    @property
    def core_width(self) -> float:
        """Width of the widest row: the core's width before routing."""
        return max((row.width for row in self.rows), default=0.0)

    @property
    def num_rows(self) -> int:
        """Number of standard-cell rows."""
        return len(self.rows)

    def with_channel_heights(self, heights: Sequence[float]) -> "DetailedPlacement":
        """Re-stack rows with routed channel heights (below each row).

        ``heights[i]`` is the height of the channel *below* row ``i``; a
        final entry may give the channel above the top row.
        """
        if len(heights) < len(self.rows):
            raise ValueError("need a channel height per row")
        new_rows: List[Row] = []
        positions = dict(self.positions)
        y = 0.0
        for row in self.rows:
            y += heights[row.index]
            y_center = y + self.cell_height / 2.0
            new_row = Row(row.index, y_center, list(row.cells), dict(row.x_spans))
            new_rows.append(new_row)
            for cell in row.cells:
                lo, hi = row.x_spans[cell]
                positions[cell] = Point((lo + hi) / 2.0, y_center)
            y += self.cell_height
        return DetailedPlacement(
            new_rows, positions, self.cell_height, self.channel_height_guess
        )


def _choose_num_rows(total_width: float, cell_height: float,
                     channel_ratio: float) -> int:
    """Rows for an approximately square core.

    With row pitch ``(1 + channel_ratio) * H`` and core width
    ``total_width / rows``, squareness gives
    ``rows = sqrt(total_width / ((1 + channel_ratio) * H))``.
    """
    if total_width <= 0:
        return 1
    rows = math.sqrt(total_width / ((1.0 + channel_ratio) * cell_height))
    return max(1, round(rows))


def detailed_place(
    netlist: PlacementNetlist,
    global_positions: Dict[str, Point],
    cell_height: float = DEFAULT_CELL_HEIGHT,
    channel_ratio: float = 1.0,
    improvement_passes: int = 1,
    num_rows: Optional[int] = None,
) -> DetailedPlacement:
    """Legalise a global placement into standard-cell rows.

    Args:
        netlist: the placement hypergraph (sizes are cell *areas*).
        global_positions: balanced global placement to legalise.
        cell_height: standard-cell height; width = area / height.
        channel_ratio: assumed channel-to-cell-height ratio for the initial
            row stacking (the router later replaces it with real heights).
        improvement_passes: greedy adjacent-swap HPWL passes (0 disables).
        num_rows: force a row count (default: squareness heuristic).

    The swap passes score against a per-net bounding-box cache
    (:class:`repro.perf.incremental.NetBoxCache`), bit-identical to
    re-folding every affected net per probe.
    """
    widths = {
        name: max(netlist.sizes.get(name, 1.0), 1e-9) / cell_height
        for name in netlist.movables
    }
    total_width = sum(widths.values())
    if num_rows is None:
        num_rows = _choose_num_rows(total_width, cell_height, channel_ratio)
    capacity = total_width / num_rows

    # Bin cells into rows bottom-up by global y, respecting capacity.
    ordered = sorted(
        netlist.movables,
        key=lambda c: (global_positions[c].y, global_positions[c].x, c),
    )
    bins: List[List[str]] = [[] for _ in range(num_rows)]
    fill = [0.0] * num_rows
    row_index = 0
    for cell in ordered:
        while (
            row_index < num_rows - 1
            and fill[row_index] + widths[cell] > capacity * 1.0001
        ):
            row_index += 1
        bins[row_index].append(cell)
        fill[row_index] += widths[cell]

    channel_height = channel_ratio * cell_height
    rows: List[Row] = []
    positions: Dict[str, Point] = {}
    for i, row_cells in enumerate(bins):
        row_cells.sort(key=lambda c: (global_positions[c].x, c))
        y_center = channel_height + i * (cell_height + channel_height) + cell_height / 2.0
        row = Row(i, y_center, row_cells)
        x = 0.0
        for cell in row_cells:
            row.x_spans[cell] = (x, x + widths[cell])
            positions[cell] = Point(x + widths[cell] / 2.0, y_center)
            x += widths[cell]
        rows.append(row)

    placement = DetailedPlacement(rows, positions, cell_height, channel_height)
    if improvement_passes > 0:
        from repro.obs import OBS
        from repro.perf.incremental import NetBoxCache

        cache = NetBoxCache(netlist.nets, placement.positions, netlist.fixed)
        for _ in range(improvement_passes):
            if not _swap_pass(placement, cache):
                break
        if OBS.enabled:
            OBS.metrics.counter(
                "perf.incremental.box_fast_updates").inc(cache.fast_updates)
            OBS.metrics.counter(
                "perf.incremental.box_refolds").inc(cache.refolds)
    return placement


def _swap_pass(placement: DetailedPlacement, cache) -> bool:
    """Greedy adjacent-cell swaps inside rows; returns True if improved.

    Scored against a :class:`~repro.perf.incremental.NetBoxCache`, and
    bit-identical to re-folding every affected net's HPWL per probe (the
    oracle pass of the placement tests): the cached boxes are exact folds
    of the live positions at every step, so each ``before``/``after`` sum
    runs over the same net ids in the same order with bitwise-equal terms
    (zero-HPWL nets contribute ``+0.0``, which never changes the sum).
    After-the-swap boxes are delta-updated into temporaries — a swap never
    changes ``y``, and on the x axis interior and boundary-outward moves
    are exact O(1) updates while boundary-inward moves re-fold — and only
    committed on accept.  A rejected swap is undone and its nets lazily
    dirty-marked rather than snapshot-rolled-back: the undo's repacked
    spans are recomputed floats and need not bitwise-restore the old
    widths, so only a re-fold from live positions is guaranteed exact.
    """
    improved = False
    positions = placement.positions
    fold = cache._fold
    boxes = cache._box
    dirty = cache._dirty
    swap_plan = cache.swap_plan
    refolds = 0
    fast = 0
    for row in placement.rows:
        cells = row.cells
        for k in range(len(cells) - 1):
            a, b = cells[k], cells[k + 1]
            plan = swap_plan(a, b)
            before = 0.0
            for i, _m in plan:
                if dirty[i]:
                    boxes[i] = fold(i)
                    dirty[i] = False
                    refolds += 1
                box = boxes[i]
                before += (box[2] - box[0]) + (box[3] - box[1])
            ax_old = positions[a].x
            bx_old = positions[b].x
            _swap_in_row(placement, row, k)
            ax_new = positions[a].x
            bx_new = positions[b].x
            after = 0.0
            folded = []
            for i, m in plan:
                lx, ly, ux, uy = boxes[i]
                ok = True
                if m & 1:
                    if lx < ax_old < ux:
                        if ax_new < lx:
                            lx = ax_new
                        elif ax_new > ux:
                            ux = ax_new
                    elif ax_old == lx and ax_new <= ax_old:
                        lx = ax_new
                    elif ax_old == ux and ax_new >= ax_old:
                        ux = ax_new
                    else:
                        ok = False
                if ok and m & 2:
                    if lx < bx_old < ux:
                        if bx_new < lx:
                            lx = bx_new
                        elif bx_new > ux:
                            ux = bx_new
                    elif bx_old == lx and bx_new <= bx_old:
                        lx = bx_new
                    elif bx_old == ux and bx_new >= bx_old:
                        ux = bx_new
                    else:
                        ok = False
                if ok:
                    box = (lx, ly, ux, uy)
                    fast += 1
                else:
                    box = fold(i)
                    refolds += 1
                folded.append((i, box))
                after += (box[2] - box[0]) + (box[3] - box[1])
            if after >= before:
                _swap_in_row(placement, row, k)  # undo
                # The uncommitted boxes still describe the pre-swap state;
                # they stay valid unless the undo's recomputed spans
                # failed to bitwise-restore the two positions.
                if positions[a].x != ax_old or positions[b].x != bx_old:
                    for i, _m in plan:
                        dirty[i] = True
            else:
                for i, box in folded:
                    boxes[i] = box
                improved = True
    cache.refolds += refolds
    cache.fast_updates += fast
    return improved


def _swap_in_row(placement: DetailedPlacement, row: Row, k: int) -> None:
    """Swap the cells at slots k and k+1, repacking their spans."""
    a, b = row.cells[k], row.cells[k + 1]
    lo_a, hi_a = row.x_spans[a]
    lo_b, hi_b = row.x_spans[b]
    width_a = hi_a - lo_a
    width_b = hi_b - lo_b
    start = lo_a
    row.cells[k], row.cells[k + 1] = b, a
    row.x_spans[b] = (start, start + width_b)
    row.x_spans[a] = (start + width_b, start + width_b + width_a)
    y = row.y_center
    placement.positions[b] = Point(start + width_b / 2.0, y)
    placement.positions[a] = Point(start + width_b + width_a / 2.0, y)
