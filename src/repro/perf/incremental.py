"""Incremental net-cost bookkeeping for the placement engines.

The annealer and the detailed-placement swap pass both score a move by
re-folding every affected net's half-perimeter bounding box from scratch —
O(pins-of-net) per net per probe.  :class:`NetBoxCache` keeps one live
bounding box per net and updates it in O(pins-of-moved-cell) per move:

* a pin moving strictly inside the box, expanding it, or moving
  outward from a boundary is an O(1) coordinate update;
* a pin leaving a box boundary inward forces a re-fold of that net only
  (the box may shrink and min/max cannot be updated incrementally);
* nets of cells that were shifted as a *side effect* of a move (row
  repacking in the annealer) but are outside the move's scored set are
  lazily marked dirty and re-folded on the next read — exactly the cost
  the naive path pays on every read anyway.

Every probe runs inside a transaction (:meth:`begin` / :meth:`commit` /
:meth:`rollback`): the first touch of a net snapshots its ``(box, dirty)``
pair, so a rejected move restores the cache in O(nets-touched) without
re-folding anything.

Bit-identity: a bounding box is the min/max over a finite set of floats —
an exact, order-independent reduction — so a box maintained by expansion
and re-folds equals the box a full fold computes, and the HPWL
``(ux - lx) + (uy - ly)`` computed from equal bounds is bitwise equal.
The golden-equivalence and randomized-move tests assert this.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.geometry import Point

__all__ = ["NetBoxCache", "StampedNetBoxCache"]

#: A bounding box as ``(lx, ly, ux, uy)``.
Box = Tuple[float, float, float, float]


class _BoxCacheBase:
    """Shared net classification + exact folding for the box caches.

    The initial per-net boxes bulk-build through the struct-of-arrays
    kernels (:func:`repro.perf.vec.fold_box_arrays`); min/max folds are
    exact, so every built box equals the per-net :meth:`_fold` bitwise
    (the ``invariant.perf.vec`` audit checks exactly that).
    """

    def __init__(
        self,
        nets: Sequence[Sequence[str]],
        positions: Dict[str, Point],
        fixed: Dict[str, Point],
    ) -> None:
        self.positions = positions
        n = len(nets)
        self.cell_nets: Dict[str, Tuple[int, ...]] = {}
        self._movable: List[Tuple[str, ...]] = []
        self._fixed_box: List[Optional[Box]] = []
        self._located: List[int] = []
        self._box: List[Optional[Box]] = [None] * n
        self.refolds = 0

        fold_ids: List[int] = []
        seen: Dict[str, Set[int]] = {}
        for net_id, net in enumerate(nets):
            movable: List[str] = []
            fb: Optional[Box] = None
            located = 0
            for pin in net:
                p = positions.get(pin)
                if p is not None:
                    movable.append(pin)
                    located += 1
                    seen.setdefault(pin, set()).add(net_id)
                    continue
                q = fixed.get(pin)
                if q is None:
                    continue
                located += 1
                if fb is None:
                    fb = (q.x, q.y, q.x, q.y)
                else:
                    fb = (
                        min(fb[0], q.x),
                        min(fb[1], q.y),
                        max(fb[2], q.x),
                        max(fb[3], q.y),
                    )
            if fb is None and len(set(movable)) == 1:
                # Every located pin is the same cell: the box is a point
                # that follows the cell, HPWL is exactly 0.0 forever, and
                # the O(1) boundary updates (which assume some *other* pin
                # holds the opposite boundary) would not apply.  Classify
                # as degenerate so reads return the same 0.0 a fold would.
                located = min(located, 1)
            self._movable.append(tuple(movable))
            self._fixed_box.append(fb)
            self._located.append(located)
            if located >= 2:
                fold_ids.append(net_id)
        if fold_ids:
            self._bulk_fold(fold_ids)
        self.cell_nets = {
            pin: tuple(sorted(ids)) for pin, ids in seen.items()
        }

    def _bulk_fold(self, fold_ids: List[int]) -> None:
        """Initial boxes for all foldable nets in one array reduction."""
        from repro.obs import OBS
        from repro.perf.vec import fold_box_arrays

        movable = self._movable
        fixed_box = self._fixed_box
        lx, ly, ux, uy = fold_box_arrays(
            [movable[i] for i in fold_ids],
            [fixed_box[i] for i in fold_ids],
            self.positions,
        )
        lxl = lx.tolist()
        lyl = ly.tolist()
        uxl = ux.tolist()
        uyl = uy.tolist()
        box = self._box
        for j, net_id in enumerate(fold_ids):
            box[net_id] = (lxl[j], lyl[j], uxl[j], uyl[j])
        if OBS.enabled:
            OBS.metrics.counter("perf.vec.box_folds").inc(len(fold_ids))

    def _fold(self, net_id: int) -> Box:
        """Full bounding box of a net from live positions (exact)."""
        positions = self.positions
        fb = self._fixed_box[net_id]
        movable = self._movable[net_id]
        if fb is None:
            lx = ly = ux = uy = None
        else:
            lx, ly, ux, uy = fb
        for pin in movable:
            p = positions[pin]
            x, y = p.x, p.y
            if lx is None:
                lx = ux = x
                ly = uy = y
                continue
            if x < lx:
                lx = x
            elif x > ux:
                ux = x
            if y < ly:
                ly = y
            elif y > uy:
                uy = y
        return (lx, ly, ux, uy)


class NetBoxCache(_BoxCacheBase):
    """Per-net live bounding boxes with eager delta updates + rollback.

    Args:
        nets: the hypergraph nets (lists of pin names).
        positions: the *live* movable-cell position dict — the cache reads
            it on every re-fold, so mutate it in place and report moves
            via :meth:`apply_moves`.
        fixed: immovable terminal positions (pads); folded once into a
            static per-net partial box.

    Pins present in neither dict are ignored, and a net with fewer than
    two located pins has zero HPWL forever — both exactly as the naive
    fold behaves.
    """

    def __init__(
        self,
        nets: Sequence[Sequence[str]],
        positions: Dict[str, Point],
        fixed: Dict[str, Point],
    ) -> None:
        super().__init__(nets, positions, fixed)
        self._dirty: List[bool] = [False] * len(nets)
        self._txn: Optional[Dict[int, Tuple[Optional[Box], bool]]] = None
        self._pair_memo: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        self.fast_updates = 0
        self.rollbacks = 0

    def swap_plan(self, a: str, b: str) -> List[Tuple[int, int]]:
        """``(net_id, membership)`` rows for a two-cell move (memoized).

        Net ids are sorted; membership is a bitmask (1 = net contains
        ``a``, 2 = contains ``b``, 3 = both).  Nets with fewer than two
        located pins are filtered out — their HPWL is exactly ``+0.0``
        forever, so dropping the terms leaves every before/after sum
        bitwise unchanged.
        """
        key = (a, b)
        got = self._pair_memo.get(key)
        if got is None:
            located = self._located
            in_a = set(self.cell_nets.get(a, ()))
            in_b = set(self.cell_nets.get(b, ()))
            got = [
                (i, (1 if i in in_a else 0) | (2 if i in in_b else 0))
                for i in sorted(in_a | in_b)
                if located[i] >= 2
            ]
            self._pair_memo[key] = got
        return got

    def hpwl(self, net_id: int) -> float:
        """Half-perimeter wirelength of one net (re-folds if dirty)."""
        if self._dirty[net_id]:
            self._box[net_id] = self._fold(net_id)
            self._dirty[net_id] = False
            self.refolds += 1
        box = self._box[net_id]
        if box is None:
            return 0.0
        return (box[2] - box[0]) + (box[3] - box[1])

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        """Open a move transaction (snapshot on first touch per net)."""
        self._txn = {}

    def commit(self) -> None:
        """Accept the open transaction's updates."""
        self._txn = None

    def rollback(self) -> None:
        """Restore every net the open transaction touched."""
        txn = self._txn
        if txn:
            box = self._box
            dirty = self._dirty
            for net_id, (old_box, old_dirty) in txn.items():
                box[net_id] = old_box
                dirty[net_id] = old_dirty
        self._txn = None
        self.rollbacks += 1

    def _save(self, net_id: int) -> None:
        txn = self._txn
        if txn is not None and net_id not in txn:
            txn[net_id] = (self._box[net_id], self._dirty[net_id])

    # -- updates -------------------------------------------------------------

    def move_pin(self, net_id: int, old: Point, new: Point) -> None:
        """Update one net's box for a pin that moved ``old -> new``.

        The live position dict must already hold the new position (a
        re-fold reads it).  Interior moves and boundary moves *outward*
        are exact O(1) updates (an outward move from the min/max stays
        the min/max); only a pin leaving a boundary inward can shrink
        the box, which min/max cannot track — that case re-folds.
        """
        box = self._box[net_id]
        if box is None:  # under two located pins: HPWL is 0.0 forever
            return
        self._save(net_id)
        if self._dirty[net_id]:
            self._box[net_id] = self._fold(net_id)
            self._dirty[net_id] = False
            self.refolds += 1
            return
        lx, ly, ux, uy = box
        ox, oy = old.x, old.y
        x, y = new.x, new.y
        if lx < ox < ux:
            if x < lx:
                lx = x
            elif x > ux:
                ux = x
        elif ox == lx and x <= ox:
            lx = x
        elif ox == ux and x >= ox:
            ux = x
        else:
            self._box[net_id] = self._fold(net_id)
            self.refolds += 1
            return
        if ly < oy < uy:
            if y < ly:
                ly = y
            elif y > uy:
                uy = y
        elif oy == ly and y <= oy:
            ly = y
        elif oy == uy and y >= oy:
            uy = y
        else:
            self._box[net_id] = self._fold(net_id)
            self.refolds += 1
            return
        self._box[net_id] = (lx, ly, ux, uy)
        self.fast_updates += 1

    def mark_dirty(self, net_id: int) -> None:
        """Lazily invalidate one net (re-folded on the next read)."""
        if self._located[net_id] < 2:
            return
        self._save(net_id)
        self._dirty[net_id] = True

    def apply_moves(
        self,
        moved: Iterable[Tuple[str, Point, Point]],
        scored: Optional[Set[int]] = None,
    ) -> None:
        """Propagate a batch of cell moves into the per-net boxes.

        Args:
            moved: ``(cell, old_position, new_position)`` records; the
                live position dict must already reflect the new state.
            scored: the net ids the caller is about to read.  Nets of
                moved cells outside this set are only dirty-marked
                (O(1)); ``None`` updates every touched net eagerly.
        """
        located = self._located
        for cell, old, new in moved:
            for net_id in self.cell_nets.get(cell, ()):
                if located[net_id] < 2:
                    continue
                if scored is None or net_id in scored:
                    self.move_pin(net_id, old, new)
                else:
                    self.mark_dirty(net_id)


class StampedNetBoxCache(_BoxCacheBase):
    """Per-net boxes validated by per-cell move stamps (read-side lazy).

    Built for the annealer, where a single swap shifts whole row suffixes
    as a side effect: eagerly touching every net of every shifted cell
    costs more than the folds it saves.  Here a move only bumps an integer
    stamp per *actually moved* cell (:meth:`touch`), and a read re-folds a
    net exactly when some member cell moved after the box was last folded.
    Boxes are therefore always live-accurate on read, rejection needs no
    rollback (the undoing swap just bumps stamps again), and every value
    returned equals the naive full fold bitwise.

    Call :meth:`tick` before each batch of touches: reads between two
    batches validate against the batch's clock, so a later batch must
    carry a newer one.
    """

    def __init__(
        self,
        nets: Sequence[Sequence[str]],
        positions: Dict[str, Point],
        fixed: Dict[str, Point],
    ) -> None:
        super().__init__(nets, positions, fixed)
        self.clock = 0
        self.cell_stamp: Dict[str, int] = {
            pin: 0 for pin in self.cell_nets
        }
        self._net_stamp: List[int] = [0] * len(nets)
        self.hits = 0

    def tick(self) -> None:
        """Open a new move batch (subsequent touches outdate prior reads)."""
        self.clock += 1

    def touch(self, cell: str) -> None:
        """Record that a cell moved in the current batch."""
        self.cell_stamp[cell] = self.clock

    def hpwl(self, net_id: int) -> float:
        """HPWL of one net, re-folded iff a member moved since last fold."""
        box = self._box[net_id]
        if box is None:
            return 0.0
        stamp = self._net_stamp[net_id]
        stamps = self.cell_stamp
        for pin in self._movable[net_id]:
            if stamps[pin] > stamp:
                box = self._box[net_id] = self._fold(net_id)
                self._net_stamp[net_id] = self.clock
                self.refolds += 1
                break
        else:
            self.hits += 1
        return (box[2] - box[0]) + (box[3] - box[1])

    def refresh_hpwl(self, net_id: int) -> float:
        """HPWL with an unconditional re-fold.

        For callers that already know a member cell moved (the annealer's
        scored nets always contain a swapped cell), skipping the stamp
        scan.  Identical value to :meth:`hpwl`.
        """
        box = self._box[net_id]
        if box is None:
            return 0.0
        box = self._box[net_id] = self._fold(net_id)
        self._net_stamp[net_id] = self.clock
        self.refolds += 1
        return (box[2] - box[0]) + (box[3] - box[1])
